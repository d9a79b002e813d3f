"""Asymptotic values of the quantizing class and WKB relative errors.

The quintuplet of the quantizing class depends on the potential only through
the two turning-point action differences dS1 = S0(tp1) - S0(tp0) and
dSm1 = S0(tp-1) - S0(tp0) on the branch of the sector labelled 0; these are
the cycle periods P_a1 and P_a-1.  rho[l][k] is the WKB relative error
along admissible paths between sectors l and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import alpha_integral, alpha_ray_tail, cycle_period, safe_nodes
from .stokes import StokesComplexGraph

LOG3_HALF = np.log(3.0) / 2.0


class WrongClassError(ValueError):
    """Operation requires the quantizing class 320."""


@dataclass(frozen=True)
class AsymptoticValues:
    """Quintuplet of Riemann-sphere values in homogeneous (num, den) form.

    exact_flags marks entries that are exact rather than first-order
    approximations.
    """

    w: dict[int, tuple[complex, complex]]
    exact_flags: dict[int, bool]

    def is_infinite(self, k: int) -> bool:
        num, den = self.w[k]
        return den == 0 or (abs(num) > 1e12 * abs(den))


@dataclass(frozen=True)
class RelativeError:
    """rho[l][k] (indices k+2 in the array) with inf for unrelated sectors."""

    rho: np.ndarray
    sim_equals_relation: bool

    def value(self, l: int, k: int) -> float:
        return float(self.rho[(l + 2) % 5, (k + 2) % 5])

    @property
    def max_finite(self) -> float:
        finite = self.rho[np.isfinite(self.rho)]
        return float(np.max(finite)) if finite.size else 0.0


def _sector_anchor(g: StokesComplexGraph, k: int) -> complex:
    """Reference point on the central ray of geometric sector k, at three
    times the radius of the turning points."""
    scale = max(max(abs(r) for r in g.tps.roots), 1e-12)
    return 3.0 * scale * np.exp(2j * np.pi * k / 5)


def asymptotic_values_320(g: StokesComplexGraph) -> AsymptoticValues:
    """The five asymptotic values of the quantizing class, (0, -2) basis.

    w0 = 0, w-2 = inf, w-1 = i e^{-2 dSm1} (exact), hat w2 = -i,
    hat w1 = -i e^{-2 dS1} / (1 + e^{-2 dS1}), with dS1 = P_a1 and
    dSm1 = P_a-1 taken on the classified turning-point labels (the shift is
    already absorbed into them), to tolerance 1e-11.  The quantization
    conditions are the two coincidences hat w1 = w-2 and hat w2 = w-1.
    The periods are those of the graph's potential.
    """
    if g.class_code != "320":
        raise WrongClassError(f"class {g.class_code}, need 320")
    p = g.potential
    e1 = np.exp(-2.0 * cycle_period(p, "a1", labels=g.tp_labels).value)
    em1 = np.exp(-2.0 * cycle_period(p, "a-1", labels=g.tp_labels).value)
    w = {
        0: (0.0 + 0j, 1.0 + 0j),
        -2: (1.0 + 0j, 0.0 + 0j),
        -1: (1j * em1, 1.0 + 0j),
        2: (-1j, 1.0 + 0j),
        1: (-1j * e1, 1.0 + e1),
    }
    exact = {0: True, -2: True, -1: True, 2: False, 1: False}
    return AsymptoticValues(w=w, exact_flags=exact)


def relative_errors(g: StokesComplexGraph) -> RelativeError:
    """WKB relative errors rho[l][k] along representative admissible paths.

    rho vanishes for consecutive sectors and is infinite for unrelated
    pairs; otherwise it is int |alpha| over tail(l) + corridor + tail(k)
    (alpha_ray_tail and alpha_integral), where the corridor crosses exactly
    the walls joining the two sectors in the embedded graph.  Also reports
    whether the small-error relation (rho < log(3)/2) coincides with the
    connectivity relation.  alpha is that of the graph's potential.
    """
    p, tps = g.potential, g.tps
    roots = tps.all_with_repeats
    clearance = 0.05 * max(tps.separation, 1e-12) if len(tps.roots) > 1 else 0.0
    rho = np.full((5, 5), np.inf)
    for l in range(-2, 3):
        rho[(l + 2) % 5, (l + 2) % 5] = 0.0
        for k in (l - 1, l + 1):
            rho[(l + 2) % 5, (k + 2) % 5] = 0.0
    # external walls are sampled at a moderate radius beyond the vertices
    r_ext = 1.5 * max(max(abs(v) for v in tps.roots), 1e-12)
    # a sector's ray tail is the same in every pair it belongs to
    tails: dict[int, float] = {}

    def tail(k: int) -> float:
        if k not in tails:
            tails[k] = alpha_ray_tail(p, _sector_anchor(g, k))
        return tails[k]

    for l in range(-2, 3):
        for k in range(l + 1, 3):
            if (k - l) % 5 in (1, 4) or not g.relation.related(l, k):
                continue
            nodes = [_sector_anchor(g, l)]
            for wll in g.corridors[(l, k)]:
                nodes.append(g.wall_point(wll, r_ext))
            nodes.append(_sector_anchor(g, k))
            full = []
            for u, v in zip(nodes[:-1], nodes[1:]):
                seg = safe_nodes(u, v, roots, clearance)
                full.extend(seg if not full else seg[1:])
            mid = alpha_integral(p, full, clearance=0.5 * clearance if clearance else None)
            val = mid + (tail(l) + tail(k))
            rho[(l + 2) % 5, (k + 2) % 5] = val
            rho[(k + 2) % 5, (l + 2) % 5] = val
    sim = rho < LOG3_HALF
    sim_eq = bool(np.array_equal(sim, g.relation.matrix))
    return RelativeError(rho=rho, sim_equals_relation=sim_eq)

"""Asymptotic values, quantization residuals, and WKB error estimates.

All quantities for the quantizing class are built from the two action
differences dS1 = S0(tp1) - S0(tp0) and dSm1 = S0(tp-1) - S0(tp0), measured
on the branch attached to the sector that carries the decoration label 0
(geometrically the sector at ray angle 2*pi*shift/5).  The base point drops
out: only differences between turning-point actions appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import (
    BranchedPath,
    _FactorTracker,
    alpha_integral,
    alpha_ray_tail,
    line_action,
    safe_nodes,
)
from .potential import CubicPotential, turning_points
from .stokes import StokesComplexGraph

LOG3_HALF = np.log(3.0) / 2.0


class WrongClassError(ValueError):
    """Operation requires the quantizing class 320."""


@dataclass(frozen=True)
class AsymptoticValues:
    """Quintuplet of Riemann-sphere values in homogeneous (num, den) form.

    normalization records which pair of recessive solutions is the basis;
    exact_flags marks entries that are exact rather than first-order
    approximations.
    """

    w: dict[int, tuple[complex, complex]]
    exact_flags: dict[int, bool]
    normalization: tuple[int, int]

    def as_complex(self, k: int) -> complex:
        num, den = self.w[k]
        if den == 0:
            return complex(np.inf, 0.0)
        return num / den

    def is_infinite(self, k: int) -> bool:
        num, den = self.w[k]
        return den == 0 or (abs(num) > 1e12 * abs(den))


@dataclass(frozen=True)
class QuantizationResiduals:
    r1: complex
    r2: complex
    r3: complex


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


def _sector_anchor(g: StokesComplexGraph, k: int, factor: float = 3.0) -> complex:
    """Reference point on the central ray of geometric sector k."""
    scale = max(max(abs(r) for r in g.internal_vertices), 1e-12)
    return factor * scale * np.exp(2j * np.pi * k / 5)


def _recessive_seed(p: CubicPotential, anchor: complex) -> complex:
    """sqrt(V)(anchor) on the sheet where Re S grows outward along the ray."""
    t = _FactorTracker(np.array(turning_points(p).all_with_repeats), anchor)
    w = t.sqrtV()
    direction = anchor / abs(anchor)
    return w if (w * direction).real > 0 else -w


def sigma0_action_differences(
    p: CubicPotential, g: StokesComplexGraph, tol: float = 1e-11
) -> tuple[complex, complex]:
    """(dS1, dSm1): turning-point action differences on the label-0 branch."""
    if g.class_code != "320":
        raise WrongClassError(f"class {g.class_code}, need 320")
    lam0 = g.tp_labels["tp0"]
    lam1 = g.tp_labels["tp1"]
    lamm1 = g.tp_labels["tp-1"]
    anchor = _sector_anchor(g, g.decoration_shift)
    seed = _recessive_seed(p, anchor)
    tps = turning_points(p)
    roots = tps.all_with_repeats
    clearance = 0.05 * max(tps.separation, 1e-12)

    def leg(target):
        nodes = safe_nodes(anchor, target, roots, clearance)
        return line_action(
            p, BranchedPath(nodes=tuple(nodes), branch_seed=seed), tol=tol
        ).value

    s_lam0 = leg(lam0)
    return leg(lam1) - s_lam0, leg(lamm1) - s_lam0


def asymptotic_values_320(
    p: CubicPotential,
    g: StokesComplexGraph,
    normalization: tuple[int, int] = (0, -2),
    tol: float = 1e-11,
) -> AsymptoticValues:
    """The five asymptotic values of the quantizing class.

    In the (0, -2) basis: w0 = 0, w-2 = inf, w-1 = i e^{-2 dSm1} (exact),
    hat w2 = -i, hat w1 = -i e^{-2 dS1} / (1 + e^{-2 dS1}); the (0, 2) basis
    is the mirror.  Labels are canonical (shift already absorbed into the
    turning-point labels); the base point is pinned at tp0 so S0(tp0) = 0.
    """
    dS1, dSm1 = sigma0_action_differences(p, g, tol=tol)
    e1 = np.exp(-2.0 * dS1)
    em1 = np.exp(-2.0 * dSm1)
    if normalization == (0, -2):
        w = {
            0: (0.0 + 0j, 1.0 + 0j),
            -2: (1.0 + 0j, 0.0 + 0j),
            -1: (1j * em1, 1.0 + 0j),
            2: (-1j, 1.0 + 0j),
            1: (-1j * e1, 1.0 + e1),
        }
        exact = {0: True, -2: True, -1: True, 2: False, 1: False}
    elif normalization == (0, 2):
        w = {
            0: (0.0 + 0j, 1.0 + 0j),
            2: (1.0 + 0j, 0.0 + 0j),
            1: (-1j * e1, 1.0 + 0j),
            -2: (1j, 1.0 + 0j),
            -1: (1j * em1, 1.0 + em1),
        }
        exact = {0: True, 2: True, 1: True, -2: False, -1: False}
    else:
        raise ValueError("normalization must be (0, -2) or (0, 2)")
    return AsymptoticValues(w=w, exact_flags=exact, normalization=normalization)


def transport_02_to_0m2(av: AsymptoticValues) -> AsymptoticValues:
    """Moebius transport of the (0, 2) quintuplet into the (0, -2) basis.

    With the base point at tp0 the map is w -> -i w / (w - i), fixed by the
    three values shared between the two normalizations.
    """
    if av.normalization != (0, 2):
        raise ValueError("transport expects the (0, 2) normalization")
    w = {}
    for k, (num, den) in av.w.items():
        w[k] = (-1j * num, num - 1j * den)
    return AsymptoticValues(w=w, exact_flags=dict(av.exact_flags), normalization=(0, -2))


def quantization_residuals(
    p: CubicPotential, g: StokesComplexGraph, tol: float = 1e-11
) -> QuantizationResiduals:
    """Residuals of the three matching conditions between asymptotic values.

    r1 = e^{-2 dS1} + 1 and r2 = e^{-2 dSm1} + 1 vanish exactly at the
    quantizing potentials; r3 = e^{-2 (dS1 - dSm1)} + 1 - e^{-2 dS1} is the
    symmetry-breaking condition and is incompatible with r1 = 0 or r2 = 0.
    """
    dS1, dSm1 = sigma0_action_differences(p, g, tol=tol)
    e1 = np.exp(-2.0 * dS1)
    em1 = np.exp(-2.0 * dSm1)
    return QuantizationResiduals(
        r1=e1 + 1.0,
        r2=em1 + 1.0,
        r3=np.exp(-2.0 * (dS1 - dSm1)) + 1.0 - e1,
    )


def partial_asymptotic_values(class_code: str) -> dict:
    """The asymptotic values computable for the non-quantizing classes.

    For 100 (basis (1, -1)): w0 = -1, hat w2 = hat w-2 = 1.  For 110 (basis
    (1, -2)): hat w-1 = 1, w2 = -1.  For 000 the symmetric exact quintuplet
    w_k = exp(2 pi i k / 5).  Classes 300/310/311 admit no quotable subset.
    """
    if class_code == "100":
        return {"basis": (1, -1), "values": {0: -1.0 + 0j, 2: 1.0 + 0j, -2: 1.0 + 0j},
                "exact": {0: True, 2: False, -2: False}}
    if class_code == "110":
        return {"basis": (1, -2), "values": {-1: 1.0 + 0j, 2: -1.0 + 0j},
                "exact": {-1: False, 2: True}}
    if class_code == "000":
        return {
            "basis": None,
            "values": {k: np.exp(2j * np.pi * k / 5) for k in range(-2, 3)},
            "exact": {k: True for k in range(-2, 3)},
        }
    raise ValueError(f"no quotable asymptotic values for class {class_code}")


def relative_errors(
    p: CubicPotential, g: StokesComplexGraph, tol: float = 1e-11
) -> RelativeError:
    """WKB relative errors rho[l][k] along representative admissible paths.

    rho vanishes for consecutive sectors and is infinite for unrelated
    pairs; otherwise it is int |alpha| over tail(l) + corridor + tail(k),
    where the corridor crosses exactly the walls joining the two sectors in
    the embedded graph.  Also reports whether the small-error relation
    (rho < log(3)/2) coincides with the connectivity relation.
    """
    tps = turning_points(p)
    roots = tps.all_with_repeats
    clearance = 0.05 * max(tps.separation, 1e-12) if len(tps.roots) > 1 else 0.0
    rho = np.full((5, 5), np.inf)
    for l in range(-2, 3):
        rho[(l + 2) % 5, (l + 2) % 5] = 0.0
        for k in (l - 1, l + 1):
            rho[(l + 2) % 5, (k + 2) % 5] = 0.0
    # external walls are sampled at a moderate radius beyond the vertices
    r_ext = 1.5 * max(max(abs(v) for v in g.internal_vertices), 1e-12)
    for l in range(-2, 3):
        for k in range(l + 1, 3):
            if (k - l) % 5 in (1, 4) or not g.relation.related(l, k):
                continue
            walls = g.corridors.get((l, k)) or g.corridors.get((k, l))
            if walls is None:
                continue
            nodes = [_sector_anchor(g, l)]
            for wll in walls:
                nodes.append(g.wall_point(wll, r_ext))
            nodes.append(_sector_anchor(g, k))
            full = []
            for u, v in zip(nodes[:-1], nodes[1:]):
                seg = safe_nodes(u, v, roots, clearance)
                full.extend(seg if not full else seg[1:])
            mid = alpha_integral(
                p, BranchedPath(nodes=tuple(full), branch_seed=1.0), tol=tol,
                clearance=0.5 * clearance if clearance else None,
            )
            tails = alpha_ray_tail(p, nodes[0]) + alpha_ray_tail(p, nodes[-1])
            val = mid + tails
            rho[(l + 2) % 5, (k + 2) % 5] = val
            rho[(k + 2) % 5, (l + 2) % 5] = val
    sim = rho < LOG3_HALF
    sim_eq = bool(np.array_equal(sim, g.relation.matrix))
    return RelativeError(rho=rho, sim_equals_relation=sim_eq)

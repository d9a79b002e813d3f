"""Canonical cubic potentials V(x; a, b) = 4x^3 - 2ax - 28b and their rescaling group."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

OMEGA = np.exp(2j * np.pi / 5)
_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class CubicPotential:
    """The pair (a, b) defining V(x) = 4x^3 - 2ax - 28b."""

    a: complex
    b: complex

    def __call__(self, lam: complex) -> complex:
        # stokes._trace_one evaluates V inline with these operations
        return 4 * lam**3 - 2 * self.a * lam - 28 * self.b

    def d1(self, lam: complex) -> complex:
        return 12 * lam**2 - 2 * self.a

    def d2(self, lam: complex) -> complex:
        return 24 * lam

    def coeffs(self) -> np.ndarray:
        return np.array([4.0, 0.0, -2 * complex(self.a), -28 * complex(self.b)])

    def is_real(self, tol: float = 0.0) -> bool:
        return abs(np.imag(self.a)) <= tol and abs(np.imag(self.b)) <= tol

    @cached_property
    def turning_points(self) -> "TurningPointSet":
        """The roots of V, solved on first use and kept: cached_property
        writes the instance __dict__, so equality and hash stay on (a, b)."""
        return _solve_turning_points(self)


@dataclass(frozen=True)
class TurningPointSet:
    """Roots of V with multiplicities; simple/double/triple by clustering."""

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    @property
    def all_with_repeats(self) -> tuple[complex, ...]:
        out: list[complex] = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return tuple(out)

    @property
    def scale(self) -> float:
        """Radius of the root set (roots sum to zero, so 0 is the centroid)."""
        return max(abs(r) for r in self.all_with_repeats)

    @property
    def separation(self) -> float:
        rs = self.roots
        if len(rs) == 1:
            return 0.0
        return min(abs(rs[i] - rs[j]) for i in range(len(rs)) for j in range(i + 1, len(rs)))


@dataclass(frozen=True)
class GroupElement:
    """Element (x, m) of R+ x Z5 acting by (a, b) -> (w^2m x^2 a, w^3m x^3 b)."""

    x: float
    m: int

    def __post_init__(self):
        if self.x <= 0:
            raise ValueError("scaling factor x must be positive")
        object.__setattr__(self, "m", self.m % 5)


def turning_points(p: CubicPotential) -> TurningPointSet:
    """Roots of V with multiplicities, solved once per potential object and
    sorted by multiplicity (highest first), then real part, then imaginary part."""
    return p.turning_points


def _solve_turning_points(p: CubicPotential) -> TurningPointSet:
    """Roots of V with multiplicity clustering at relative tolerance _ROOT_TOL.

    The cubic always has three roots over C; roots closer than
    _ROOT_TOL * scale are merged into one multiple turning point, their mean.
    """
    raw = np.roots(p.coeffs())
    # two Newton polish passes; keep residuals near machine precision
    for _ in range(2):
        d = p.d1(raw)
        step = np.where(np.abs(d) > 1e-30, p(raw) / np.where(d == 0, 1, d), 0.0)
        mask = np.abs(step) < 1e-2 * (1 + np.abs(raw))
        raw = raw - np.where(mask, step, 0.0)
    scale = max(1.0, float(np.max(np.abs(raw))))
    raw = [complex(r) for r in raw]
    # one close pair is a double root; two or three close pairs, the triple
    close = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2))
             if abs(raw[i] - raw[j]) <= _ROOT_TOL * scale]
    if len(close) == 1:
        (i, j), = close
        k = 3 - i - j
        roots, mults = [(raw[i] + raw[j]) / 2, raw[k]], [2, 1]
    elif close:
        roots, mults = [(raw[0] + raw[1] + raw[2]) / 3], [3]
    else:
        roots, mults = raw, [1, 1, 1]
    pairs = sorted(zip(roots, mults), key=lambda t: (-t[1], t[0].real, t[0].imag))
    roots = tuple(r for r, _ in pairs)
    mults = tuple(m for _, m in pairs)
    return TurningPointSet(roots=roots, multiplicities=mults)


def apply_group(g: GroupElement, p: CubicPotential) -> CubicPotential:
    """Rescaled potential (w^2m x^2 a, w^3m x^3 b), w = exp(2 pi i / 5)."""
    wa = OMEGA ** (2 * g.m)
    wb = OMEGA ** (3 * g.m)
    return CubicPotential(a=wa * g.x**2 * p.a, b=wb * g.x**3 * p.b)


def orbit_modulus(p: CubicPotential) -> complex:
    """The orbit invariant a^3/b^2, unchanged by apply_group.

    This is the form in which the real tritronquee orbit value ~ -3158.92 is
    quoted; it is infinite for b = 0, where ValueError is raised.
    """
    if p.b == 0:
        raise ValueError("orbit modulus degenerate at b = 0")
    return p.a**3 / p.b**2

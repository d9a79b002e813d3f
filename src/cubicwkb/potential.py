"""Canonical cubic potentials V(x; a, b) = 4x^3 - 2ax - 28b and their rescaling group."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

OMEGA = cmath.exp(2j * math.pi / 5)
_ROOT_TOL = 1e-8
# a lone pair of roots this close (relative to the scale) is split by the
# discriminant, not by the solver (_solve_turning_points)
_PAIR_TOL = 1e-6
# the cube roots of unity, exact conjugates of each other
_CUBE_ROOTS = (1.0 + 0j, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5)))


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

    def is_real(self, tol: float = 0.0) -> bool:
        return abs(complex(self.a).imag) <= tol and abs(complex(self.b).imag) <= tol

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


def _cardano(P: complex, Q: complex) -> list[complex]:
    """The three roots of z^3 + P z + Q by Cardano's formula:
    z = C w - P / (3 C w) over the cube roots of unity w, with
    C^3 = -Q/2 +- sqrt(Q^2/4 + P^3/27), the sign taken away from
    cancellation.  A real C^3 takes its real cube root, so real P and Q give
    an exactly conjugate pair."""
    s = cmath.sqrt(0.25 * Q * Q + P * P * P / 27.0)
    u = max(-0.5 * Q + s, -0.5 * Q - s, key=abs)
    if u == 0:
        return [0j, 0j, 0j]                      # P = Q = 0: the triple root 0
    if u.imag == 0:
        C = complex(math.copysign(abs(u.real) ** (1 / 3), u.real))
    else:
        C = u ** (1 / 3)
    return [C * w - P / (3.0 * C * w) for w in _CUBE_ROOTS]


def _discriminant(p: CubicPotential) -> complex:
    """a^3/2 - 1323 b^2, the discriminant of V/4 = z^3 - (a/2) z - 7b, summed
    exactly from the float parts of a and b and rounded once.  At a near
    double root its terms cancel to far below their rounding."""
    a, b = complex(p.a), complex(p.b)
    ar, ai, br, bi = (Fraction(x) for x in (a.real, a.imag, b.real, b.imag))
    re = (ar**3 - 3 * ar * ai**2) / 2 - 1323 * (br**2 - bi**2)
    im = (3 * ar**2 * ai - ai**3) / 2 - 2646 * br * bi
    return complex(float(re), float(im))


def _solve_turning_points(p: CubicPotential) -> TurningPointSet:
    """Roots of V with multiplicity clustering at relative tolerance _ROOT_TOL.

    The cubic always has three roots over C (_cardano, then two Newton
    polish passes); roots closer than _ROOT_TOL * scale are merged into one
    multiple turning point, their mean.  At a near double root any double
    precision solver is off by about sqrt(eps) scale, the size of _ROOT_TOL
    itself, so a lone pair within _PAIR_TOL * scale is replaced by
    m +- sqrt(D) / (2 (m - r)^2) from the exact discriminant D, m the pair's
    mean and r the third root: its merge is decided by its own split.
    """
    # V/4 = z^3 + P z + Q
    P, Q = -0.5 * complex(p.a), -7.0 * complex(p.b)
    raw = _cardano(P, Q)
    # two Newton polish passes; keep residuals near machine precision
    for _ in range(2):
        for n, z in enumerate(raw):
            d = 3 * z * z + P
            if abs(d) > 1e-30:
                step = (z * z * z + P * z + Q) / d
                if abs(step) < 1e-2 * (1 + abs(z)):
                    raw[n] = z - step
    scale = max(1.0, max(abs(r) for r in raw))
    idx = ((0, 1), (0, 2), (1, 2))
    near = [(i, j) for i, j in idx if abs(raw[i] - raw[j]) <= _PAIR_TOL * scale]
    if len(near) == 1:
        (i, j), = near
        m = 0.5 * (raw[i] + raw[j])
        half = 0.5 * cmath.sqrt(_discriminant(p)) / (m - raw[3 - i - j]) ** 2
        raw[i], raw[j] = m + half, m - half
    # one close pair is a double root; two or three close pairs, the triple
    close = [(i, j) for i, j in idx if abs(raw[i] - raw[j]) <= _ROOT_TOL * scale]
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

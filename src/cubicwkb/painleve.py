"""Local machinery at a double pole of y'' = 6 y^2 - z.

Every pole admits the convergent expansion
    y(z) = (z-a)^{-2} + a (z-a)^2 / 10 + (z-a)^3 / 6 + b (z-a)^4 + ...
with one free coefficient b; the higher coefficients are polynomials in
(a, b) with rational coefficients, produced here by an exact-rational
recurrence and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

MAX_ORDER = 50

# polynomial in (a, b): {(i, j): Fraction} for a^i b^j
_Poly = dict

_cache: list[_Poly] = []


def _p_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, Fraction(0)) + c
        if out[k] == 0:
            del out[k]
    return out


def _p_mul(p, q):
    out: _Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _p_scale(p, s: Fraction):
    return {k: c * s for k, c in p.items() if c * s != 0}


def _coeff_polys(n: int) -> list[_Poly]:
    """Exact coefficient polynomials c_j for j = -2..n (index shift +2).

    Substituting the series into y'' = 6 y^2 - z and matching the power
    t^m gives (m+2)(m+1) c_{m+2} = 6 * sum_{i+k=m} c_i c_k - [m = 1] - a [m = 0];
    isolating the c_{m+2} term of the square yields, for j = m + 2 >= 5,
        (j + 3)(j - 4) c_j = 6 * sum over i + k = j - 2 with i, k > -2.
    """
    global _cache
    if not _cache:
        one = Fraction(1)
        _cache = [
            {(0, 0): one},                # c_{-2} = 1
            {},                           # c_{-1}
            {},                           # c_0
            {},                           # c_1
            {(1, 0): Fraction(1, 10)},    # c_2 = a / 10
            {(0, 0): Fraction(1, 6)},     # c_3 = 1/6
            {(0, 1): one},                # c_4 = b
        ]
    while len(_cache) < n + 3:
        j = len(_cache) - 2  # next order
        m = j - 2
        acc: _Poly = {}
        for i in range(-1, m + 2):  # i + k = m with i, k >= -1
            k = m - i
            if k < -1 or k > j - 1:
                continue
            if i + 2 >= len(_cache) or k + 2 >= len(_cache):
                continue
            acc = _p_add(acc, _p_mul(_cache[i + 2], _cache[k + 2]))
        denom = Fraction((j + 3) * (j - 4))
        _cache.append(_p_scale(acc, Fraction(6) / denom))
    return _cache[: n + 3]


def _p_eval(p: _Poly, a: complex, b: complex) -> complex:
    return sum(float(c) * a**i * b**j for (i, j), c in p.items()) if p else 0.0 + 0j


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated pole expansion: coefficients c_j for j = -2..order."""

    pole: complex
    b: complex
    coeffs: tuple[complex, ...]  # index j + 2
    order: int

    def eval(self, z: complex) -> complex:
        t = z - self.pole
        return sum(c * t**j for j, c in zip(range(-2, self.order + 1), self.coeffs))

    def eval_regular(self, z: complex) -> complex:
        """u(z) = y(z) - (z - pole)^{-2}, the regular part of the expansion."""
        t = z - self.pole
        return sum(
            c * t**j
            for j, c in zip(range(-2, self.order + 1), self.coeffs)
            if j >= -1
        )

    def eval_regular_d2(self, z: complex) -> complex:
        t = z - self.pole
        return sum(
            j * (j - 1) * c * t ** (j - 2)
            for j, c in zip(range(-2, self.order + 1), self.coeffs)
            if j >= 2
        )


def laurent_coeffs(a: complex, b: complex, N: int = 20) -> LaurentSeries:
    """Pole expansion coefficients at pole position a with free coefficient b."""
    if N < 5:
        raise ValueError("order must be at least 5")
    if N > MAX_ORDER:
        raise ValueError(f"order capped at {MAX_ORDER}")
    polys = _coeff_polys(N)
    coeffs = tuple(_p_eval(p, complex(a), complex(b)) for p in polys)
    return LaurentSeries(pole=complex(a), b=complex(b), coeffs=coeffs, order=N)


def coeff_poly(j: int) -> dict:
    """The exact rational polynomial of c_j in (a, b), keyed (i, k) -> Fraction."""
    if j < -2:
        raise ValueError("coefficients start at j = -2")
    return dict(_coeff_polys(max(j, 5))[j + 2])


def pi_residual(s: LaurentSeries, z: complex) -> float:
    """|y'' - 6 y^2 + z| of the truncated series at z.

    Bounded by C |z - pole|^{N-3} inside the convergence-safe radius, a
    heuristic 0.3 max(1, |pole|).
    """
    t = z - s.pole
    safe = 0.3 * max(1.0, abs(s.pole))
    if t == 0:
        raise ValueError("residual undefined at the pole itself")
    if abs(t) > safe:
        raise ValueError(f"|z - pole| = {abs(t):.3g} outside safe radius {safe:.3g}")
    # with y = t^{-2} + u the double-pole terms cancel exactly:
    # y'' - 6 y^2 + z = u'' - 12 u / t^2 - 6 u^2 + (pole + t)
    u = s.eval_regular(z)
    udd = s.eval_regular_d2(z)
    return float(abs(udd - 12.0 * u / t**2 - 6.0 * u * u + s.pole + t))

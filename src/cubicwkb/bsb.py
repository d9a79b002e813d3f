"""Solver for the two-cycle quantization system and the real pole family.

The system is P_a1(a, b) = i pi (n - 1/2), P_a-1(a, b) = -i pi (m - 1/2)
for positive integers n, m; solutions approximate poles of the tritronquee
solution (a = pole position, b = the free Laurent coefficient).  Real
solutions form a single power-law family a_n = a* (n - 1/2)^{4/5},
b_n = b* (n - 1/2)^{6/5} generated by one scaling orbit.  The whole (n, m)
lattice comes from one curve of unit-scale solutions with m >= n: the
periods are homogeneous, and complex conjugation maps cell (m, n) onto
(n, m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .action import QuadratureError, cycle_period, label_turning_points_by_periods
from .potential import CubicPotential, GroupElement, apply_group, turning_points
from .stokes import ClassificationError, classify
from .wkb import relative_errors


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class BsbIndex:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("quantization indices must be positive integers")


@dataclass(frozen=True)
class BsbSolution:
    index: BsbIndex
    a: complex
    b: complex
    residual_norm: float
    rho_max: float

    @property
    def potential(self) -> CubicPotential:
        return CubicPotential(self.a, self.b)


_PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _labels_from_roots(tps, prev_labels: dict[str, complex]):
    """Re-attach tp0/tp1/tp-1 to the solved roots tps by optimal matching.

    The assignment must be unambiguous: a trial point whose best root
    permutation is not clearly cheaper than the runner-up is rejected,
    since the iteration could otherwise change branch silently.
    """
    roots = list(tps.roots)
    if len(roots) != 3:
        raise SolverError("turning points collided during iteration")
    names = ("tp0", "tp1", "tp-1")
    prev = [prev_labels[n] for n in names]
    costs = sorted(
        (sum(abs(roots[pi] - prev[i]) for i, pi in enumerate(perm)), perm)
        for perm in _PERMS3
    )
    best, perm = costs[0]
    second = costs[1][0]
    if best > 0.6 * second:
        raise SolverError("root-label matching ambiguous on this step")
    return {n: roots[pi] for n, pi in zip(names, perm)}


def _targets(idx: BsbIndex) -> tuple[complex, complex]:
    return 1j * math.pi * (idx.n - 0.5), -1j * math.pi * (idx.m - 0.5)


def _system(p: CubicPotential, labels, t1: complex, t2: complex, tol: float):
    """Residuals F of the two period conditions and their Jacobian J, rows
    (dP/da, dP/db) of the two cycles.

    Each label is snapped to the nearest turning point of p.
    """
    P1 = cycle_period(p, "a1", labels=labels, tol=tol)
    P2 = cycle_period(p, "a-1", labels=labels, tol=tol)
    return (P1.value - t1, P2.value - t2), (P1.gradient, P2.gradient)


def _newton_targets(p, labels, t1, t2, tol, max_iter):
    """Damped Newton on the two periods toward arbitrary target values."""
    F, J = _system(p, labels, t1, t2, tol=1e-9)
    norm = max(abs(F[0]), abs(F[1]))
    qtol = 1e-9
    for it in range(max_iter):
        if norm <= tol:
            break
        if norm < 1e-6:
            qtol = 1e-12
        # the step s of J s = -F, by Cramer's rule
        (j11, j12), (j21, j22) = J
        det = j11 * j22 - j12 * j21
        if det == 0:
            raise SolverError(f"singular Jacobian at iteration {it}")
        step = ((j12 * F[1] - j22 * F[0]) / det, (j21 * F[0] - j11 * F[1]) / det)
        lam = 1.0
        for _ in range(9):
            q = CubicPotential(p.a + lam * step[0], p.b + lam * step[1])
            try:
                labels_q = _labels_from_roots(turning_points(q), labels)
                Fq, Jq = _system(q, labels_q, t1, t2, tol=qtol)
            except (SolverError, ValueError):
                lam *= 0.5
                continue
            nq = max(abs(Fq[0]), abs(Fq[1]))
            if nq < norm or nq <= tol:
                p, labels, F, J, norm = q, labels_q, Fq, Jq, nq
                break
            lam *= 0.5
        else:
            raise SolverError(f"line search stalled at residual {norm:.3e}")
    if norm > tol:
        raise SolverError(f"no convergence after {max_iter} iterations ({norm:.3e})")
    return p, norm


def _certify(p: CubicPotential, t1: complex, t2: complex):
    """Certify p as a quantizing solution; return (labels, residual, rho_max),
    the residual being max |F| of the periods taken with the classified labels.

    a must lie outside the pole-free sector, |arg a| > 4 pi/5; the Stokes
    complex must be of class 320 with decoration shift 0, and the periods
    taken with the classified labels must meet the targets t1, t2; otherwise
    SolverError (on the kappa curve: the branch was lost to a root braid).
    The R+ action (a, b) -> (x^2 a, x^3 b) and complex conjugation both carry
    the certificate along; R+ scales rho_max by exactly x^{-5/2} and the
    residual, with the targets, by x^{5/2}.
    """
    arg_a = abs(cmath.phase(p.a))
    if arg_a <= 4 * math.pi / 5:
        raise SolverError(f"|arg a| = {arg_a:.4f} violates the pole sector bound")
    try:
        g = classify(p)
    except (ClassificationError, ValueError, QuadratureError) as exc:
        raise SolverError(f"classification failed: {exc}") from exc
    if g.class_code != "320" or g.decoration_shift != 0:
        raise SolverError(f"point classifies as {g.class_code} "
                          f"(shift {g.decoration_shift}), not the quantizing class")
    labels = dict(g.tp_labels)
    F, _ = _system(p, labels, t1, t2, 1e-10)
    residual = max(abs(F[0]), abs(F[1]))
    if residual > 1e-6:
        raise SolverError("the classified labels miss the period targets")
    return labels, residual, relative_errors(g).max_finite


def solve_bsb(idx: BsbIndex, seed: CubicPotential) -> BsbSolution:
    """Damped Newton iteration on the two periods with analytic Jacobian, to
    residual 1e-10 in at most 50 steps, certified by _certify.

    The seed must carry the quantizing-type geometry (one root joined to the
    other two by near-imaginary actions) or lie in the Newton basin of it;
    its roots are labelled by label_turning_points_by_periods.
    """
    t1, t2 = _targets(idx)
    labels = label_turning_points_by_periods(seed)
    p, norm = _newton_targets(seed, labels, t1, t2, 1e-10, max_iter=50)
    _, _, rho_max = _certify(p, t1, t2)
    return BsbSolution(idx, complex(p.a), complex(p.b), norm, rho_max)


def _bracketed_newton(fdf, lo, hi, f_lo, max_iter=100):
    """Root of f in [lo, hi], where f(lo) = f_lo and f(hi) differ in sign.

    fdf(t) returns (f(t), f'(t)).  Newton steps from the midpoint; whenever a
    step would leave the current bracket (or f' is zero), the bracket is
    bisected instead.  Stops on an exact zero or once a step is within a few
    ulps, |dt| <= 1e-15 + 8.9e-16 |t|.
    """
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f, df = fdf(t)
        if f == 0.0:
            return t
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = t, f
        else:
            hi = t
        t_new = t - (f / df if df != 0.0 else math.inf)
        if not min(lo, hi) < t_new < max(lo, hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-15 + 8.9e-16 * abs(t_new):
            return t_new
        t = t_new
    raise SolverError(f"no root in the bracket after {max_iter} iterations")


@lru_cache(maxsize=1)
def _orbit_point() -> tuple[float, float]:
    """(b_hat, Im P1) for the real quantizing orbit at a = -1, Im P1 to
    tolerance 1e-13.

    b_hat = -e^t solves Re P_a1(-1, -e^t) = 0: an 18-point grid in t brackets
    the root, and _bracketed_newton takes d/dt Re P_a1 = Re(dP/db (-e^t))
    from the gradient that comes with the period.
    """

    def p1(t):
        p = CubicPotential(-1.0, -math.exp(t))
        labels = label_turning_points_by_periods(p)
        P = cycle_period(p, "a1", labels=labels, tol=1e-12)
        return P.value.real, (P.gradient[1] * p.b).real

    # 18 equally spaced points from log(1e-3) to log(0.3), the last one exact
    lo, hi = math.log(1e-3), math.log(0.3)
    step = (hi - lo) / 17
    grid = [lo + i * step for i in range(17)] + [hi]
    vals = [p1(t)[0] for t in grid]
    t_star = None
    for t0, t1, v0, v1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if v0 == 0.0:
            t_star = t0
            break
        if v0 * v1 < 0:
            t_star = _bracketed_newton(p1, t0, t1, v0)
            break
    if t_star is None:
        raise SolverError("failed to bracket the real quantizing orbit")
    b_hat = -math.exp(t_star)
    p = CubicPotential(-1.0, b_hat)
    labels = label_turning_points_by_periods(p)
    y0 = cycle_period(p, "a1", labels=labels, tol=1e-13).value.imag
    return b_hat, y0


@lru_cache(maxsize=1)
def _origin_node() -> tuple[CubicPotential, MappingProxyType, float, float]:
    """(p, labels, residual, rho_max) of the certified kappa = 1 node: the
    real orbit point (a*, b*), P_a1 = i pi, P_a-1 = -i pi.

    It depends on no input, so it is certified once per process; the labels
    are read-only.
    """
    _, a_star, b_star = real_orbit_constants()
    p = CubicPotential(a_star, b_star)
    t1 = 1j * math.pi
    labels, residual, rho = _certify(p, t1, -t1)
    return p, MappingProxyType(labels), residual, rho


def real_orbit_constants() -> tuple[float, float, float]:
    """(mu_star, a_star, b_star) of the real pole family.

    mu_star is the orbit invariant in the a^3/b^2 form (~ -3158.92); a_star
    and b_star normalize the family so the cycle condition holds exactly at
    half-integer multiples of i pi.
    """
    b_hat, y0 = _orbit_point()
    mu_star = -1.0 / b_hat**2
    x = (math.pi / y0) ** 0.4
    a_star = -(x**2)
    b_star = b_hat * x**3
    return mu_star, a_star, b_star


def real_orbit_potential() -> CubicPotential:
    """A representative potential on the real quantizing orbit (a = -1)."""
    b_hat, _ = _orbit_point()
    return CubicPotential(-1.0, b_hat)


def real_poles(n_max: int) -> list[tuple[float, float]]:
    """(a_n, b_n) for n = 1..n_max from the exact power law of the family."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _, a_star, b_star = real_orbit_constants()
    return [
        (a_star * (n - 0.5) ** 0.8, b_star * (n - 0.5) ** 1.2)
        for n in range(1, n_max + 1)
    ]


def _kappa_curve(
    kappas: set[Fraction], tol: float
) -> tuple[dict[Fraction, tuple[CubicPotential, float, float]], dict[Fraction, str]]:
    """Certified unit-scale solutions of P_a1 = i pi, P_a-1 = -i pi kappa
    for the kappas >= 1.

    The curve starts at the real orbit point (a*, b*), the kappa = 1
    solution, and is walked upward through the kappas above 1 in increasing
    order, one Newton solve per kappa to residual tol from the last accepted
    node, whose labels the walk keeps.  Every accepted point, the origin
    included, passes _certify; the origin's certificate is computed once per
    process (_origin_node).  Returns the solved nodes {kappa: (potential,
    residual, rho_max)}, with the residual as _certify measures it, and the
    failed kappas {kappa: message}; a failed kappa is recorded at once, and
    the walk goes on to the next from the last accepted node.
    """
    p, labels, residual, rho = _origin_node()
    nodes = {Fraction(1): (p, residual, rho)}
    t1 = 1j * math.pi
    failures: dict[Fraction, str] = {}
    for target in sorted(k for k in kappas if k > 1):
        t2 = -1j * math.pi * float(target)
        try:
            p2, _ = _newton_targets(p, labels, t1, t2, tol, max_iter=30)
            labels2, residual2, rho2 = _certify(p2, t1, t2)
        except (SolverError, ValueError, QuadratureError) as exc:
            failures[target] = f"kappa = {target}: {exc}"
            continue
        p, labels = p2, labels2
        nodes[target] = (p, residual2, rho2)
    return nodes, failures


def solve_lattice(
    n_max: int, m_max: int, tol: float = 1e-10
) -> tuple[dict[tuple[int, int], BsbSolution], dict[tuple[int, int], str]]:
    """Fill the (n, m) lattice from one curve of certified unit-scale solutions.

    The periods are homogeneous, P(x^2 a, x^3 b) = x^{5/2} P(a, b), and
    complex conjugation swaps the two cycles, mapping the (m, n) solution
    onto the (n, m) one.  So, with s = min(n, m) - 1/2, the (n, m) solution
    is the kappa = (max(n, m) - 1/2)/s node of the unit curve rescaled by
    x = s^{2/5}, and conjugated when m < n; no cell is solved on its own.
    Both maps keep the class, the shift, the labels and |arg a|, so each cell
    carries its node's certificate: residual_norm = s * (node residual) and
    rho_max = (node rho_max) / s.  The curve is walked at
    tol / (max(n_max, m_max) - 1/2), so each walked cell meets tol; the
    kappa = 1 node is the real orbit point, at residual near rounding.  A
    cell fails only when its kappa node failed.
    """
    if n_max < 1 or m_max < 1:
        raise ValueError("n_max and m_max must be >= 1")
    solved: dict[tuple[int, int], BsbSolution] = {}
    failures: dict[tuple[int, int], str] = {}
    kappa = {
        (n, m): Fraction(2 * max(n, m) - 1, 2 * min(n, m) - 1)
        for n in range(1, n_max + 1)
        for m in range(1, m_max + 1)
    }
    nodes, errors = _kappa_curve(set(kappa.values()), tol / (max(n_max, m_max) - 0.5))
    for (n, m), k in kappa.items():
        if k in errors:
            failures[(n, m)] = errors[k]
            continue
        p, residual, rho = nodes[k]
        s = min(n, m) - 0.5
        p = apply_group(GroupElement(s**0.4, 0), p)
        if m < n:
            p = CubicPotential(complex(p.a).conjugate(), complex(p.b).conjugate())
        solved[(n, m)] = BsbSolution(BsbIndex(n, m), complex(p.a), complex(p.b),
                                     s * residual, rho / s)
    return solved, failures

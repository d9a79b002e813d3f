"""Contour integration of sqrt(V) and the cycle periods.

Periods.  The action P = int sqrt(V) dx between two simple turning points
e_i -> e_j (cycle_period, and turning_point_action without a side_hint) is
summed by one fixed rule.  With m = (e_i + e_j)/2 and h = (e_j - e_i)/2 the
path is the arc
    x(s) = m + h (s + i beta (1 - s^2)),   s in [-1, 1],
the chord for beta = 0.  When the third root e_k lies within 0.05 |e_j - e_i|
of m the arc hops over it with beta = 1, through the apex m + i h; when e_k
lies near the chord elsewhere the arc bends away from it (beta = -+1) if
that widens the ellipse below.  Along the arc
    (x - e_i)(x - e_j) = -h^2 (1 - s^2) (1 - 2 i beta s + beta^2 (1 - s^2)),
so dx/sqrt(V) is the Chebyshev weight 1/sqrt(1 - s^2) times a function of s
that is analytic inside the Bernstein ellipse through the nearest of its
singularities: the preimages of e_k and, for beta != 0, the zeros of the
quadratic factor.  Gauss-Chebyshev (nodes cos((2k-1) pi/2N), weights pi/N)
then converges like rho^(-2N) in the ellipse parameter rho, so
M = log(1/tol) / (2 log rho) nodes meet tol; the sum takes N = 3M nodes,
which contain the M nodes, and the difference of the two sums (plus a
rounding floor) is est_error.

The sheet is that of the principal factors sqrt(x - r) at the chord's
midpoint, or at the hop apex m + i h; the pair factor continues along the
arc as sqrt(x0 - e_i) sqrt(x0 - e_j) / sqrt(1 + beta^2) * sqrt(1 - s^2) *
sqrt(1 - 2 i beta s + beta^2 (1 - s^2)) from the arc's apex x0 = m + i beta h,
and the third factor as sqrt(x0 - e_k) sqrt((x - e_k)/(x0 - e_k)).  One sum
gives I0 = int dx/sqrt(V) and I1 = int x dx/sqrt(V), that is the gradient
dP/da = -I1, dP/db = -14 I0; the value follows from Euler's identity for
the weights (4, 6) of (a, b), P = (4 a dP/da + 6 b dP/db) / 5.

Paths.  Along an arbitrary path (line_action, and turning_point_action with
a side_hint) the square root is evaluated in factored form
    sqrt(V) = 2 * eta * sqrt(x - r1) * sqrt(x - r2) * sqrt(x - r3).
The factors start as the principal roots at one reference point, and the
sheet sign eta is pinned there by the path's seed value.  _split_points cuts
each segment into pieces no longer than half their distance to any root, and
on such a piece every factor continues from the piece's start x0 by one ratio
rule on the whole node array, sqrt(x - r) = sqrt(x0 - r) sqrt((x - r)/(x0 - r))
with the principal root of a ratio within 1/2 of 1 (_continue).  Endpoints
that coincide with turning points are handled with the substitution
x = tp + t^2 * (end - tp), which removes the square-root endpoint singularity
exactly: each vanishing factor is t * sqrt(end - tp) on the continued sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import CubicPotential, TurningPointSet, turning_points

_GAUSS_N = 20
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)
_GX2, _GW2 = np.polynomial.legendre.leggauss(2 * _GAUSS_N)
_HOP = 0.05            # the period arc hops a third root within _HOP |chord| of the midpoint
_MAX_COARSE = 2**15    # node cap of the period rule (reached only by nearly double roots)
_ROUNDING = 64 * np.finfo(float).eps   # rounding floor of the period rule's est_error


class ClearanceError(ValueError):
    """Path passes closer to a turning point than the configured clearance."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class BranchedPath:
    """Piecewise-linear path with the sqrt(V) sheet fixed by a seed value.

    branch_seed is an approximation of sqrt(V) at the first node (the nearer
    of the two roots of V is taken).  If the first node coincides with a
    turning point the seed refers to the first regular node instead.
    """

    nodes: tuple[complex, ...]
    branch_seed: complex

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("path needs at least two nodes")


@dataclass(frozen=True)
class ActionValue:
    value: complex
    est_error: float


@dataclass(frozen=True)
class CyclePeriod:
    cycle_id: str
    value: complex
    est_error: float
    gradient: tuple[complex, complex]   # (dP/da, dP/db)


def _seg_min_dist(a: complex, b: complex, r: complex) -> float:
    """Distance from point r to the segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(r - a)
    t = ((r - a) * np.conj(d)).real / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d - r)


def _split_points(a: complex, b: complex, roots, skip=()) -> list[complex]:
    """Waypoints along [a, b] so each piece is shorter than half its distance
    to every root not in skip (keeps per-factor continuation unambiguous)."""
    out: list[tuple[complex, complex]] = []
    stack = [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        dmin = min(
            (_seg_min_dist(u, v, r) for i, r in enumerate(roots) if i not in skip),
            default=np.inf,
        )
        if abs(v - u) <= 0.5 * dmin or depth > 48 or v == u:
            out.append((u, v))
        else:
            mid = 0.5 * (u + v)
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))
    out.sort(key=lambda seg: abs(seg[0] - a))
    return [s[0] for s in out] + [b]


def _gauss_panel(f, a, b):
    """Panel integral of f (a scalar or a vector per node) and its largest
    component error."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    i2 = half * (_GW2 @ f(mid + half * _GX2))
    i1 = half * (_GW @ f(mid + half * _GX))
    return i2, float(np.max(np.abs(i2 - i1)))


def _adaptive(f, a, b, tol, depth=0):
    val, err = _gauss_panel(f, a, b)
    if err <= tol or depth >= 26:
        if depth >= 26 and err > 1e4 * tol:
            raise QuadratureError(f"quadrature stalled at error {err:.3g}")
        return val, err
    mid = 0.5 * (a + b)
    v1, e1 = _adaptive(f, a, mid, 0.6 * tol, depth + 1)
    v2, e2 = _adaptive(f, mid, b, 0.6 * tol, depth + 1)
    return v1 + v2, e1 + e2


def _continue(vals, x0, x, roots):
    """The factors sqrt(x - r), one per root r, continued along [x0, x] from
    vals = sqrt(x0 - r); x is a point or an array of points (a row each).

    sqrt(x - r) = sqrt(x0 - r) sqrt((x - r) / (x0 - r)) with the principal
    root of the ratio.  That is the continuation while |x - x0| <= |x0 - r| / 2,
    where the ratio stays in the disk |w - 1| <= 1/2, clear of the principal
    cut: true on every piece of _split_points, for every root it does not skip.
    """
    x = np.asarray(x)[..., None]
    return vals * np.sqrt((x - roots) / (x0 - roots))


def _integrate_regular(roots, vals, a, b, tol):
    """(int sqrt(V) dx along the regular segment [a, b], its error, vals at b).

    vals holds the factors sqrt(a - r) of the sheet; each piece of
    _split_points is summed on whole node arrays continued from its start.
    """
    pieces = _split_points(a, b, roots)
    total = 0.0 + 0.0j
    err = 0.0
    for u, v in zip(pieces[:-1], pieces[1:]):
        if u == v:
            continue

        def f(s):
            return 2.0 * np.prod(_continue(vals, u, u + s * (v - u), roots), axis=-1) * (v - u)

        val, e = _adaptive(f, 0.0, 1.0, tol)
        total += val
        err += e
        vals = _continue(vals, u, v, roots)
    return total, err, vals


def _vanishing_set(roots, tp, scale):
    """Flat indices of all root copies sitting at the turning point tp."""
    return [i for i, r in enumerate(roots) if abs(r - tp) <= 1e-9 * max(scale, 1e-12)]


def _integrate_tp_leg(roots, vanish, tp, b, vals_b, tol):
    """(int sqrt(V) dx from the turning point tp to the regular point b, its
    error) on the sheet of the factors vals_b = sqrt(b - r) at b.

    The leg is x = tp + t^2 (b - tp), t in [0, 1], and dx = 2 t (b - tp) dt.
    Each factor vanishing at tp (the indices vanish) is exactly
    t sqrt(b - tp) there, so the integrand is regular at t = 0.  The other
    factors are continued from b back to each piece boundary of _split_points
    (which skips the vanishing roots), then from there over the piece's nodes.
    """
    d = b - tp
    others = [i for i in range(len(roots)) if i not in vanish]
    rest = roots[others]
    van = complex(np.prod(vals_b[vanish]))
    nv = len(vanish)
    lam_pts = _split_points(tp, b, roots, skip=set(vanish))
    t_bounds = [float(np.sqrt(abs(l - tp) / abs(d))) if d != 0 else 0.0 for l in lam_pts]
    t_bounds[0], t_bounds[-1] = 0.0, 1.0
    xs = [tp + t**2 * d for t in t_bounds]
    states = [vals_b[others]]
    for k in range(len(xs) - 2, -1, -1):
        states.append(_continue(states[-1], xs[k + 1], xs[k], rest))
    states.reverse()
    total = 0.0 + 0.0j
    err = 0.0
    for k in range(len(t_bounds) - 1):
        t0, t1 = t_bounds[k], t_bounds[k + 1]
        if t0 == t1:
            continue

        def f(t):
            reg = np.prod(_continue(states[k], xs[k], tp + t**2 * d, rest), axis=-1)
            return 2.0 * t**nv * van * reg * 2.0 * t * d

        val, e = _adaptive(f, t0, t1, tol)
        total += val
        err += e
    return total, err


def line_action(
    p: CubicPotential,
    path: BranchedPath,
    tol: float = 1e-11,
    clearance: float | None = None,
) -> ActionValue:
    """Integral of sqrt(V) along the path on the sheet fixed by branch_seed.

    Interior nodes keep clearance from all turning points; the first or last
    node may coincide with a simple turning point (endpoint-adapted rule).
    """
    tps = turning_points(p)
    roots = np.array(tps.all_with_repeats, dtype=complex)
    sep = tps.separation if len(tps.roots) > 1 else max(tps.scale, 1.0)
    clr = clearance if clearance is not None else 1e-3 * max(sep, 1e-12)
    scale = max(tps.scale, 1.0)

    nodes = [complex(z) for z in path.nodes]
    d0 = np.abs(nodes[0] - roots)
    dN = np.abs(nodes[-1] - roots)
    start_is_tp = float(np.min(d0)) <= 1e-9 * scale
    end_is_tp = float(np.min(dN)) <= 1e-9 * scale
    van0 = _vanishing_set(roots, nodes[0], scale) if start_is_tp else []
    vanN = _vanishing_set(roots, nodes[-1], scale) if end_is_tp else []
    if start_is_tp and len(nodes) == 2 and end_is_tp:
        raise ClearanceError("a two-node path cannot join two turning points")

    for k, (u, v) in enumerate(zip(nodes[:-1], nodes[1:])):
        for j, r in enumerate(roots):
            if (k == 0 and j in van0) or (k == len(nodes) - 2 and j in vanN):
                continue
            if _seg_min_dist(u, v, r) < clr:
                raise ClearanceError(
                    f"segment {k} passes within {clr:.3g} of turning point {r}"
                )

    ref = nodes[1] if start_is_tp else nodes[0]
    vals = np.sqrt(ref - roots)
    if path.branch_seed == 0:
        raise ValueError("branch_seed must be a nonzero sqrt(V) approximation")
    w_ref = 2.0 * vals[0] * vals[1] * vals[2]
    eta = -1.0 if abs(path.branch_seed + w_ref) < abs(path.branch_seed - w_ref) else 1.0

    total = 0.0 + 0.0j
    err = 0.0
    if start_is_tp:
        total, err = _integrate_tp_leg(roots, van0, nodes[0], nodes[1], vals, tol)
        first_seg = 1
    else:
        first_seg = 0

    last = len(nodes) - 1
    for k in range(first_seg, last):
        u, v = nodes[k], nodes[k + 1]
        if k == last - 1 and end_is_tp:
            val, e = _integrate_tp_leg(roots, vanN, nodes[last], u, vals, tol)
            total -= val  # the leg runs tp -> u
        else:
            val, e, vals = _integrate_regular(roots, vals, u, v, tol)
            total += val
        err += e
    return ActionValue(value=eta * total, est_error=err)


def _turning_point_pair(tps, from_tp, to_tp):
    """(roots, i, j): the entries of the roots of V (the solved tps)
    at two simple turning points, snapped to the nearest root."""
    roots = np.array(tps.all_with_repeats, dtype=complex)
    scale = max(tps.scale, 1e-12)
    di = np.abs(from_tp - roots)
    dj = np.abs(to_tp - roots)
    i, j = int(np.argmin(di)), int(np.argmin(dj))
    if di[i] > 1e-6 * scale or dj[j] > 1e-6 * scale:
        raise ValueError("endpoints must be turning points of the potential")
    mult = np.repeat(tps.multiplicities, tps.multiplicities)  # per entry of roots
    if i != j and (mult[i] != 1 or mult[j] != 1):
        raise ValueError("endpoints must be simple turning points")
    return roots, i, j


def _bernstein(s):
    """Parameter rho >= 1 of the Bernstein ellipse (foci -1, 1) through s."""
    r = np.abs(s + np.sqrt(s - 1) * np.sqrt(s + 1))
    return np.maximum(r, 1.0 / r)


def _arc_rho(w, beta: float) -> float:
    """Bernstein parameter of the nearest singularity of the arc integrand.

    w = (e_k - m) / h is the third root in chord coordinates; its preimages
    under s -> s + i beta (1 - s^2), and for beta != 0 the zeros -+1 - i/beta
    of 1 - 2 i beta s + beta^2 (1 - s^2), are the singularities in s.
    """
    if beta == 0.0:
        return float(_bernstein(w))
    disc = np.sqrt(1 - 4 * beta**2 - 4j * beta * w)
    sing = np.array([1 + disc, 1 - disc]) / (2j * beta)
    sing = np.append(sing, np.array([1, -1]) - 1j / beta)
    return float(np.min(_bernstein(sing)))


def _chord_period(p, roots, i, j, tol):
    """(P, dP/da, dP/db, errors) of the action P from roots[i] to roots[j].

    One Gauss-Chebyshev sum on the arc x(s) = m + h (s + i beta (1 - s^2))
    (see the module docstring) gives I0 = int dx/sqrt(V) and
    I1 = int x dx/sqrt(V); then dP/da = -I1, dP/db = -14 I0 and P follows
    from Euler's identity.  errors holds the estimated errors of dP/da, dP/db
    and P, in that order.
    """
    e_i, e_j, e_k = (complex(roots[n]) for n in (i, j, 3 - i - j))
    m, h = 0.5 * (e_i + e_j), 0.5 * (e_j - e_i)
    w = (e_k - m) / h
    ref = m                                      # the sheet: principal factors here
    if abs(e_k - m) < _HOP * abs(e_j - e_i):
        beta, ref = 1.0, m + 1j * h              # hop over the third root, +i side
        rho = _arc_rho(w, beta)
    else:
        # the chord, or the arc bent away from a third root near the chord
        away = -1.0 if w.imag >= 0 else 1.0
        rho, beta = max(((_arc_rho(w, b), b) for b in (0.0, away)), key=lambda rb: rb[0])
    # the M-node rule reaches tol; the sum has 3M nodes, which contain its M
    need = np.log(1.0 / tol) / (2.0 * max(np.log(rho), 1e-300))
    n_coarse = int(np.clip(np.ceil(need), 8, _MAX_COARSE))
    n = 3 * n_coarse
    s = np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))

    x0 = m + 1j * beta * h
    ends = np.array([e_i, e_j, e_k])
    fac = np.sqrt(ref - ends) * np.sqrt((x0 - ends) / (ref - ends))  # sqrt(x0 - r)
    x = m + h * (s + 1j * beta * (1 - s * s))
    q = 1 - 2j * beta * s + beta**2 * (1 - s * s)
    f0 = h * (1 - 2j * beta * s) * np.sqrt(1 + beta**2) / (
        2 * fac[0] * fac[1] * np.sqrt(q) * fac[2] * np.sqrt((x - e_k) / (x0 - e_k))
    )
    f1 = x * f0
    i0, i1 = np.pi / n * f0.sum(), np.pi / n * f1.sum()
    trunc0 = abs(i0 - np.pi / n_coarse * f0[1::3].sum())
    trunc1 = abs(i1 - np.pi / n_coarse * f1[1::3].sum())
    if max(trunc0, trunc1) > 1e4 * tol:
        raise QuadratureError(f"period rule stalled at error {max(trunc0, trunc1):.3g}")
    err0 = trunc0 + _ROUNDING * np.pi / n * np.abs(f0).sum()
    err1 = trunc1 + _ROUNDING * np.pi / n * np.abs(f1).sum()
    value = -(4 * p.a * i1 + 84 * p.b * i0) / 5
    err_value = (4 * abs(p.a) * err1 + 84 * abs(p.b) * err0) / 5
    return complex(value), complex(-i1), complex(-14 * i0), (err1, 14 * err0, err_value)


def turning_point_action(
    p: CubicPotential,
    from_tp: complex,
    to_tp: complex,
    side_hint: complex | None = None,
    tol: float = 1e-11,
) -> ActionValue:
    """Integral of sqrt(V) between two simple turning points.

    With a side_hint the value is line_action along from_tp -> side_hint ->
    to_tp, with the sheet seeded by the principal product of the factors at
    side_hint; side_hint selects which side of the third turning point the
    path passes, and both legs keep line_action's clearance.  Without a
    side_hint the value is the period rule of the module docstring: the
    sheet is pinned at the chord's midpoint, or at the hop apex when the
    third turning point sits on the chord near it.
    """
    roots, i, j = _turning_point_pair(turning_points(p), from_tp, to_tp)
    if i == j:
        return ActionValue(value=0.0 + 0.0j, est_error=0.0)
    if side_hint is None:
        val, _, _, errs = _chord_period(p, roots, i, j, tol)
        return ActionValue(value=val, est_error=errs[2])
    hint = complex(side_hint)
    seed = 2.0 * complex(np.prod(np.sqrt(hint - roots)))
    path = BranchedPath((complex(roots[i]), hint, complex(roots[j])), seed)
    return line_action(p, path, tol)


def _orient_sign(value: complex, cycle_id: str) -> float:
    """CONVENTION: Im(period) > 0 on a1 and < 0 on a-1 (ties, Im at the
    rounding level of the value, broken by Re > 0)."""
    want_positive = cycle_id == "a1"
    if abs(value.imag) > 1e-13 * abs(value):
        return 1.0 if (value.imag > 0) == want_positive else -1.0
    return 1.0 if value.real >= 0 else -1.0


def _pair_scores(p: CubicPotential, roots, tol: float) -> dict[tuple[int, int], float]:
    """|Re A| / |A| of the turning-point action A of each pair (i, j), i < j,
    of the three simple roots of p (by the period rule)."""
    scores = {}
    for i in range(3):
        for j in range(i + 1, 3):
            v = _chord_period(p, roots, i, j, tol)[0]
            scores[(i, j)] = abs(v.real) / max(abs(v), 1e-300)
    return scores


def _labels_around(roots, i0: int) -> dict[str, complex]:
    """tp0 = roots[i0]; tp1 and tp-1 are the other two, tp1 of larger Im."""
    ra, rb = (roots[k] for k in range(3) if k != i0)
    if ra.imag < rb.imag:
        ra, rb = rb, ra
    return {"tp0": roots[i0], "tp1": ra, "tp-1": rb}


def label_turning_points_by_periods(
    p: CubicPotential, tol: float = 1e-8
) -> dict[str, complex]:
    """Label three simple turning points tp0 / tp1 / tp-1 for the two cycles.

    tp0 is the root whose two pairwise actions are closest to purely
    imaginary (the quantizing geometry); tp1 is the remaining root of larger
    imaginary part.  For real potentials with a single real root this yields
    tp0 = real root and tp1 in the upper half plane.
    """
    tps = turning_points(p)
    if tuple(tps.multiplicities) != (1, 1, 1):
        raise ValueError("labelling requires three simple turning points")
    r = list(tps.roots)
    scale = max(tps.scale, 1e-12)

    # real potential with one real root and a conjugate pair: canonical labels
    if p.is_real(1e-12 * max(1.0, abs(p.a), abs(p.b))):
        n_real = sum(1 for z in r if abs(z.imag) <= 1e-9 * scale)
        if n_real == 1:
            return _labels_around(r, int(np.argmin([abs(z.imag) for z in r])))

    # otherwise pick the root whose worse pairwise action is closest to
    # purely imaginary (at quantizing potentials both of its pairs are)
    score = _pair_scores(p, r, tol)
    worst = [max(s for pair, s in score.items() if i in pair) for i in range(3)]
    return _labels_around(r, int(np.argmin(worst)))


def cycle_period(
    p: CubicPotential,
    cycle_id: str,
    labels: dict[str, complex] | None = None,
    tol: float = 1e-11,
    tps: TurningPointSet | None = None,
) -> CyclePeriod:
    """Period over cycle a1 (around tp0, tp1) or a-1 (around tp0, tp-1).

    Normalized so that quantizing potentials sit exactly at i*pi*(n - 1/2)
    on a1 and -i*pi*(m - 1/2) on a-1: the value is the integral of sqrt(V)
    between the two encircled turning points (the period rule of the module
    docstring) with the orientation fixed by the sign of its imaginary part.
    The gradient dP/da = -int lam / sqrt(V) dlam, dP/db = -14 int dlam /
    sqrt(V) comes from the same sum, on the same path, sheet and orientation
    (endpoint motion drops out since sqrt(V) vanishes there); est_error is
    the largest error over the three.  tps, the turning points of p when the
    caller has already solved them, saves solving them again; each label is
    snapped to the nearest of them.
    """
    if cycle_id not in ("a1", "a-1"):
        raise ValueError("cycle_id must be 'a1' or 'a-1'")
    if labels is None:
        labels = label_turning_points_by_periods(p)
    if tps is None:
        tps = turning_points(p)
    lam0 = labels["tp0"]
    lam = labels["tp1"] if cycle_id == "a1" else labels["tp-1"]
    roots, i, j = _turning_point_pair(tps, lam0, lam)
    if i == j:
        return CyclePeriod(cycle_id=cycle_id, value=0j, est_error=0.0, gradient=(0j, 0j))
    value, da, db, errs = _chord_period(p, roots, i, j, tol)
    s = _orient_sign(value, cycle_id)
    return CyclePeriod(
        cycle_id=cycle_id, value=s * value, est_error=max(errs), gradient=(s * da, s * db)
    )


def safe_nodes(a: complex, b: complex, roots, clearance: float, depth: int = 0):
    """Waypoints from a to b keeping clearance from all roots except the
    endpoints themselves (detours hop around blocking roots)."""
    bad = None
    for r in roots:
        if abs(r - a) < 1e-12 or abs(r - b) < 1e-12:
            continue
        if _seg_min_dist(a, b, r) < clearance:
            bad = r
            break
    if bad is None or depth > 6:
        return [a, b]
    d = b - a
    t = ((bad - a) * np.conj(d)).real / abs(d) ** 2
    foot = a + t * d
    away = foot - bad
    if abs(away) < 1e-14:
        away = 1j * d / abs(d)
    mid = bad + (2.5 * clearance + abs(away)) * away / max(abs(away), 1e-300)
    return (
        safe_nodes(a, mid, roots, clearance, depth + 1)[:-1]
        + safe_nodes(mid, b, roots, clearance, depth + 1)
    )


def alpha_at(p: CubicPotential, z):
    """|alpha| at z (a point or an array of points),
    alpha = (4 V V'' - 5 V'^2) / (32 V^{5/2}); sheet-free."""
    V = p(z)
    return abs(4 * V * p.d2(z) - 5 * p.d1(z) ** 2) / (32.0 * abs(V) ** 2.5)


def alpha_integral(
    p: CubicPotential,
    path: BranchedPath,
    tol: float = 1e-11,
    clearance: float | None = None,
    tps: TurningPointSet | None = None,
) -> float:
    """int |alpha(lam) dlam| along the path; the WKB relative-error density.

    |alpha| does not depend on the square-root sheet, so branch_seed is
    accepted for interface symmetry but not used.  tps, the turning points
    of p when the caller has already solved them, saves solving them again.
    """
    if tps is None:
        tps = turning_points(p)
    roots = np.array(tps.all_with_repeats, dtype=complex)
    sep = tps.separation if len(tps.roots) > 1 else max(tps.scale, 1.0)
    clr = clearance if clearance is not None else 1e-3 * max(sep, 1e-12)
    nodes = [complex(z) for z in path.nodes]
    for u, v in zip(nodes[:-1], nodes[1:]):
        for r in roots:
            if _seg_min_dist(u, v, r) < clr:
                raise ClearanceError("path violates turning-point clearance")
    total = 0.0
    for u, v in zip(nodes[:-1], nodes[1:]):
        for s0, s1 in zip(*(lambda pp: (pp[:-1], pp[1:]))(_split_points(u, v, roots))):
            if s0 == s1:
                continue
            seg = s1 - s0

            def f(ts):
                return alpha_at(p, s0 + ts * seg) * abs(seg)

            val, _ = _adaptive(f, 0.0, 1.0, tol)
            total += float(val.real)
    return total


def ray_tail(f, R: float, tol: float):
    """(int_R^inf f(r) dr, error) by the substitution r = R / s^2, s in (0, 1].

    f may return a scalar or a vector; every component must decay faster
    than r^{-1} (the Gauss nodes never reach s = 0).
    """

    def g(ss):
        return np.array([f(R / s**2) * (2.0 * R / s**3) for s in ss])

    return _adaptive(g, 0.0, 1.0, tol)


def alpha_ray_tail(p: CubicPotential, start: complex, tol: float = 1e-12) -> float:
    """int_start^inf |alpha| |dlam| along the outward ray through start.

    alpha decays like r^{-7/2}, so under r = R / s^2 the integrand vanishes
    like s^4 at s = 0.
    """
    R = abs(start)
    if R == 0:
        raise ValueError("tail ray must start away from the origin")
    u = start / R
    val, _ = ray_tail(lambda r: alpha_at(p, r * u), R, tol)
    return float(val.real)

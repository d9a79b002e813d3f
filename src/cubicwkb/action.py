"""Contour integration of sqrt(V) and the cycle periods.

Periods.  The action P = int sqrt(V) dx between two simple turning points
e_i -> e_j (cycle_period) is summed by one fixed rule.  With
m = (e_i + e_j)/2 and h = (e_j - e_i)/2 the path is the arc
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

Paths.  Along an arbitrary path (line_action) the square root is evaluated
in factored form
    sqrt(V) = 2 * eta * sqrt(x - r1) * sqrt(x - r2) * sqrt(x - r3).
The factors start as the principal roots at one reference point, and the
sheet sign eta is pinned there by the path's seed value.  _split_points cuts
each segment into pieces no longer than half their distance to any root, and
on such a piece every factor continues from the piece's start x0 by one ratio
rule at each node, sqrt(x - r) = sqrt(x0 - r) sqrt((x - r)/(x0 - r)) with
the principal root of a ratio within 1/2 of 1 (_continue).  Endpoints
that coincide with turning points are handled with the substitution
x = tp + t^2 * (end - tp), which removes the square-root endpoint singularity
exactly: each vanishing factor is t * sqrt(end - tp) on the continued sheet.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .potential import CubicPotential, turning_points

_GAUSS_N = 20
_HOP = 0.05            # the period arc hops a third root within _HOP |chord| of the midpoint
_MAX_COARSE = 2**15    # node cap of the period rule (reached only by nearly double roots)
_ROUNDING = 64 * sys.float_info.epsilon   # rounding floor of the period rule's est_error


def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """(node, weight) of the n-point Gauss-Legendre rule on [-1, 1], n even,
    by Newton on P_n from cos(pi (k - 1/4) / (n + 1/2)); the nodes come in
    exact pairs -+x.  P_n and P_n' come from the three-term recurrence."""
    half = []
    for k in range(1, n // 2 + 1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return [(-x, w) for x, w in half] + [(x, w) for x, w in reversed(half)]


# one panel: the nodes of both rules, each with its weight in the 2N-node rule
# and in the N-node rule (0.0 in the rule it does not belong to)
_PANEL = tuple([(x, w, 0.0) for x, w in _gauss_legendre(2 * _GAUSS_N)]
               + [(x, 0.0, w) for x, w in _gauss_legendre(_GAUSS_N)])


class ClearanceError(ValueError):
    """Path passes closer to a turning point than the configured clearance."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class ActionValue:
    value: complex
    est_error: float


@dataclass(frozen=True)
class CyclePeriod:
    value: complex
    est_error: float
    gradient: tuple[complex, complex]   # (dP/da, dP/db)


def _seg_min_dist(a: complex, b: complex, r: complex) -> float:
    """Distance from point r to the segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(r - a)
    t = ((r - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d - r)


def _clearance(tps, clearance):
    """The clearance of a path from the turning points: clearance, or by
    default 1e-3 times the root separation (the scale, at least 1, for a
    single root)."""
    if clearance is not None:
        return clearance
    sep = tps.separation if len(tps.roots) > 1 else max(tps.scale, 1.0)
    return 1e-3 * max(sep, 1e-12)


def _split_points(a: complex, b: complex, roots, skip=(), clearance=0.0) -> list[complex]:
    """Waypoints along [a, b] so each piece is shorter than half its distance
    to every root not in skip (keeps per-factor continuation unambiguous).
    Raises ClearanceError when [a, b] itself passes within clearance of a
    root not in skip.

    The distance to each root is _seg_min_dist's arithmetic, written out in
    the same order."""
    kept = [r for i, r in enumerate(roots) if i not in skip]
    out: list[tuple[complex, complex]] = []
    stack = [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        d = v - u
        length = abs(d)
        L2 = length**2
        dc = d.conjugate()
        dmin = math.inf
        for r in kept:
            if L2 == 0:
                dist = abs(r - u)
            else:
                t = ((r - u) * dc).real / L2
                if not t > 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                dist = abs(u + t * d - r)
            if dist < dmin:
                dmin = dist
        if depth == 0 and dmin < clearance:
            raise ClearanceError(
                f"segment [{a}, {b}] passes within {clearance:.3g} of a turning point"
            )
        if length <= 0.5 * dmin or depth > 48 or v == u:
            out.append((u, v))
        else:
            mid = 0.5 * (u + v)
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))
    out.sort(key=lambda seg: abs(seg[0] - a))
    return [s[0] for s in out] + [b]


def _gauss_panel(f, a, b):
    """Panel integral of f by the 2N-node Gauss rule and its error estimate,
    the distance to the N-node rule, both summed in one pass over _PANEL."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    i2 = i1 = 0.0
    for x, w2, w1 in _PANEL:
        y = f(mid + half * x)
        i2 += w2 * y
        i1 += w1 * y
    return half * i2, abs(half * (i2 - i1))


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
    vals = sqrt(x0 - r).

    sqrt(x - r) = sqrt(x0 - r) sqrt((x - r) / (x0 - r)) with the principal
    root of the ratio.  That is the continuation while |x - x0| <= |x0 - r| / 2,
    where the ratio stays in the disk |w - 1| <= 1/2, clear of the principal
    cut: true on every piece of _split_points, for every root it does not skip.
    """
    return [v * cmath.sqrt((x - r) / (x0 - r)) for v, r in zip(vals, roots)]


def _integrate_regular(roots, vals, pieces, tol):
    """(int sqrt(V) dx along the regular segment [a, b], its error, vals at b),
    from its _split_points pieces = [a, ..., b].

    vals holds the factors sqrt(a - r) of the sheet; on each piece they are
    continued from its start to every node.
    """
    total = 0.0 + 0.0j
    err = 0.0
    for u, v in zip(pieces[:-1], pieces[1:]):
        if u == v:
            continue

        def f(s):
            return 2.0 * math.prod(_continue(vals, u, u + s * (v - u), roots)) * (v - u)

        val, e = _adaptive(f, 0.0, 1.0, tol)
        total += val
        err += e
        vals = _continue(vals, u, v, roots)
    return total, err, vals


def _vanishing_set(roots, tp, scale):
    """Flat indices of all root copies sitting at the turning point tp."""
    return [i for i, r in enumerate(roots) if abs(r - tp) <= 1e-9 * max(scale, 1e-12)]


def _integrate_tp_leg(roots, vanish, lam_pts, vals_b, tol):
    """(int sqrt(V) dx from the turning point tp to the regular point b, its
    error) on the sheet of the factors vals_b = sqrt(b - r) at b, from the
    _split_points lam_pts = [tp, ..., b] that skip the vanishing roots.

    The leg is x = tp + t^2 (b - tp), t in [0, 1], and dx = 2 t (b - tp) dt.
    Each factor vanishing at tp (the indices vanish) is exactly
    t sqrt(b - tp) there, so the integrand is regular at t = 0.  The other
    factors are continued from b back to each piece boundary, then from there
    over the piece's nodes.
    """
    tp = lam_pts[0]
    d = lam_pts[-1] - tp
    others = [i for i in range(len(roots)) if i not in vanish]
    rest = [roots[i] for i in others]
    van = math.prod(vals_b[i] for i in vanish)
    nv = len(vanish)
    t_bounds = [math.sqrt(abs(l - tp) / abs(d)) if d != 0 else 0.0 for l in lam_pts]
    t_bounds[0], t_bounds[-1] = 0.0, 1.0
    xs = [tp + t**2 * d for t in t_bounds]
    states = [[vals_b[i] for i in others]]
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
            reg = math.prod(_continue(states[k], xs[k], tp + t**2 * d, rest))
            return 2.0 * t**nv * van * reg * 2.0 * t * d

        val, e = _adaptive(f, t0, t1, tol)
        total += val
        err += e
    return total, err


def line_action(
    p: CubicPotential,
    nodes,
    branch_seed: complex,
    tol: float = 1e-11,
    clearance: float | None = None,
) -> ActionValue:
    """Integral of sqrt(V) along the polyline through nodes, on the sheet
    fixed by branch_seed.

    branch_seed approximates sqrt(V) at the first node (the nearer of the two
    roots of V is taken), or at the second node when the first is a turning
    point.  Every segment keeps clearance (by default 1e-3 times the root
    separation) from all turning points, and the path is refused with
    ClearanceError before any segment is integrated; the first or last node
    may coincide with a simple turning point (endpoint-adapted rule).
    """
    tps = turning_points(p)
    roots = tps.all_with_repeats
    scale = max(tps.scale, 1.0)
    clr = _clearance(tps, clearance)

    nodes = [complex(z) for z in nodes]
    if len(nodes) < 2:
        raise ValueError("path needs at least two nodes")
    van0 = _vanishing_set(roots, nodes[0], scale)
    vanN = _vanishing_set(roots, nodes[-1], scale)
    if van0 and len(nodes) == 2 and vanN:
        raise ClearanceError("a two-node path cannot join two turning points")

    # every segment is split, and so checked, before any is integrated; a
    # turning-point leg is split from its turning point, skipping its roots
    last = len(nodes) - 1
    ends = [(nodes[k], nodes[k + 1], []) for k in range(last)]
    if van0:
        ends[0] = (nodes[0], nodes[1], van0)
    if vanN:
        ends[-1] = (nodes[last], nodes[last - 1], vanN)
    legs = [(skip, _split_points(a, b, roots, skip, clr)) for a, b, skip in ends]

    ref = nodes[1] if van0 else nodes[0]
    vals = [cmath.sqrt(ref - r) for r in roots]
    if branch_seed == 0:
        raise ValueError("branch_seed must be a nonzero sqrt(V) approximation")
    w_ref = 2.0 * vals[0] * vals[1] * vals[2]
    eta = -1.0 if abs(branch_seed + w_ref) < abs(branch_seed - w_ref) else 1.0

    total = 0.0 + 0.0j
    err = 0.0
    for k, (vanish, pts) in enumerate(legs):
        if not vanish:
            val, e, vals = _integrate_regular(roots, vals, pts, tol)
        else:
            val, e = _integrate_tp_leg(roots, vanish, pts, vals, tol)
            if k == last - 1 and vanN:
                val = -val  # the end leg runs tp -> u
        total += val
        err += e
    return ActionValue(value=eta * total, est_error=err)


def _turning_point_pair(tps, from_tp, to_tp):
    """(roots, i, j): the entries of the roots of V (the solved tps)
    at two distinct simple turning points, snapped to the nearest root."""
    roots = tps.all_with_repeats
    scale = max(tps.scale, 1e-12)
    di = [abs(from_tp - r) for r in roots]
    dj = [abs(to_tp - r) for r in roots]
    i, j = min(range(len(roots)), key=di.__getitem__), min(range(len(roots)), key=dj.__getitem__)
    if di[i] > 1e-6 * scale or dj[j] > 1e-6 * scale:
        raise ValueError("endpoints must be turning points of the potential")
    if i == j:
        raise ValueError("both endpoints snap to the same turning point")
    mult = [m for m in tps.multiplicities for _ in range(m)]  # per entry of roots
    if mult[i] != 1 or mult[j] != 1:
        raise ValueError("endpoints must be simple turning points")
    return roots, i, j


def _bernstein(s):
    """Parameter rho >= 1 of the Bernstein ellipse (foci -1, 1) through s."""
    r = abs(s + cmath.sqrt(s - 1) * cmath.sqrt(s + 1))
    return max(r, 1.0 / r)


def _arc_rho(w, beta: float) -> float:
    """Bernstein parameter of the nearest singularity of the arc integrand.

    w = (e_k - m) / h is the third root in chord coordinates; its preimages
    under s -> s + i beta (1 - s^2), and for beta != 0 the zeros -+1 - i/beta
    of 1 - 2 i beta s + beta^2 (1 - s^2), are the singularities in s.
    """
    if beta == 0.0:
        return _bernstein(w)
    disc = cmath.sqrt(1 - 4 * beta**2 - 4j * beta * w)
    sing = ((1 + disc) / (2j * beta), (1 - disc) / (2j * beta), 1 - 1j / beta, -1 - 1j / beta)
    return min(_bernstein(z) for z in sing)


def _chord_period(p, roots, i, j, tol):
    """(P, dP/da, dP/db, errors) of the action P from roots[i] to roots[j].

    One Gauss-Chebyshev sum on the arc x(s) = m + h (s + i beta (1 - s^2))
    (see the module docstring) gives I0 = int dx/sqrt(V) and
    I1 = int x dx/sqrt(V); then dP/da = -I1, dP/db = -14 I0 and P follows
    from Euler's identity.  errors holds the estimated errors of dP/da, dP/db
    and P, in that order.
    """
    e_i, e_j, e_k = roots[i], roots[j], roots[3 - i - j]
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
    need = math.log(1.0 / tol) / (2.0 * max(math.log(rho), 1e-300))
    n_coarse = min(max(math.ceil(need), 8), _MAX_COARSE)
    n = 3 * n_coarse

    x0 = m + 1j * beta * h
    # sqrt(x0 - r) for the three roots r, on the sheet of ref
    fac = [cmath.sqrt(ref - e) * cmath.sqrt((x0 - e) / (ref - e)) for e in (e_i, e_j, e_k)]
    c = h * math.sqrt(1 + beta**2) / (2 * fac[0] * fac[1] * fac[2])
    # the sums of f0 and f1 over all nodes (s), over the M nodes (t), and of
    # their moduli (r); node k is one of the M when k = 1 mod 3
    s0 = s1 = t0 = t1 = 0j
    r0 = r1 = 0.0
    for k in range(n):
        sk = math.cos((2 * k + 1) * math.pi / (2 * n))
        x = m + h * (sk + 1j * beta * (1 - sk * sk))
        q = 1 - 2j * beta * sk + beta**2 * (1 - sk * sk)
        f0 = c * (1 - 2j * beta * sk) / (cmath.sqrt(q) * cmath.sqrt((x - e_k) / (x0 - e_k)))
        f1 = x * f0
        s0 += f0
        s1 += f1
        r0 += abs(f0)
        r1 += abs(f1)
        if k % 3 == 1:
            t0 += f0
            t1 += f1
    i0, i1 = math.pi / n * s0, math.pi / n * s1
    trunc0 = abs(i0 - math.pi / n_coarse * t0)
    trunc1 = abs(i1 - math.pi / n_coarse * t1)
    if max(trunc0, trunc1) > 1e4 * tol:
        raise QuadratureError(f"period rule stalled at error {max(trunc0, trunc1):.3g}")
    err0 = trunc0 + _ROUNDING * math.pi / n * r0
    err1 = trunc1 + _ROUNDING * math.pi / n * r1
    value = -(4 * p.a * i1 + 84 * p.b * i0) / 5
    err_value = (4 * abs(p.a) * err1 + 84 * abs(p.b) * err0) / 5
    return value, -i1, -14 * i0, (err1, 14 * err0, err_value)


def _orient_sign(value: complex, cycle_id: str) -> float:
    """CONVENTION: Im(period) > 0 on a1 and < 0 on a-1 (ties, Im at the
    rounding level of the value, broken by Re > 0)."""
    want_positive = cycle_id == "a1"
    if abs(value.imag) > 1e-13 * abs(value):
        return 1.0 if (value.imag > 0) == want_positive else -1.0
    return 1.0 if value.real >= 0 else -1.0


def _pair_actions(p: CubicPotential, roots, tol: float) -> dict[tuple[int, int], complex]:
    """The turning-point action A of each pair (i, j), i < j, of the three
    simple roots of p (by the period rule)."""
    return {(i, j): _chord_period(p, roots, i, j, tol)[0]
            for i in range(3) for j in range(i + 1, 3)}


def _pair_scores(p: CubicPotential, roots, tol: float) -> dict[tuple[int, int], float]:
    """|Re A| / |A| of the turning-point action A of each pair (i, j), i < j,
    of the three simple roots of p (by the period rule)."""
    return {pair: abs(v.real) / max(abs(v), 1e-300)
            for pair, v in _pair_actions(p, roots, tol).items()}


def _labels_around(roots, i0: int) -> dict[str, complex]:
    """tp0 = roots[i0]; tp1 and tp-1 are the other two, tp1 of larger Im."""
    ra, rb = (roots[k] for k in range(3) if k != i0)
    if ra.imag < rb.imag:
        ra, rb = rb, ra
    return {"tp0": roots[i0], "tp1": ra, "tp-1": rb}


def label_turning_points_by_periods(p: CubicPotential) -> dict[str, complex]:
    """Label three simple turning points tp0 / tp1 / tp-1 for the two cycles.

    tp0 is the root whose two pairwise actions (by the period rule at
    tolerance 1e-8) are closest to purely imaginary (the quantizing
    geometry); tp1 is the remaining root of larger imaginary part.  For real
    potentials with a single real root this yields tp0 = real root and tp1
    in the upper half plane.
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
            return _labels_around(r, min(range(3), key=lambda k: abs(r[k].imag)))

    # otherwise pick the root whose worse pairwise action is closest to
    # purely imaginary (at quantizing potentials both of its pairs are)
    score = _pair_scores(p, r, 1e-8)
    worst = [max(s for pair, s in score.items() if i in pair) for i in range(3)]
    return _labels_around(r, min(range(3), key=worst.__getitem__))


def cycle_period(
    p: CubicPotential,
    cycle_id: str,
    labels: dict[str, complex],
    tol: float = 1e-11,
) -> CyclePeriod:
    """Period over cycle a1 (around tp0, tp1) or a-1 (around tp0, tp-1).

    Normalized so that quantizing potentials sit exactly at i*pi*(n - 1/2)
    on a1 and -i*pi*(m - 1/2) on a-1: the value is the integral of sqrt(V)
    between the two encircled turning points (the period rule of the module
    docstring) with the orientation fixed by the sign of its imaginary part.
    The gradient dP/da = -int lam / sqrt(V) dlam, dP/db = -14 int dlam /
    sqrt(V) comes from the same sum, on the same path, sheet and orientation
    (endpoint motion drops out since sqrt(V) vanishes there); est_error is
    the largest error over the three.  The labels tp0, tp1, tp-1 come from
    label_turning_points_by_periods or a classified graph's tp_labels; each
    is snapped to the nearest turning point of p, and ValueError is raised
    when the two labels of the cycle snap to the same one.
    """
    if cycle_id not in ("a1", "a-1"):
        raise ValueError("cycle_id must be 'a1' or 'a-1'")
    lam0 = labels["tp0"]
    lam = labels["tp1"] if cycle_id == "a1" else labels["tp-1"]
    roots, i, j = _turning_point_pair(turning_points(p), lam0, lam)
    value, da, db, errs = _chord_period(p, roots, i, j, tol)
    s = _orient_sign(value, cycle_id)
    return CyclePeriod(value=s * value, est_error=max(errs), gradient=(s * da, s * db))


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
    t = ((bad - a) * d.conjugate()).real / abs(d) ** 2
    foot = a + t * d
    # 2.5 clearance from the root, across the chord from it (to the chord's
    # left when the root lies on it)
    away = foot - bad
    if abs(away) < 1e-14 * abs(d):
        away = 1j * d
    mid = bad + 2.5 * clearance * away / abs(away)
    return (
        safe_nodes(a, mid, roots, clearance, depth + 1)[:-1]
        + safe_nodes(mid, b, roots, clearance, depth + 1)
    )


def alpha_at(p: CubicPotential, z):
    """|alpha| at the point z,
    alpha = (4 V V'' - 5 V'^2) / (32 V^{5/2}); sheet-free.

    V, V' and V'' are written out with the operations of CubicPotential's
    methods: the quadrature calls this once per node."""
    a2 = 2 * p.a
    z2 = z * z
    V = 4 * z2 * z - a2 * z - 28 * p.b
    d1 = 12 * z2 - a2
    return abs(4 * V * (24 * z) - 5 * (d1 * d1)) / (32.0 * abs(V) ** 2.5)


def alpha_integral(p: CubicPotential, nodes, clearance: float | None = None) -> float:
    """int |alpha(lam) dlam| along the polyline through nodes, the WKB
    relative-error density, to tolerance 1e-11.

    |alpha| does not depend on the square-root sheet, so the path needs
    none.  Every segment keeps clearance (by default 1e-3 times the root
    separation) from all turning points.
    """
    tps = turning_points(p)
    roots = tps.all_with_repeats
    clr = _clearance(tps, clearance)
    nodes = [complex(z) for z in nodes]
    # every segment is split, and so checked, before any is integrated
    splits = [_split_points(u, v, roots, clearance=clr) for u, v in zip(nodes[:-1], nodes[1:])]
    total = 0.0
    for pts in splits:
        for s0, s1 in zip(pts[:-1], pts[1:]):
            if s0 == s1:
                continue
            seg = s1 - s0
            length = abs(seg)

            def f(ts):
                return alpha_at(p, s0 + ts * seg) * length

            val, _ = _adaptive(f, 0.0, 1.0, 1e-11)
            total += val
    return total


def alpha_ray_tail(p: CubicPotential, start: complex) -> float:
    """int_start^inf |alpha| |dlam| along the outward ray through start, to
    tolerance 1e-12.

    Integrated over s in (0, 1] after the substitution r = R / s^2: alpha
    decays like r^{-7/2}, so the integrand vanishes like s^4 at s = 0 (the
    Gauss nodes never reach it).
    """
    R = abs(start)
    if R == 0:
        raise ValueError("tail ray must start away from the origin")
    u = start / R

    def f(ss):
        return alpha_at(p, (R / ss**2) * u) * (2.0 * R / ss**3)

    val, _ = _adaptive(f, 0.0, 1.0, 1e-12)
    return val

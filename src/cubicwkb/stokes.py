"""Stokes-line tracing, the decorated complex, and its topological class.

Stokes lines are level curves of Re S emanating from turning points (3/4/5
lines for simple/double/triple points).  Each traced line ends either at
another turning point or escapes along one of the five asymptotic rays
arg x = (2k+1) pi / 5.  The resulting decorated graph falls into one of the
seven classes 300, 310, 311, 320, 100, 110, 000 (modulo a Z5 shift of the
ray decoration); the class is recognized from the sector-connectivity
relation, which also yields the shift and the turning-point labels used by
the quantization machinery.

The complex is a forest whose trees all reach infinity, so its faces, the
half-planes and strips of Strebel, Quadratic Differentials (1984), ch. III,
are fixed by the counterclockwise order of the lines at infinity
(_order_at_infinity): the relation is read off that order by the gap rule
of _compute_relation, with no planar embedding of the graph.

Lines are traced by predictor-corrector continuation of their level set
(see _trace_one): the level change along each predictor chord is summed by
Simpson's rule, so the step can be a fifth of the local cap.  Only the
middle of a line is stepped.  Near a turning point and near the rays the
complex is fixed by the local form of S, so each line starts on its level
set at a tenth of the distance to the nearest other root, with the action
from the convergent series of sqrt(V) about its turning point
(_local_series), and an external line is stepped only until it passes
|x| = 2 (1 + scale): it ends at its exact crossing of the end radius, with
the action from the convergent series of S at infinity (_far_crossing).
Inside the disc of a tenth of the nearest-root distance about another
turning point t, the level set is t's own local arcs, so a line is decided
where it first enters that disc: it ends at t when its level offset from
those arcs, from t's series, is below what the series reaches at the trap
radius (_reaches), and steps on otherwise.  A line that ends at t is traced
from one end only: the level curve read from t is the same set of points,
so t's line in the direction of arrival is the reversed polyline
(trace_stokes_lines).  Lines that end at one ray are ordered by their
angular deviation from it at that common end radius: the deviation decays
like r^{-5/2}, so values read at different radii cannot be compared, and
level lines do not cross, so one radius orders them as well as any other.
A wall where a line crosses a smaller circle is read on its level set
(_crossing), not on a chord between its polyline points.
"""

from __future__ import annotations

import cmath
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .action import _labels_around, _pair_scores, line_action
from .potential import CubicPotential, TurningPointSet, turning_points

PHI = [(2 * k + 1) * np.pi / 5 for k in range(-2, 3)]  # ray angles, k = -2..2


class ClassificationError(RuntimeError):
    """Tracing or graph assembly failed in a way that prevents classification."""


class AmbiguousClassError(ClassificationError):
    """The traced graph sits numerically on a class boundary."""


# tracing constants; launch and trap radii are in units of the root separation
# (a line that would pass within the trap radius of a root ends there)
_WEDGE_TOL = np.pi / 20
_TRAP_FACTOR = 1e-4
_LAUNCH_FACTOR = 1e-2
_START_FACTOR = 0.1                 # start radius, in units of the nearest other root
_MAX_STEPS = 60000
_FAR_FACTOR = 2.0                   # lines are stepped out to here, in units of 1 + scale
_R_FACTOR = 10.0                    # external lines end here, likewise
# terms of the series of S: at a turning point (summed within a tenth of the
# nearest other root), at infinity past the far radius (ratio below 1/2) and
# on the end radius (ratio below 1/10)
_LOCAL_TERMS = 18
_FAR_TERMS = 60
_END_TERMS = 18
# Newton steps on the angle of a start, end or wall point: they reach
# rounding in three or four, and where two roots nearly meet, so that V is
# evaluated with cancellation, they stop at its noise
_NEWTON_TRIES = 6


@dataclass(frozen=True)
class StokesLine:
    origin: int                     # internal vertex index
    direction_index: int
    points: np.ndarray              # complex polyline
    terminal: tuple[str, int]       # ("tp", vertex) or ("ray", k in -2..2)


@dataclass(frozen=True)
class SectorRelation:
    """Boolean 5x5 matrix of the sector-connectivity relation, k = -2..2."""

    matrix: np.ndarray

    def related(self, j: int, k: int) -> bool:
        return bool(self.matrix[(j + 2) % 5, (k + 2) % 5])


@dataclass(frozen=True)
class StokesComplexGraph:
    """The classified Stokes complex of a potential.

    The potential it was traced from is the one source of V and of the
    turning points: tps is potential.turning_points, and vertex i of the
    lines and edges is tps.roots[i], of multiplicity tps.multiplicities[i].
    """

    potential: CubicPotential
    lines: tuple[StokesLine, ...]
    internal_edges: tuple[tuple[int, int], ...]
    external_edges: tuple[tuple[int, int], ...]   # (vertex, ray k)
    class_code: str
    decoration_shift: int
    tp_labels: dict[str, complex]
    relation: SectorRelation
    corridors: dict[tuple[int, int], tuple] = field(default_factory=dict, repr=False)

    @property
    def tps(self) -> TurningPointSet:
        """The turning points of the potential, solved once for it."""
        return self.potential.turning_points

    def wall_point(self, wall, radius: float) -> complex:
        """A point on a wall of the complex: the midpoint of an internal edge,
        or where an external line crosses |x| = radius, which must lie
        between its turning point and the far radius (_crossing)."""
        if wall[0] == "int":
            v = self.tps.roots
            return 0.5 * (v[wall[1]] + v[wall[2]])
        return _crossing(self.lines[wall[1]], radius, self.potential)


# canonical non-consecutive pairs failing the relation, per class (labels -2..2)
_CANONICAL_FAIL = {
    "300": (),
    "310": ((0, 2), (0, -2)),
    "311": ((1, -1),),
    "320": ((1, -1), (1, -2), (-1, 2)),
    "100": ((1, -1), (0, -2), (0, 2)),
    "110": ((0, 2), (0, -2), (1, -2), (-1, 2)),
    "000": ((0, 2), (1, -2), (2, -1), (-2, 0), (-1, 1)),
}

# external-vertex valences for classes whose fail-set does not pin the shift
_CANONICAL_VALENCE = {
    "300": {-2: 1, -1: 2, 0: 2, 1: 1, 2: 3},
    "000": {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1},
}


def _launch_radius(tps: TurningPointSet) -> float:
    """The launch radius: a multiple _LAUNCH_FACTOR of the root separation,
    floored at 1e-3 scale.  A line starts there only when it exceeds a tenth
    of the distance to the nearest other root (_trace_one); it also sets the
    tracer's step floor and its return distance, and roots closer
    than it are refused by classify."""
    scale = max(tps.scale, 1.0)
    if len(tps.roots) == 1:
        return _LAUNCH_FACTOR * scale
    return _LAUNCH_FACTOR * max(tps.separation, 1e-3 * scale)


def _wrap(x: float) -> float:
    return (x + np.pi) % (2 * np.pi) - np.pi


def _launch_directions(
    p: CubicPotential, tp: complex, mult: int, anti: bool = False
) -> list[float]:
    """Local Stokes (or anti-Stokes) directions at a turning point.

    Near the point, S ~ sqrt(c) (x - tp)^{(mult+2)/2}; Stokes directions
    solve Re S = 0, anti-Stokes directions Im S = 0.
    """
    derivs = {1: p.d1, 2: p.d2, 3: lambda z: 24.0}
    fact = {1: 1.0, 2: 2.0, 3: 6.0}
    c = complex(derivs[mult](tp)) / fact[mult]
    gamma = 0.5 * np.angle(c)
    q = (mult + 2) / 2.0
    off = 0.0 if anti else np.pi / 2
    return [float((off + j * np.pi - gamma) / q) for j in range(mult + 2)]


def _sqrt_continue(V: complex, prev: complex) -> complex:
    """The square root of V nearer to prev (_trace_one inlines this test)."""
    w = cmath.sqrt(V)
    return -w if abs(w + prev) < abs(w - prev) else w


# the factors (1 - 2k, 4 - 2k, 7 - 2k) / (2 (k+1)) of _sqrt_series
_SERIES_FACTORS = tuple(((1 - 2 * k) / (2 * k + 2), (4 - 2 * k) / (2 * k + 2),
                         (7 - 2 * k) / (2 * k + 2)) for k in range(_FAR_TERMS))


def _sqrt_series(c1: complex, c2: complex, c3: complex, n: int) -> list[complex]:
    """The first n Taylor coefficients f_k of sqrt(g), g = 1 + c1 y + c2 y^2
    + c3 y^3.  From 2 g f' = g' f,
        2 (k+1) f_{k+1} = (1 - 2k) c1 f_k + (4 - 2k) c2 f_{k-1}
                          + (7 - 2k) c3 f_{k-2}.
    """
    fm2, fm1, f = 0j, 0j, 1.0 + 0j      # f_{k-2}, f_{k-1}, f_k from k = 0
    out = [f]
    for A, B, C in _SERIES_FACTORS[: n - 1]:
        fm2, fm1, f = fm1, f, A * c1 * f + B * c2 * fm1 + C * c3 * fm2
        out.append(f)
    return out


def _horner2(series, y):
    """(sum f_k y^k, sum g_k y^k) for series = [(f_k, g_k)], highest k first."""
    F = G = 0j
    for f, g in series:
        F = F * y + f
        G = G * y + g
    return F, G


def _local_series(tps: TurningPointSet, i: int):
    """The series of the action about turning point i, for _local_action.

    With t = tps.roots[i] of multiplicity m and zeta = z - t, the factored
    V = 4 prod (z - r) is c zeta^m g(zeta), g the product of 1 + zeta/(t - r)
    over the other roots r (with repeats), so sqrt(V) = sqrt(c) zeta^{m/2}
    F(zeta) with F = sqrt(g) (_sqrt_series: one recurrence for m = 1, 2, 3).
    Its integral from t is sqrt(c) zeta^{m/2 + 1} G(zeta), G_k = F_k /
    (k + m/2 + 1).  The series converges within the nearest other root.
    """
    t = complex(tps.roots[i])
    g = [1.0 + 0j, 0j, 0j, 0j]
    for j, (r, m) in enumerate(zip(tps.roots, tps.multiplicities)):
        if j != i:
            for _ in range(m):
                e = 1.0 / (t - complex(r))
                g = [g[0], g[1] + e * g[0], g[2] + e * g[1], g[3] + e * g[2]]
    q = 0.5 * tps.multiplicities[i] + 1.0
    F = _sqrt_series(g[1], g[2], g[3], _LOCAL_TERMS)
    return [(f, f / (k + q)) for k, f in enumerate(F)][::-1]


def _local_action(series, zeta: complex, w: complex) -> complex:
    """int sqrt(V) from a turning point t to z = t + zeta by its local
    series (_local_series), on the sheet of w = sqrt(V(z)): the ratio of the
    two sums is free of the branch of zeta^{m/2}, so S = w zeta G / F."""
    F, G = _horner2(series, zeta)
    return w * zeta * G / F


def _reaches(series, zeta, w, level, u, r_trap, q):
    """Whether a level line that enters the disc of a turning point t at
    z = t + zeta ends at t, for _trace_one.

    level is Re(u S) at z from the line's own turning point (the tracer's
    drift), and w = sqrt(V(z)) on the line's sheet.  Within the disc the
    level set is t's own local arcs: the line runs at the level offset
    delta = level - Re(u S_t(z)) from them, S_t the action from t by its
    local series (_local_action), and |u S_t| grows like |zeta|^q,
    q = m/2 + 1.  The line ends at t when that offset is at most the level
    that the series reaches at |zeta| = r_trap, |S_t(z)| (r_trap/|zeta|)^q
    to leading order: a line stepped on would pass within r_trap of t.
    """
    s = u * _local_action(series, zeta, w)
    return abs(level - s.real) <= abs(s) * (r_trap / abs(zeta)) ** q


def _far_series(p: CubicPotential):
    """The series of the action at infinity, for _far_crossing.

    sqrt(V) = 2 x^{3/2} E(1/x) with E = sqrt(1 - (a/2) y^2 - 7 b y^3)
    (_sqrt_series), which converges for |x| > scale.  Integrated term by term
    (5/2 - k never vanishes, so there is no logarithm), S = 2 x^{5/2} H(1/x)
    up to a constant, H_k = E_k / (5/2 - k).
    """
    E = _sqrt_series(0j, -0.5 * complex(p.a), -7.0 * complex(p.b), _FAR_TERMS)
    return [(e, e / (2.5 - k)) for k, e in enumerate(E)][::-1]


def _far_crossing(far, z, w, level, u, radius, rays):
    """Where the level line Re(u S) = 0 of a turning point, which passes z,
    crosses the end radius |x| = radius, for |z| >= 2 (1 + scale); level is
    Re(u S) at z (the tracer's drift), and w = sqrt(V(z)) on the line's
    sheet.

    Newton on the angle of x = radius e^{i psi} zeroes the level at x, with S
    from the series at infinity (_far_series): sqrt(V) continues from z to x
    as w (x/z)^{3/2} E(1/x) / E(1/z), so S(x) = A (x/z)^{3/2} x H(1/x) with
    A = w / E(1/z).  The start is the angle of z moved toward the nearest ray
    by the r^{-5/2} decay of a line's deviation from its ray.
    """
    E_z, H_z = _horner2(far, 1.0 / z)
    end = far[-_END_TERMS:]
    A = w / E_z
    target = (u * A * z * H_z).real - level
    ang = cmath.phase(z)
    ray = min(rays, key=lambda f: abs(_wrap(ang - f)))
    psi = ray + _wrap(ang - ray) * (abs(z) / radius) ** 2.5
    for _ in range(_NEWTON_TRIES):
        x = radius * cmath.exp(1j * psi)
        E_x, H_x = _horner2(end, 1.0 / x)
        c = A * (x / z) ** 1.5 * x
        step = ((u * c * H_x).real - target) / (1j * u * c * E_x).real
        psi -= step
        if abs(step) < 1e-14:
            break
    return radius * cmath.exp(1j * psi)


def _trace_one(p, tps, origin, direction_index, theta, anti_stokes, rays, local, far):
    """Continue one level curve Re(u S) = const from a turning point outward.

    Only the middle of the line is stepped; both ends come from the local
    form of S (Strebel (1984), ch. III):
    - The line starts on its level set at r = 0.1 d from its turning point,
      d the distance to the nearest other root: Newton on the angle zeroes
      the action from the local series (_local_series), which converges
      there like 10^-k.  Only roots closer than about 1e-4 scale, where the
      launch radius exceeds 0.1 d, start at the launch radius instead, with
      the action from line_action.  A lone triple root starts at the far
      radius: its series is exact.
    - An external line is stepped until it first passes the far radius
      2 (1 + scale), and ends at its exact crossing of R_max = 10 (1 + scale),
      with the level from the series of S at infinity (_far_crossing).
      Level lines do not cross, so the ends keep the order of the lines at
      every radius.
    - A connection is decided once per other root t, where the line first
      enters t's disc |z - t| < 0.1 d_t, d_t the distance from t to its
      nearest other root: there the level set is t's m + 2 local arcs, and
      the line's level offset from them is exact from t's series.  When the
      offset is at most the level that the series reaches at r_trap =
      _TRAP_FACTOR separations (_reaches), the line ends at t; otherwise it
      steps on, and no later test can end it at t.  The other end of a
      connection is not traced: the same level curve read from t is the
      reversed polyline (trace_stokes_lines).

    The predictor steps h = 0.2 hcap along the unit tangent turn conj(w)/|w|,
    w = sqrt(V) already continued to z; hcap is a fifth of the distance to
    the nearest turning point, at most 0.1 (1 + |z|).  The level drift of
    the step, Re(u int w dz) along the chord, is summed by Simpson's rule,
    whose error is O(h^5) per step (a trapezoid's is O(h^3)): that level is
    what the line carries into another root's disc.  The corrector is one
    transverse Newton step onto the level set.  A step makes at most three
    square-root continuations: at the chord's midpoint, at the predicted
    point and at the corrected point.

    The loop runs on Python complex scalars, not numpy: a line takes
    hundreds of steps over at most three roots, and numpy's per-call
    overhead on such small operands cost about four times the arithmetic.
    For the same reason the loop evaluates V and continues the square root
    inline, with the operations of CubicPotential.__call__ and
    _sqrt_continue in their order, and reads the root distances and the step
    cap by comparisons: a step calls no function but cmath.sqrt, abs,
    complex.conjugate and pts.append, whose calls would otherwise cost more
    than the arithmetic they wrap.
    """
    roots = [complex(r) for r in tps.roots]
    tp = roots[origin]
    others = [r for i, r in enumerate(roots) if i != origin]
    # the other roots j, each with the radius 0.1 d_j of its disc (d_j the
    # distance to its nearest other root) and the exponent m_j/2 + 1 of its
    # series, padded with the origin to two: a repeated distance leaves the
    # nearest one unchanged, and a disc of negative radius is never entered
    discs = []
    for j, r in enumerate(roots):
        if j != origin:
            d_j = min(abs(r - s) for s in roots if s != r)
            discs.append((j, r, _START_FACTOR * d_j, 0.5 * tps.multiplicities[j] + 1.0))
    (j1, r1, rho1, q1), (j2, r2, rho2, q2) = (discs + [(origin, tp, -1.0, 0.0)] * 2)[:2]
    scale = max(tps.scale, 1.0)
    r_launch = _launch_radius(tps)
    r_trap = _TRAP_FACTOR * max(tps.separation, 1e-3 * scale) if len(roots) > 1 else 0.0
    R_far = _FAR_FACTOR * (1.0 + tps.scale)
    R_max = _R_FACTOR * (1.0 + tps.scale)
    # V(z) = 4 z**3 - a2 z - b28, as CubicPotential.__call__ evaluates it
    a2, b28 = 2 * complex(p.a), 28 * complex(p.b)
    sqrt = cmath.sqrt
    turn = 1j if not anti_stokes else 1.0
    # level function is Re(u * S): u = 1 for Stokes lines, -i for anti-Stokes
    u = 1.0 + 0.0j if not anti_stokes else -1.0j
    uc = u.conjugate()

    # a tenth of the way to the nearest other root; a lone triple root, whose
    # series is exact, starts on the far radius
    r_start = min(_START_FACTOR * min((abs(tp - r) for r in others), default=np.inf), R_far)
    if r_start >= r_launch:
        # from the local Stokes direction, corrected for the first term of
        # the series: S ~ zeta^q (1/q + F_1 zeta/(q + 1)), q = (m + 2)/2
        q = 0.5 * tps.multiplicities[origin] + 1.0
        phi = theta - (local[origin][-2][0] * r_start * cmath.exp(1j * theta)).imag / (q + 1.0)
        for _ in range(_NEWTON_TRIES):
            zeta = r_start * cmath.exp(1j * phi)
            z = tp + zeta
            w = sqrt(4 * z**3 - a2 * z - b28)
            if (turn * (w * zeta).conjugate()).real < 0:
                w = -w
            drift = (u * _local_action(local[origin], zeta, w)).real
            step = drift / (1j * u * w * zeta).real
            if abs(step) < 1e-14:
                break
            phi -= step
    else:
        # roots closer than about 1e-4 scale: start at the launch radius
        z = tp + r_launch * cmath.exp(1j * theta)
        w = sqrt(4 * z**3 - a2 * z - b28)
        if (turn * w.conjugate() * cmath.exp(-1j * theta)).real < 0:
            w = -w
        # seed the drift with the exact action from the turning point to the
        # launch point; no clearance, since the other root can sit inside
        # the launch radius
        s_launch = line_action(p, (tp, z), w, tol=1e-14, clearance=0.0).value
        drift = float((u * s_launch).real)

    pts = [tp, z]
    append = pts.append

    def line(terminal):
        return StokesLine(origin, direction_index, np.array(pts), terminal)

    d_home = 0.5 * r_launch
    h_floor, h_launch = 1e-6 * scale, 0.05 * r_launch
    for n in range(1, _MAX_STEPS + 1):
        d_o = abs(z - tp)
        d_min = d_o
        d = abs(z - r1)
        if d < d_min:
            d_min = d
        if d < rho1:
            # the first entry into a disc decides the connection, once
            rho1 = -1.0
            if _reaches(local[j1], z - r1, w, drift, u, r_trap, q1):
                append(r1)
                return line(("tp", j1))
        d = abs(z - r2)
        if d < d_min:
            d_min = d
        if d < rho2:
            rho2 = -1.0
            if _reaches(local[j2], z - r2, w, drift, u, r_trap, q2):
                append(r2)
                return line(("tp", j2))
        az = abs(z)
        if az >= R_far:
            x = _far_crossing(far, z, w, drift, u, R_max, rays)
            append(x)
            ang = cmath.phase(x)
            devs = [abs(_wrap(ang - f)) for f in rays]
            k = int(np.argmin(devs))
            if devs[k] > _WEDGE_TOL:
                return line(("unresolved", -99))
            return line(("ray", k - 2))
        if d_o < d_home and n > 10:
            # returned to its own turning point: numerically degenerate
            return line(("unresolved", -98))

        # hcap = min(max(0.2 d_min, h_floor, h_launch), 0.1 (1 + |z|))
        hcap = 0.2 * d_min
        if h_floor > hcap:
            hcap = h_floor
        if h_launch > hcap:
            hcap = h_launch
        h_far = 0.1 * (1.0 + az)
        if h_far < hcap:
            hcap = h_far
        h = 0.2 * hcap

        # predictor: tangent step, continuing the root to the chord's midpoint
        # and end; Simpson's rule on the chord gives d(level) = Re(u w dz)
        dz = h * turn * w.conjugate() / abs(w)
        zm = z + 0.5 * dz
        s = sqrt(4 * zm**3 - a2 * zm - b28)
        w_mid = -s if abs(s + w) < abs(s - w) else s
        zn = z + dz
        s = sqrt(4 * zn**3 - a2 * zn - b28)
        w_new = -s if abs(s + w_mid) < abs(s - w_mid) else s
        drift += (u * (w + 4.0 * w_mid + w_new) * dz).real / 6.0
        z, w = zn, w_new
        # corrector: transverse Newton projection back onto the level set;
        # the guard is relative to the distance from the nearest turning
        # point so the correction stays active during saddle approaches
        if drift != 0.0:
            dz = -drift * uc * w.conjugate() / abs(w) ** 2
            d_min = abs(z - tp)
            d = abs(z - r1)
            if d < d_min:
                d_min = d
            d = abs(z - r2)
            if d < d_min:
                d_min = d
            if abs(dz) < 0.3 * d_min:
                z = z + dz
                s = sqrt(4 * z**3 - a2 * z - b28)
                w = -s if abs(s + w) < abs(s - w) else s
                drift = 0.0
        append(z)
    return line(("unresolved", -97))


def trace_stokes_lines(p: CubicPotential, anti_stokes: bool = False) -> list[StokesLine]:
    """Trace all Stokes lines (anti-Stokes lines with anti_stokes=True), by
    vertex, then direction; the external ones end on |x| = _R_FACTOR
    (1 + scale).

    A line that ends at another turning point t is traced once: the same
    level curve read from t is its reversed polyline, so it is taken as the
    line of t's launch direction nearest its arrival, which is not traced.
    When that direction was already traced elsewhere, no twin is made, and
    _assemble finds the internal line traced once.
    """
    tps = turning_points(p)
    rays = [f + np.pi / 5 for f in PHI] if anti_stokes else PHI
    local = [_local_series(tps, vi) for vi in range(len(tps.roots))]
    far = _far_series(p)
    thetas = [_launch_directions(p, tp, m, anti_stokes)
              for tp, m in zip(tps.roots, tps.multiplicities)]
    lines = {}
    for vi, directions in enumerate(thetas):
        for di, theta in enumerate(directions):
            if (vi, di) in lines:
                continue
            ln = lines[vi, di] = _trace_one(p, tps, vi, di, theta, anti_stokes, rays, local, far)
            kind, j = ln.terminal
            if kind == "tp":
                arrival = cmath.phase(complex(ln.points[-2] - ln.points[-1]))
                dj = min(range(len(thetas[j])), key=lambda k: abs(_wrap(arrival - thetas[j][k])))
                lines.setdefault((j, dj), StokesLine(j, dj, ln.points[::-1].copy(), ("tp", vi)))
    return [lines[key] for key in sorted(lines)]


def _assemble(lines):
    """Deduplicate traced lines into internal edges (each a traced line and
    its reversed twin) and external edges (vertex, ray k), the latter in
    line order."""
    internal: dict[frozenset, list] = {}
    external: list[tuple[int, int]] = []
    for ln in lines:
        kind, t = ln.terminal
        if kind == "unresolved":
            raise ClassificationError(f"unresolved Stokes line from vertex {ln.origin}")
        if kind == "tp":
            if t == ln.origin:
                raise ClassificationError("Stokes line returned to its own vertex")
            internal.setdefault(frozenset((ln.origin, t)), []).append(ln)
        else:
            external.append((ln.origin, t))
    for pair, lns in internal.items():
        if len(lns) != 2:
            raise AmbiguousClassError(
                f"internal line between {sorted(pair)} traced {len(lns)} times"
            )
    # two vertices can share at most one line; a duplicate means tracing failure
    return internal, external


def _crossing(line, radius, p):
    """The point where a Stokes line of the potential p last crosses
    |x| = radius, on the line's level set.  The radius must lie below the far
    radius 2 (1 + scale), past which the polyline is one chord to its end.

    Starting from the chord interpolation, Newton on the angle of
    x = radius e^{i phi} zeroes Re int sqrt(V) from the last polyline point
    z0 inside the circle to x, summed by Simpson's rule on the chord, with V
    evaluated by p.  A chord read off a coarse polyline sags off the line by
    more than the deviations of nearly coincident lines at a ray differ.
    When the circle cuts the start disc, z0 is the turning point itself, and
    Re S at x comes from its local series (_local_action) instead.
    """
    tps = p.turning_points
    assert radius < _FAR_FACTOR * (1.0 + tps.scale), "crossing past the far radius"
    pts = line.points
    q = int(np.nonzero(np.abs(pts) <= radius)[0][-1])
    z0, d = complex(pts[q]), complex(pts[q + 1] - pts[q])
    a2, b1, c0 = abs(d) ** 2, (z0.conjugate() * d).real, abs(z0) ** 2 - radius**2
    x = z0 + d * (-b1 + (b1 * b1 - a2 * c0) ** 0.5) / a2
    if q == 0:
        # Re S vanishes on both sheets, so any square root of V will do
        series = _local_series(tps, line.origin)
        for _ in range(_NEWTON_TRIES):
            w = cmath.sqrt(p(x))
            step = _local_action(series, x - z0, w).real / (1j * w * x).real
            x *= cmath.exp(-1j * step)
            if abs(step) < 1e-14:
                break
        return x
    # the sheet of z0: the tangent i conj(w0) points along the polyline
    w0 = cmath.sqrt(p(z0))
    if (1j * (w0 * d).conjugate()).real < 0:
        w0 = -w0
    # the chord start is off by up to ~4e-7 rad; the second step is at rounding
    for _ in range(2):
        w_mid = _sqrt_continue(p(0.5 * (z0 + x)), w0)
        w_x = _sqrt_continue(p(x), w_mid)
        level = ((w0 + 4.0 * w_mid + w_x) * (x - z0)).real / 6.0
        x *= cmath.exp(-1j * level / (1j * w_x * x).real)
    return x


def _ray_deviation(line):
    """Signed angle from the ray a line ends on, k, to the line's end on
    |x| = R_max.  The lines that end on one ray are ordered by it, increasing
    from the side of sector k to that of sector k+1: level lines do not
    cross, so they keep their order at every radius, and all end on one.
    """
    return _wrap(cmath.phase(complex(line.points[-1])) - PHI[line.terminal[1] + 2])


def _order_at_infinity(lines):
    """Indices of the lines that end on a ray, in counterclockwise order at
    infinity: by ray k = -2..2, then by increasing _ray_deviation."""
    ends = [i for i, ln in enumerate(lines) if ln.terminal[0] == "ray"]
    return sorted(ends, key=lambda i: (lines[i].terminal[1], _ray_deviation(lines[i])))


def _compute_relation(internal, lines, p):
    """Sector relation and corridor walls from the order of the lines at
    infinity.

    The complex is a forest of at most two internal edges whose trees all
    reach infinity, so its faces are fixed by the cyclic order of the line
    ends.  Gap i lies between lines i and i+1 of that order.  Its face goes
    in along line i+1, round that line's tree across the internal edges on
    the tree path, and out along the tree's previous line j into gap j: that
    stretch is one boundary component, and the orbits of i -> j are the
    faces.  A gap between rays k and k+1 is sector k+1; a gap between two
    lines on one ray is the end of a band.  A corridor enters each face
    through one component and leaves it through another, so it stops at the
    sector faces, which have only one.  Walls are ("ext", line index) and
    ("int", i, j), i < j.
    """
    order = _order_at_infinity(lines)
    n = len(order)
    origin = [lines[i].origin for i in order]
    ray = [lines[i].terminal[1] for i in order]
    tree = list(range(len(p.turning_points.roots)))
    for a, b in internal:
        tree = [tree[a] if t == tree[b] else t for t in tree]

    def edge(u, v):
        return ("int", min(u, v), max(u, v))

    def path(u, v):
        # at most three vertices: a tree path has at most two edges
        if u == v:
            return []
        if frozenset((u, v)) in internal:
            return [edge(u, v)]
        w = next(w for w in range(len(tree))
                 if frozenset((u, w)) in internal and frozenset((w, v)) in internal)
        return [edge(u, w), edge(w, v)]

    # component of gap i: its walls, and the gap it leads to
    walls, nxt = [], []
    for i in range(n):
        m = (i + 1) % n
        j = next(j for j in ((m - s) % n for s in range(1, n + 1))
                 if tree[origin[j]] == tree[origin[m]])
        walls.append([("ext", order[m])] + path(origin[m], origin[j]) + [("ext", order[j])])
        nxt.append(j)
    face_of, faces = [None] * n, []
    for i in range(n):
        if face_of[i] is None:
            faces.append([])
            while face_of[i] is None:
                face_of[i] = len(faces) - 1
                faces[-1].append(i)
                i = nxt[i]
    sector_face = {(ray[i] + 3) % 5 - 2: face_of[i]
                   for i in range(n) if ray[i] != ray[(i + 1) % n]}
    sides = {}
    for c, ws in enumerate(walls):
        for key in ws:
            sides.setdefault(key, []).append(c)
    # each wall has one side in each of two faces; an internal line on more
    # stretches means its ends interleave at infinity, as when two nearly
    # coincident lines at a ray are read out of order
    if any(len(cs) != 2 for cs in sides.values()):
        raise AmbiguousClassError("the lines at infinity are in no planar order")

    def moves(face, entry):
        for c in faces[face]:
            if c != entry:
                for key in walls[c]:
                    a, b = sides[key]
                    yield key, b if a == c else a

    related = np.eye(5, dtype=bool)
    corridors = {}
    for l in range(-2, 3):
        # BFS over entry components, from sector l's face
        prev, reached = {}, {}
        queue = deque([(sector_face[l], None)])
        while queue:
            face, entry = queue.popleft()
            if entry is not None:
                for k, sf in sector_face.items():
                    if sf == face and k != l and k not in reached:
                        reached[k] = entry
            for key, c in moves(face, entry):
                if c not in prev:
                    prev[c] = (entry, key)
                    queue.append((face_of[c], c))
        for k, c in reached.items():
            related[(l + 2) % 5, (k + 2) % 5] = True
            walk = []
            while c is not None:
                c, key = prev[c]
                walk.append(key)
            corridors[(l, k)] = tuple(reversed(walk))
    return SectorRelation(matrix=related), corridors


def _match_class(n_simple, n_int, relation, ext_valence):
    """Class code and decoration shift: the (code, m) whose
    canonical_relation(code, m) is the relation, among the codes that fit
    the counts of simple points and internal lines.

    310 and 311 are the only codes that share counts, and they fail two
    pairs and one, so no relation matches both.
    """
    by_counts = {
        (3, 0): ["300"],
        (3, 1): ["310", "311"],
        (3, 2): ["320"],
        (1, 0): ["100"],
        (1, 1): ["110"],
        (0, 0): ["000"],
    }
    cands = by_counts.get((n_simple, n_int))
    if cands is None:
        raise AmbiguousClassError(
            f"no admissible class with {n_simple} simple points and "
            f"{n_int} internal lines"
        )
    matches = [(code, m) for code in cands for m in range(5)
               if np.array_equal(canonical_relation(code, m).matrix, relation.matrix)]
    if not matches:
        raise AmbiguousClassError("relation pattern matches no admissible class")
    if len(matches) == 1:
        return matches[0]
    # symmetric fail set (300, 000): disambiguate by external valences
    code = matches[0][0]
    good = [m for _, m in matches
            if all(ext_valence[(k + m + 2) % 5 - 2] == v
                   for k, v in _CANONICAL_VALENCE[code].items())]
    return code, good[0] if len(good) == 1 else 0


def classify(p: CubicPotential) -> StokesComplexGraph:
    """Trace, assemble, and classify the Stokes complex of the potential.

    Lines are traced once, to radius _R_FACTOR (1 + scale).  Roots closer
    than the launch radius (a multiple root that rounding has split) are
    refused before any tracing: launched past a neighbouring root, the lines
    mean nothing.
    """
    tps = turning_points(p)
    if 0.0 < tps.separation < _launch_radius(tps):
        raise AmbiguousClassError(
            f"turning points {tps.separation:.1e} apart, inside the launch radius"
        )
    lines = trace_stokes_lines(p)
    internal, external = _assemble(lines)

    # graph invariants
    nv = len(tps.roots)
    n_simple = sum(1 for m in tps.multiplicities if m == 1)
    n_int = len(internal)
    valency = {i: 0 for i in range(nv)}
    for pair in internal:
        for i in pair:
            valency[i] += 1
    ext_valence = {k: 0 for k in range(-2, 3)}
    for vi, k in external:
        valency[vi] += 1
        ext_valence[k] += 1
    for i, m in enumerate(tps.multiplicities):
        if valency[i] != m + 2:
            raise ClassificationError(
                f"vertex {i} multiplicity {m} has valency {valency[i]}"
            )
    if any(v == 0 for v in ext_valence.values()):
        raise AmbiguousClassError("an asymptotic ray received no Stokes line")
    # internal acyclicity: with <= 3 internal vertices a cycle needs either a
    # repeated pair (excluded by assembly) or a triangle
    if n_int >= 3:
        raise ClassificationError("internal subgraph has a cycle")

    relation, corridors = _compute_relation(internal, lines, p)
    # consecutive sectors must always be related
    for k in range(-2, 3):
        kn = k + 1 if k < 2 else -2
        if not relation.related(k, kn):
            raise ClassificationError("consecutive sectors not related: tracing defect")

    code, shift = _match_class(n_simple, n_int, relation, ext_valence)

    labels = _tp_labels(code, shift, tps, internal, external)
    return StokesComplexGraph(
        potential=p,
        lines=tuple(lines),
        internal_edges=tuple(tuple(sorted(pair)) for pair in internal),
        external_edges=tuple(external),
        class_code=code,
        decoration_shift=shift,
        tp_labels=labels,
        relation=relation,
        corridors=corridors,
    )


def _tp_labels(code, shift, tps, internal, external):
    """Turning-point labels tp0 / tp1 / tp-1.

    For 320 the labels are topological: tp0 carries both internal edges, tp1
    is the vertex decorated with rays {shift, shift+1}.  For the remaining
    classes the assignment is a documented convention: the order of
    tps.roots (by multiplicity, then real part, then imaginary part).
    """
    roots = list(tps.roots)
    if code == "320":
        deg = {i: 0 for i in range(len(roots))}
        for pair in internal:
            for i in pair:
                deg[i] += 1
        i0 = max(deg, key=lambda i: deg[i])
        if deg[i0] != 2:
            raise ClassificationError("320 graph without a double-internal vertex")
        ext_of = {i: set() for i in range(len(roots))}
        for vi, k in external:
            ext_of[vi].add(k)
        # rays of tp1 sit at canonical positions {0, 1} shifted by m
        s0 = (0 + shift + 2) % 5 - 2
        s1 = (1 + shift + 2) % 5 - 2
        rest = [i for i in range(len(roots)) if i != i0]
        tp1 = None
        for i in rest:
            if ext_of[i] == {s0, s1}:
                tp1 = i
        if tp1 is None:
            raise ClassificationError("320 decoration does not match any shift")
        tpm1 = next(i for i in rest if i != tp1)
        return {"tp0": roots[i0], "tp1": roots[tp1], "tp-1": roots[tpm1]}
    return dict(zip(["tp0", "tp1", "tp-1"], roots))


def canonical_relation(class_code: str, shift: int = 0) -> SectorRelation:
    """The tabulated relation for a class, with the decoration shift applied:
    every pair holds except the failing pairs of the table, each label moved
    by the shift."""
    mat = np.ones((5, 5), dtype=bool)
    for j, k in _CANONICAL_FAIL[class_code]:
        j, k = (j + shift + 2) % 5, (k + shift + 2) % 5
        mat[j, k] = mat[k, j] = False
    return SectorRelation(matrix=mat)


@dataclass(frozen=True)
class PeriodClassGuess:
    family: str                 # "300", "31x", "320", or "indeterminate"
    labels: dict[str, complex] | None

    def consistent_with(self, class_code: str) -> bool:
        table = {
            "300": {"300"},
            "31x": {"310", "311"},
            "320": {"320"},
            "indeterminate": {"300", "310", "311"},
        }
        return class_code in table[self.family]


def classify_by_periods(p: CubicPotential) -> PeriodClassGuess:
    """Fast class guess from Re of the three pairwise turning-point actions.

    A pair's action A counts as purely imaginary when |Re A| / |A| < 1e-7,
    and as not when it is > 1e-4.  A quantizing-type graph has one root
    whose both pairwise actions are purely imaginary; a single vanishing
    pair indicates one internal line; none indicates the edgeless class.
    For a real potential the action of a complex-conjugate root pair can
    have vanishing real part by symmetry alone, without the pair being
    connected: if that is the only vanishing pair the sign data cannot
    decide between the edgeless and one-edge classes and the guess is
    "indeterminate".  Raises AmbiguousClassError inside the tolerance band.
    """
    tps = turning_points(p)
    if tuple(tps.multiplicities) != (1, 1, 1):
        raise ValueError("classify_by_periods requires three simple turning points")
    r = list(tps.roots)
    scale = max(tps.scale, 1e-12)
    zero_pairs = []
    for (i, j), score in _pair_scores(p, r, 1e-10).items():
        if score < 1e-7:
            zero_pairs.append((i, j))
        elif not score > 1e-4:
            raise AmbiguousClassError(
                f"pair ({i},{j}) action Re-score {score:.2e} in tolerance band"
            )
    common = [i for i in range(3) if sum(i in pair for pair in zero_pairs) >= 2]
    if common:
        return PeriodClassGuess(family="320", labels=_labels_around(r, common[0]))
    if len(zero_pairs) == 1:
        if p.is_real(1e-12 * max(1.0, abs(p.a), abs(p.b))):
            i, j = zero_pairs[0]
            if abs(r[i] - np.conj(r[j])) < 1e-8 * scale:
                return PeriodClassGuess(family="indeterminate", labels=None)
        return PeriodClassGuess(family="31x", labels=None)
    if len(zero_pairs) == 0:
        return PeriodClassGuess(family="300", labels=None)
    raise AmbiguousClassError("inconsistent zero-pair pattern")

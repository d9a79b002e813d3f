"""Stokes-line tracing, the decorated complex, and its topological class.

Stokes lines are level curves of Re S emanating from turning points (3/4/5
lines for simple/double/triple points).  Each traced line ends either at
another turning point or escapes along one of the five asymptotic rays
arg x = (2k+1) pi / 5.  The resulting decorated graph falls into one of the
seven classes 300, 310, 311, 320, 100, 110, 000 (modulo a Z5 shift of the
ray decoration); the class is recognized from the sector-connectivity
relation computed from the embedded graph, which also yields the shift and
the turning-point labels used by the quantization machinery.

Lines are traced by predictor-corrector continuation of their level set
(see _trace_one): the level change along each predictor chord is summed by
Simpson's rule, so the step can be a fifth of the local cap.  Lines that end
at one ray are ordered by their angular deviation from it at one common
radius: the deviation decays like r^{-5/2}, so values read at different
radii cannot be compared.  Each line is read where it crosses that circle on
its level set (_crossing), not on a chord between its polyline points.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .action import _integrate_tp_leg, _labels_around, _pair_scores, _vanishing_set
from .potential import CubicPotential, TurningPointSet, turning_points

PHI = [(2 * k + 1) * np.pi / 5 for k in range(-2, 3)]  # ray angles, k = -2..2


class ClassificationError(RuntimeError):
    """Tracing or graph assembly failed in a way that prevents classification."""


class AmbiguousClassError(ClassificationError):
    """The traced graph sits numerically on a class boundary."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


# tracing constants; launch and trap radii are in units of the root separation
_WEDGE_TOL = np.pi / 20
_TRAP_FACTOR = 1e-4
_LAUNCH_FACTOR = 1e-2
_MAX_STEPS = 60000
_R_FACTOR = 10.0                    # tracing radius, in units of 1 + scale


@dataclass(frozen=True)
class TraceOptions:
    r_max_factor: float = _R_FACTOR
    anti_stokes: bool = False


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
    internal_vertices: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    lines: tuple[StokesLine, ...]
    internal_edges: tuple[tuple[int, int], ...]
    external_edges: tuple[tuple[int, int], ...]   # (vertex, ray k)
    class_code: str
    decoration_shift: int
    tp_labels: dict[str, complex]
    relation: SectorRelation
    corridors: dict[tuple[int, int], tuple] = field(default_factory=dict, repr=False)

    @property
    def n_internal_edges(self) -> int:
        return len(self.internal_edges)

    @property
    def tps(self) -> TurningPointSet:
        """The turning points the graph was traced from."""
        return TurningPointSet(self.internal_vertices, self.multiplicities)

    def wall_point(self, wall, radius: float) -> complex:
        """A point on a wall of the complex: the midpoint of an internal edge,
        or where an external line crosses |x| = radius, which must lie
        between its turning point and the tracing radius."""
        if wall[0] == "int":
            v = self.internal_vertices
            return 0.5 * (v[wall[1]] + v[wall[2]])
        return _crossing(self.lines[wall[1]].points, radius, self.tps.all_with_repeats)


def _pairset(pairs):
    return frozenset(frozenset(p) for p in pairs)


# canonical non-consecutive pairs failing the relation, per class (labels -2..2)
_CANONICAL_FAIL = {
    "300": _pairset([]),
    "310": _pairset([(0, 2), (0, -2)]),
    "311": _pairset([(1, -1)]),
    "320": _pairset([(1, -1), (1, -2), (-1, 2)]),
    "100": _pairset([(1, -1), (0, -2), (0, 2)]),
    "110": _pairset([(0, 2), (0, -2), (1, -2), (-1, 2)]),
    "000": _pairset([(0, 2), (1, -2), (2, -1), (-2, 0), (-1, 1)]),
}

# external-vertex valences for classes whose fail-set does not pin the shift
_CANONICAL_VALENCE = {
    "300": {-2: 1, -1: 2, 0: 2, 1: 1, 2: 3},
    "000": {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1},
}


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
    w = cmath.sqrt(V)
    return -w if abs(w + prev) < abs(w - prev) else w


def _trace_one(p, tps, origin, direction_index, theta, opts, rays):
    """Continue one level curve Re(u S) = const from a turning point outward.

    The predictor steps h = 0.2 hcap along the unit tangent turn conj(w)/|w|,
    w = sqrt(V) already continued to z; hcap is a fifth of the distance to
    the nearest turning point, at most 0.1 (1 + |z|).  The level drift of
    the step, Re(u int w dz) along the chord, is summed by Simpson's rule,
    whose error is O(h^5) per step (a trapezoid's O(h^3) would let a saddle
    connection at this step length miss its trap).  The corrector is one
    transverse Newton step onto the level set.  A step makes at most three
    square-root continuations: at the chord's midpoint, at the predicted
    point and at the corrected point.

    The loop runs on Python complex scalars (V included), not numpy: a line
    takes thousands of steps over at most three roots, and numpy's per-call
    overhead on such small operands cost about four times the arithmetic.
    """
    roots = [complex(r) for r in tps.roots]
    tp = roots[origin]
    scale = max(tps.scale, 1.0)
    sep = tps.separation if len(roots) > 1 else scale
    r_launch = _LAUNCH_FACTOR * max(sep, 1e-3 * scale) if len(roots) > 1 else _LAUNCH_FACTOR * scale
    r_trap = _TRAP_FACTOR * max(sep, 1e-3 * scale) if len(roots) > 1 else 0.0
    R_max = opts.r_max_factor * (1.0 + tps.scale)
    V = CubicPotential(complex(p.a), complex(p.b))

    z = tp + r_launch * cmath.exp(1j * theta)
    w = cmath.sqrt(V(z))
    turn = 1j if not opts.anti_stokes else 1.0
    if (turn * w.conjugate() * cmath.exp(-1j * theta)).real < 0:
        w = -w

    pts = [tp, z]

    def line(terminal):
        return StokesLine(origin, direction_index, np.array(pts), terminal)

    # seed the level-set drift with the exact action from the turning point
    # to the launch point, so the projection locks onto the separatrix
    # through the turning point itself
    all_roots = np.array(tps.all_with_repeats, dtype=complex)
    vanish = _vanishing_set(all_roots, tp, scale)
    vals = np.sqrt(z - all_roots)
    s_launch, _ = _integrate_tp_leg(all_roots, vanish, tp, z, vals, 1e-14)
    w_tracked = 2.0 * vals[0] * vals[1] * vals[2]
    if abs(w_tracked - w) > abs(w_tracked + w):
        s_launch = -s_launch
    # level function is Re(u * S): u = 1 for Stokes lines, -i for anti-Stokes
    u = 1.0 + 0.0j if not opts.anti_stokes else -1.0j
    drift = float((u * s_launch).real)
    for n in range(1, _MAX_STEPS + 1):
        dists = [abs(z - r) for r in roots]
        d_min = min(dists)
        if d_min < r_trap and dists[origin] > 3 * r_launch:
            # r_trap < 3 r_launch, so the nearest root is another one
            j = dists.index(d_min)
            pts.append(roots[j])
            return line(("tp", j))
        if abs(z) >= R_max:
            ang = cmath.phase(z)
            devs = [abs(_wrap(ang - f)) for f in rays]
            k = int(np.argmin(devs))
            if devs[k] > _WEDGE_TOL:
                return line(("unresolved", -99))
            return line(("ray", k - 2))
        if dists[origin] < 0.5 * r_launch and n > 10:
            # returned to its own turning point: numerically degenerate
            return line(("unresolved", -98))

        hcap = 0.2 * d_min
        hcap = max(hcap, 1e-6 * scale)
        hcap = min(max(hcap, 0.05 * r_launch), 0.1 * (1.0 + abs(z)))
        h = 0.2 * hcap

        # predictor: tangent step, continuing the root to the chord's midpoint
        # and end; Simpson's rule on the chord gives d(level) = Re(u w dz)
        dz = h * turn * w.conjugate() / abs(w)
        w_mid = _sqrt_continue(V(z + 0.5 * dz), w)
        w_new = _sqrt_continue(V(z + dz), w_mid)
        drift += (u * (w + 4.0 * w_mid + w_new) * dz).real / 6.0
        z, w = z + dz, w_new
        # corrector: transverse Newton projection back onto the level set;
        # the guard is relative to the distance from the nearest turning
        # point so the correction stays active during saddle approaches
        if drift != 0.0:
            dz = -drift * u.conjugate() * w.conjugate() / abs(w) ** 2
            if abs(dz) < 0.3 * min([abs(z - r) for r in roots]):
                z = z + dz
                w = _sqrt_continue(V(z), w)
                drift = 0.0
        pts.append(z)
    return line(("unresolved", -97))


def trace_stokes_lines(
    p: CubicPotential, opts: TraceOptions | None = None, tps: TurningPointSet | None = None
) -> list[StokesLine]:
    """Trace all Stokes lines (anti-Stokes with opts.anti_stokes=True).

    tps, the turning points of p when the caller has already solved them,
    saves solving them again.
    """
    opts = opts or TraceOptions()
    if tps is None:
        tps = turning_points(p)
    rays = [f + np.pi / 5 for f in PHI] if opts.anti_stokes else PHI
    return [
        _trace_one(p, tps, vi, di, theta, opts, rays)
        for vi, (tp, m) in enumerate(zip(tps.roots, tps.multiplicities))
        for di, theta in enumerate(_launch_directions(p, tp, m, opts.anti_stokes))
    ]


def _assemble(lines):
    """Deduplicate traced lines into internal and external edges.

    External entries carry the traced line and its index for later geometric
    lookups (corridor crossing points, SVG export).
    """
    internal: dict[frozenset, list] = {}
    external: list[tuple[int, int, StokesLine, int]] = []
    for idx, ln in enumerate(lines):
        kind, t = ln.terminal
        if kind == "unresolved":
            raise ClassificationError(f"unresolved Stokes line from vertex {ln.origin}")
        if kind == "tp":
            if t == ln.origin:
                raise ClassificationError("Stokes line returned to its own vertex")
            internal.setdefault(frozenset((ln.origin, t)), []).append(ln)
        else:
            external.append((ln.origin, t, ln, idx))
    for pair, lns in internal.items():
        if len(lns) != 2:
            raise AmbiguousClassError(
                f"internal line between {sorted(pair)} traced {len(lns)} times"
            )
    # two vertices can share at most one line; a duplicate means tracing failure
    return internal, external


def _crossing(pts, radius, roots):
    """The point where a Stokes line (a polyline that ends outside
    |x| = radius) last crosses that circle, on the line's level set.

    Starting from the chord interpolation, Newton on the angle of
    x = radius e^{i phi} zeroes Re int sqrt(V) from the last polyline point
    z0 inside the circle to x, summed by Simpson's rule on the chord; V is
    4 prod (x - r) over the roots with repeats.  A chord read off a coarse
    polyline sags off the line by more than the deviations of nearly
    coincident lines at a ray differ.
    """

    def V(z):
        out = 4.0
        for r in roots:
            out *= z - r
        return out

    q = int(np.nonzero(np.abs(pts) <= radius)[0][-1])
    z0, d = complex(pts[q]), complex(pts[q + 1] - pts[q])
    a2, b1, c0 = abs(d) ** 2, (z0.conjugate() * d).real, abs(z0) ** 2 - radius**2
    x = z0 + d * (-b1 + (b1 * b1 - a2 * c0) ** 0.5) / a2
    # the sheet of z0: the tangent i conj(w0) points along the polyline
    w0 = cmath.sqrt(V(z0))
    if (1j * (w0 * d).conjugate()).real < 0:
        w0 = -w0
    # the chord start is off by up to ~4e-7 rad; the second step is at rounding
    for _ in range(2):
        w_mid = _sqrt_continue(V(0.5 * (z0 + x)), w0)
        w_x = _sqrt_continue(V(x), w_mid)
        level = ((w0 + 4.0 * w_mid + w_x) * (x - z0)).real / 6.0
        x *= cmath.exp(-1j * level / (1j * w_x * x).real)
    return x


def _ray_deviation(line, tps, opts=None):
    """Signed angle from the ray a line ends on, k, to where the line crosses
    the common radius 0.92 R_max.  The lines that end on one ray are ordered
    by it, increasing from the side of sector k to that of sector k+1.
    """
    opts = opts or TraceOptions()
    R_eval = opts.r_max_factor * (1.0 + tps.scale) * 0.92
    x = _crossing(line.points, R_eval, tps.all_with_repeats)
    return _wrap(cmath.phase(x) - PHI[line.terminal[1] + 2])


def _rotation_system(lines_by_edge, tps, opts):
    """Build the combinatorial embedding: CCW dart order at every vertex.

    Vertices are ('v', i) internal and ('e', k) external; boundary arcs
    between consecutive external vertices are included as edges so each face
    is a single closed walk.
    """
    internal, external = lines_by_edge
    darts = {}  # dart id -> (u, v, edge_key)
    incid = {}  # vertex -> list of (sort_angle, dart_id)
    did = 0

    def add_vertex(v):
        incid.setdefault(v, [])

    def add_edge(u, v, key, ang_u, ang_v):
        nonlocal did
        d1, d2 = did, did + 1
        did += 2
        darts[d1] = (u, v, key, d2)
        darts[d2] = (v, u, key, d1)
        incid[u].append((ang_u, d1))
        incid[v].append((ang_v, d2))

    for i in range(len(tps.roots)):
        add_vertex(("v", i))
    for k in range(-2, 3):
        add_vertex(("e", k))

    # internal edges: angle at each endpoint from the traced polylines
    for pair, lns in internal.items():
        i, j = sorted(pair)
        ln = next(l for l in lns if l.origin == i)
        ang_i = float(np.angle(ln.points[1] - ln.points[0]))
        ln2 = next(l for l in lns if l.origin == j)
        ang_j = float(np.angle(ln2.points[1] - ln2.points[0]))
        add_edge(("v", i), ("v", j), ("int", i, j), ang_i, ang_j)

    # external edges: at the internal vertex, the launch angle; at the
    # external vertex the CCW cycle is (arc toward k+1, lines by decreasing
    # deviation from the ray, arc toward k-1), encoded by sort key -dev with
    # the arcs at -inf / +inf
    for (vi, k, ln, idx) in external:
        ang_v = float(np.angle(ln.points[1] - ln.points[0]))
        add_edge(("v", vi), ("e", k), ("ext", idx), ang_v, -_ray_deviation(ln, tps, opts))

    # boundary arcs (key angle +/- inf places them around the line darts)
    for k in range(-2, 3):
        kn = k + 1 if k < 2 else -2
        add_edge(("e", k), ("e", kn), ("arc", k), -np.inf, np.inf)

    rot = {}
    for v, lst in incid.items():
        lst.sort(key=lambda t: t[0])
        rot[v] = [d for _, d in lst]
    return darts, rot


def _faces(darts, rot):
    """Face orbits of the embedding: next dart = rotation successor of twin."""
    pos = {}
    for v, lst in rot.items():
        for i, d in enumerate(lst):
            pos[d] = (v, i)
    seen = set()
    faces = []
    for d0 in darts:
        if d0 in seen:
            continue
        walk = []
        d = d0
        while d not in seen:
            seen.add(d)
            walk.append(d)
            twin = darts[d][3]
            v, i = pos[twin]
            d = rot[v][(i + 1) % len(rot[v])]
        faces.append(walk)
    return faces


def _face_info(faces, darts):
    """Identify sector faces (by their boundary arc) and boundary components."""
    info = []
    for walk in faces:
        arcs = [d for d in walk if darts[d][2][0] == "arc"]
        # boundary components: cut the cyclic walk at arcs and at external
        # vertices (points at infinity)
        comp_of = {}
        comp = 0
        n = len(walk)
        # find a cut position to start from, if any
        cuts = []
        for i in range(n):
            d_prev = walk[i - 1]
            d = walk[i]
            junction = darts[d][0]
            if darts[d_prev][2][0] == "arc" or darts[d][2][0] == "arc" or junction[0] == "e":
                cuts.append(i)
        if not cuts:
            for d in walk:
                comp_of[d] = 0
        else:
            start = cuts[0]
            comp = -1
            for off in range(n):
                i = (start + off) % n
                if i in cuts or off == 0:
                    comp += 1
                d = walk[i]
                if darts[d][2][0] != "arc":
                    comp_of[d] = comp
        info.append({"walk": walk, "arcs": arcs, "comp_of": comp_of})
    return info


def _compute_relation(internal, external, tps, opts):
    """Sector relation and corridor walls from the embedded graph."""
    darts, rot = _rotation_system((internal, external), tps, opts)
    faces = _faces(darts, rot)
    info = _face_info(faces, darts)

    # map arc k -> sector face: the face walk containing arc dart (Ek->Ek+1)
    # on the inner side is the sector with rays phi_k, phi_{k+1}, i.e.
    # Sigma_{k+1}
    sector_face = {}
    outer = None
    for fi, rec in enumerate(info):
        arc_keys = {darts[d][2][1] for d in rec["arcs"]}
        if len(rec["arcs"]) == 5 and all(
            darts[d][2][0] == "arc" for d in rec["walk"]
        ):
            outer = fi
            continue
        for d in rec["arcs"]:
            k = darts[d][2][1]
            sec = k + 1 if k + 1 <= 2 else k + 1 - 5
            if sec in sector_face:
                raise ClassificationError("two faces claim the same sector arc")
            sector_face[sec] = fi
    if len(sector_face) != 5:
        raise ClassificationError("could not identify the five sector faces")

    face_of_dart = {}
    for fi, rec in enumerate(info):
        for d in rec["walk"]:
            face_of_dart[d] = fi

    # adjacency moves through graph-edge walls
    def wall_moves(fi, entry_comp):
        rec = info[fi]
        for d in rec["walk"]:
            kind = darts[d][2][0]
            if kind == "arc":
                continue
            if entry_comp is not None and rec["comp_of"][d] == entry_comp:
                continue
            twin = darts[d][3]
            yield darts[d][2], twin, face_of_dart[twin]

    related = np.eye(5, dtype=bool)
    corridors = {}
    from collections import deque

    for l in range(-2, 3):
        start = sector_face[l]
        # BFS over (face, entry component)
        prev = {}
        dq = deque()
        seen_states = set()
        for key, twin, nf in wall_moves(start, None):
            st = (nf, info[nf]["comp_of"].get(twin))
            if st not in seen_states:
                seen_states.add(st)
                prev[st] = (None, key)
                dq.append(st)
        reached = {}
        while dq:
            fi, comp = dq.popleft()
            # is fi a sector face?
            for k, sf in sector_face.items():
                if sf == fi and k != l and k not in reached:
                    reached[k] = (fi, comp)
            # continue only through band-type faces (sector faces have one
            # boundary component, so the move generator yields nothing new)
            for key, twin, nf in wall_moves(fi, comp):
                st = (nf, info[nf]["comp_of"].get(twin))
                if st not in seen_states:
                    seen_states.add(st)
                    prev[st] = ((fi, comp), key)
                    dq.append(st)
        for k, st in reached.items():
            related[(l + 2) % 5, (k + 2) % 5] = True
            # recover wall sequence
            walls = []
            cur = st
            while cur is not None:
                parent, key = prev[cur]
                walls.append(key)
                cur = parent
            corridors[(l, k)] = tuple(reversed(walls))
    return SectorRelation(matrix=related), corridors


def _match_class(n_simple, n_int, fail_set, ext_valence):
    """Class code and decoration shift from counts + relation fail pattern."""
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
    matches = []
    for code in cands:
        canon = _CANONICAL_FAIL[code]
        for m in range(5):
            shifted = frozenset(
                frozenset(((x + m + 2) % 5 - 2) for x in pair) for pair in canon
            )
            if shifted == fail_set:
                matches.append((code, m))
    if not matches:
        raise AmbiguousClassError(
            "relation pattern matches no admissible class", candidates=cands
        )
    codes = {c for c, _ in matches}
    if len(codes) > 1:
        raise AmbiguousClassError("relation pattern is class-ambiguous", candidates=codes)
    code = codes.pop()
    shifts = sorted(m for _, m in matches)
    if len(shifts) == 1:
        return code, shifts[0]
    # symmetric fail set (300, 000): disambiguate by external valences
    pattern = _CANONICAL_VALENCE.get(code)
    if pattern is not None:
        good = []
        for m in shifts:
            if all(
                ext_valence.get((k + m + 2) % 5 - 2, 0) == v
                for k, v in pattern.items()
            ):
                good.append(m)
        if len(good) == 1:
            return code, good[0]
    return code, 0


def classify(p: CubicPotential) -> StokesComplexGraph:
    """Trace, assemble, and classify the Stokes complex of the potential.

    Lines are traced to radius _R_FACTOR (1 + scale); if that fails, the
    whole classification is retried once at three times the radius.  Roots
    closer than the launch radius (a multiple root that rounding has split)
    are refused before any tracing: launched past a neighbouring root, the
    lines mean nothing.
    """
    tps = turning_points(p)
    if 0.0 < tps.separation < _LAUNCH_FACTOR * 1e-3 * max(tps.scale, 1.0):
        raise AmbiguousClassError(
            f"turning points {tps.separation:.1e} apart, inside the launch radius"
        )
    last_exc = None
    for rf in (_R_FACTOR, 3 * _R_FACTOR):
        try:
            return _classify_once(p, tps, TraceOptions(r_max_factor=rf))
        except ClassificationError as exc:
            last_exc = exc
    raise last_exc


def _classify_once(p, tps, opts):
    lines = trace_stokes_lines(p, opts, tps)
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
    for vi, k, *_ in external:
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

    relation, corridors = _compute_relation(internal, external, tps, opts)
    # consecutive sectors must always be related
    for k in range(-2, 3):
        kn = k + 1 if k < 2 else -2
        if not relation.related(k, kn):
            raise ClassificationError("consecutive sectors not related: tracing defect")

    fail_set = frozenset(
        frozenset((j, k))
        for j in range(-2, 3)
        for k in range(-2, 3)
        if j != k
        and abs((j - k) % 5) not in (1, 4)
        and not relation.related(j, k)
    )
    code, shift = _match_class(n_simple, n_int, fail_set, ext_valence)

    labels = _tp_labels(code, shift, tps, internal, external)
    return StokesComplexGraph(
        internal_vertices=tuple(tps.roots),
        multiplicities=tuple(tps.multiplicities),
        lines=tuple(lines),
        internal_edges=tuple(tuple(sorted(pair)) for pair in internal),
        external_edges=tuple((vi, k) for vi, k, *_ in external),
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
    classes the assignment is a documented convention (sorted by
    multiplicity, then real part, then imaginary part).
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
        for vi, k, *_ in external:
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
    order = sorted(
        range(len(roots)),
        key=lambda i: (-tps.multiplicities[i], roots[i].real, roots[i].imag),
    )
    names = ["tp0", "tp1", "tp-1"]
    return {names[j]: roots[i] for j, i in enumerate(order)}


def canonical_relation(class_code: str, shift: int = 0) -> SectorRelation:
    """The tabulated relation for a class, with the decoration shift applied."""
    mat = np.zeros((5, 5), dtype=bool)
    for j in range(-2, 3):
        mat[(j + 2) % 5, (j + 2) % 5] = True
        for k in (j - 1, j + 1):
            mat[(j + 2) % 5, (k + 2) % 5] = True
    fail = _CANONICAL_FAIL[class_code]
    for j in range(-2, 3):
        for k in range(-2, 3):
            if j == k or abs((j - k) % 5) in (1, 4):
                continue
            pair = frozenset(((j - shift + 2) % 5 - 2, (k - shift + 2) % 5 - 2))
            mat[(j + 2) % 5, (k + 2) % 5] = pair not in fail
    return SectorRelation(matrix=mat)


def sector_relation(g: StokesComplexGraph) -> SectorRelation:
    """The sector relation of a classified graph (table row, shift applied)."""
    canon = canonical_relation(g.class_code, g.decoration_shift)
    if not np.array_equal(canon.matrix, g.relation.matrix):
        raise ClassificationError("computed relation disagrees with the class table")
    return g.relation


@dataclass(frozen=True)
class PeriodClassGuess:
    family: str                 # "300", "31x", "320", or "indeterminate"
    zero_pairs: tuple[tuple[complex, complex], ...]
    labels: dict[str, complex] | None

    def consistent_with(self, class_code: str) -> bool:
        table = {
            "300": {"300"},
            "31x": {"310", "311"},
            "320": {"320"},
            "indeterminate": {"300", "310", "311"},
        }
        return class_code in table[self.family]


def classify_by_periods(
    p: CubicPotential, zero_tol: float = 1e-7, nonzero_tol: float = 1e-4
) -> PeriodClassGuess:
    """Fast class guess from Re of the three pairwise turning-point actions.

    A quantizing-type graph has one root whose both pairwise actions are
    purely imaginary; a single vanishing pair indicates one internal line;
    none indicates the edgeless class.  For a real potential the action of
    a complex-conjugate root pair can have vanishing real part by symmetry
    alone, without the pair being connected: if that is the only vanishing
    pair the sign data cannot decide between the edgeless and one-edge
    classes and the guess is "indeterminate".  Raises AmbiguousClassError
    inside the tolerance band.
    """
    tps = turning_points(p)
    if tuple(tps.multiplicities) != (1, 1, 1):
        raise ValueError("classify_by_periods requires three simple turning points")
    r = list(tps.roots)
    scale = max(tps.scale, 1e-12)
    zero = {}
    zero_pairs = []
    for (i, j), score in _pair_scores(p, r, 1e-10).items():
        if score < zero_tol:
            zero[(i, j)] = True
            zero_pairs.append((r[i], r[j]))
        elif score > nonzero_tol:
            zero[(i, j)] = False
        else:
            raise AmbiguousClassError(
                f"pair ({i},{j}) action Re-score {score:.2e} in tolerance band"
            )
    counts = {i: 0 for i in range(3)}
    for (i, j), z in zero.items():
        if z:
            counts[i] += 1
            counts[j] += 1
    common = [i for i, c in counts.items() if c >= 2]
    if common:
        return PeriodClassGuess(
            family="320",
            zero_pairs=tuple(zero_pairs),
            labels=_labels_around(r, common[0]),
        )
    if len(zero_pairs) == 1:
        if p.is_real(1e-12 * max(1.0, abs(p.a), abs(p.b))):
            za, zb = zero_pairs[0]
            if abs(za - np.conj(zb)) < 1e-8 * scale:
                return PeriodClassGuess(
                    family="indeterminate", zero_pairs=tuple(zero_pairs), labels=None
                )
        return PeriodClassGuess(family="31x", zero_pairs=tuple(zero_pairs), labels=None)
    if len(zero_pairs) == 0:
        return PeriodClassGuess(family="300", zero_pairs=(), labels=None)
    raise AmbiguousClassError("inconsistent zero-pair pattern")

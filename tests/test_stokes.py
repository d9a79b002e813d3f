import json

import numpy as np
import pytest

from conftest import random_potentials, root_split, split_pair
from cubicwkb import stokes
from cubicwkb.action import _pair_scores, line_action
from cubicwkb.bsb import real_orbit_constants, real_orbit_potential
from cubicwkb.export import graph_to_json, graph_to_svg
from cubicwkb.potential import (
    _ROOT_TOL,
    CubicPotential,
    GroupElement,
    apply_group,
    turning_points,
)
from cubicwkb.stokes import (
    PHI,
    AmbiguousClassError,
    _order_at_infinity,
    canonical_relation,
    classify,
    classify_by_periods,
    trace_stokes_lines,
)


def test_pure_cubic_five_straight_rays():
    lines = trace_stokes_lines(CubicPotential(0, 0))
    assert len(lines) == 5
    rays = set()
    for ln in lines:
        kind, k = ln.terminal
        assert kind == "ray"
        rays.add(k)
        # straight line along phi_k: every point has the ray's argument
        angs = np.angle(ln.points[1:])
        target = PHI[k + 2]
        assert np.max(np.abs((angs - target + np.pi) % (2 * np.pi) - np.pi)) < 1e-6
    assert rays == {-2, -1, 0, 1, 2}


def test_anti_stokes_rays_of_pure_cubic():
    # anti-Stokes lines of 4x^3 are the rays arg x = 2k pi / 5
    lines = trace_stokes_lines(CubicPotential(0, 0), anti_stokes=True)
    assert len(lines) == 5
    angs = sorted(np.angle(ln.points[-1]) % (2 * np.pi) for ln in lines)
    expected = sorted((2 * np.pi * k / 5) % (2 * np.pi) for k in range(5))
    assert np.allclose(angs, expected, atol=1e-6)


def test_pure_cubic_class_000():
    g = classify(CubicPotential(0, 0))
    assert g.class_code == "000"
    assert g.tps.multiplicities == (3,)


def test_graph_carries_its_potential(orbit_potential):
    # the graph reads its roots and V off the potential it was traced from
    p = CubicPotential(orbit_potential.a, orbit_potential.b)
    g = classify(p)
    assert g.potential is p
    assert g.tps is turning_points(p)


def test_110_family_four_lines_from_double_point():
    # V = 4 (x + x0)^2 (x - 2 x0) with x0 = 1: a = 6, b = 2/7
    p = CubicPotential(6.0, 2.0 / 7.0)
    lines = trace_stokes_lines(p)
    double = [
        i for i, m in enumerate((2, 1)) if m == 2
    ]  # representative index check below
    g = classify(p)
    assert g.class_code == "110"
    mult_of = dict(zip(range(len(g.tps.multiplicities)), g.tps.multiplicities))
    from_double = [ln for ln in lines if mult_of[ln.origin] == 2]
    assert len(from_double) == 4


def test_split_double_root_is_refused():
    # two simple roots 1e-7 apart, 5 times the merge tolerance, lie inside
    # the launch radius: a trace there would report a confident but wrong
    # class
    _, split = split_pair()
    d, scale = root_split(split)
    assert 3 < d / (_ROOT_TOL * scale) < 10
    p = CubicPotential(6.0, 2.0 / 7.0)
    assert turning_points(split).multiplicities == (1, 1, 1)
    with pytest.raises(AmbiguousClassError):
        classify(split)
    # the images of the 110 point (6, 2/7) whose exact split is within the
    # tolerance are double roots (those by m = 2 and 3 split 2.07e-8 and
    # 2.40e-8, above 2e-8); m = 1 splits 1.33e-8
    for m in (0, 1, 4):
        q = apply_group(GroupElement(1.0, m), p)
        d, scale = root_split(q)
        assert d <= _ROOT_TOL * scale
        assert classify(q).class_code == "110"


def test_100_family():
    # V = 4 (x - 1)^2 (x + 2): a = 6, b = -2/7
    g = classify(CubicPotential(6.0, -2.0 / 7.0))
    assert g.class_code == "100"


def test_three_real_roots_single_internal_edge():
    g = classify(CubicPotential(2.0, 0.0))
    assert g.class_code in ("310", "311")
    assert len(g.internal_edges) == 1


def test_orbit_is_quantizing_class(orbit_potential):
    g = classify(orbit_potential)
    assert g.class_code == "320"
    assert g.decoration_shift == 0
    assert len(g.internal_edges) == 2
    # labels: tp0 is the real root, tp1 the upper one
    assert abs(g.tp_labels["tp0"].imag) < 1e-9
    assert g.tp_labels["tp1"].imag > 0
    assert g.tp_labels["tp-1"] == pytest.approx(np.conj(g.tp_labels["tp1"]), abs=1e-9)


def test_decoration_covariance(orbit_potential):
    for m in range(5):
        q = apply_group(GroupElement(1.0, m), orbit_potential)
        g = classify(q)
        assert g.class_code == "320"
        assert g.decoration_shift == m
        # tp labels rotate with the group action
        rot = np.exp(2j * np.pi * m / 5)
        base = classify(orbit_potential).tp_labels
        assert g.tp_labels["tp0"] == pytest.approx(rot * base["tp0"], abs=1e-8)


def test_valency_law_and_acyclicity_random_real():
    for a, b in random_potentials(23, 25, box=3.0, real=True):
        g = classify(CubicPotential(a, b))
        deg = {i: 0 for i in range(len(g.tps.roots))}
        for i, j in g.internal_edges:
            deg[i] += 1
            deg[j] += 1
        for vi, k in g.external_edges:
            deg[vi] += 1
        for i, m in enumerate(g.tps.multiplicities):
            assert deg[i] == m + 2
        assert len(g.internal_edges) <= 2
        # every ray is reached
        assert {k for _, k in g.external_edges} == {-2, -1, 0, 1, 2}
        # every related ordered pair has its corridor, the reverse of its twin's
        for l in range(-2, 3):
            for k in range(-2, 3):
                if k != l and g.relation.related(l, k):
                    assert g.corridors[(l, k)] == g.corridors[(k, l)][::-1]


def test_consecutive_corridors_are_the_lines_at_each_ray():
    # the corridor from sector k to sector k+1 crosses the lines that end on
    # ray k, in counterclockwise order: the monodromy oracle's corridor k
    for a, b in random_potentials(23, 25, box=3.0, real=True):
        g = classify(CubicPotential(a, b))
        order = _order_at_infinity(g.lines)
        for k in range(-2, 3):
            at_ray = tuple(("ext", i) for i in order if g.lines[i].terminal == ("ray", k))
            assert g.corridors[(k, (k + 3) % 5 - 2)] == at_ray, (a, b, k)


def test_interleaved_ends_of_an_internal_line_are_ambiguous(monkeypatch):
    # lines at infinity read out of order, so that the ends of the two
    # vertices of an internal line interleave, describe no planar forest
    p = CubicPotential(2.0, 0.0)
    g = classify(p)
    ((u, v),) = g.internal_edges
    order = _order_at_infinity(g.lines)
    tree = [n for n, i in enumerate(order) if g.lines[i].origin in (u, v)]
    x, y = next(
        (x, y) for x, y in zip(tree, tree[1:] + tree[:1])
        if g.lines[order[x]].origin != g.lines[order[y]].origin
    )
    order[x], order[y] = order[y], order[x]
    monkeypatch.setattr(stokes, "_order_at_infinity", lambda lines: order)
    with pytest.raises(AmbiguousClassError, match="planar"):
        classify(p)


def test_conjugation_symmetry_real_potentials():
    # real potential: the complex is invariant under conjugation combined
    # with the ray relabelling k -> -1-k
    for a, b in random_potentials(29, 8, box=2.5, real=True):
        g = classify(CubicPotential(a, b))
        ext = set()
        for vi, k in g.external_edges:
            z = g.tps.roots[vi]
            ext.add((round(z.real, 6), round(z.imag, 6), k))
        mirrored = set()
        for re, im, k in ext:
            kk = ((-1 - k) + 2) % 5 - 2
            mirrored.add((re, -im, kk))
        assert ext == mirrored


def test_sector_relation_rows():
    # tabulated rows, canonical decoration
    rel300 = canonical_relation("300", 0)
    assert all(all(row) for row in rel300.matrix)
    rel000 = canonical_relation("000", 0)
    for j in range(-2, 3):
        for k in range(-2, 3):
            expected = (j - k) % 5 in (0, 1, 4)
            assert rel000.related(j, k) == expected
    rel110 = canonical_relation("110", 0)
    non_consec = [(j, k) for j in range(-2, 3) for k in range(-2, 3)
                  if (j - k) % 5 in (2, 3)]
    related_pairs = {(j, k) for j, k in non_consec if rel110.related(j, k)}
    assert related_pairs == {(1, -1), (-1, 1)}


def test_sector_relation_consistency(orbit_potential):
    rel = classify(orbit_potential).relation
    # quantizing class: failing pairs are exactly (1,-1), (1,-2), (-1,2)
    failing = {
        frozenset((j, k))
        for j in range(-2, 3)
        for k in range(-2, 3)
        if j != k and (j - k) % 5 in (2, 3) and not rel.related(j, k)
    }
    assert failing == {frozenset((1, -1)), frozenset((1, -2)), frozenset((-1, 2))}


# one representative of each class, as in demos/stokes_gallery.py
GALLERY = {
    "000": (0.0, 0.0),
    "110": (6.0, 2.0 / 7.0),
    "100": (6.0, -2.0 / 7.0),
    "311": (1.654, -1.649),
    "310": (2.0, 0.0),
    "300": (-2.0, 1.0),
}


def test_class_table_reads_both_ways(orbit_potential):
    reps = {code: CubicPotential(*ab) for code, ab in GALLERY.items()}
    reps["320"] = orbit_potential
    for code, p in reps.items():
        g = classify(p)
        assert g.class_code == code
        assert g.relation.matrix == canonical_relation(code, g.decoration_shift).matrix
        n_simple = g.tps.multiplicities.count(1)
        n_int = len(g.internal_edges)
        # external valence of each canonical ray k, read at ray k + shift
        rays = [k for _, k in g.external_edges]
        valence = {k: rays.count((k + g.decoration_shift + 2) % 5 - 2) for k in range(-2, 3)}
        for m in range(5):
            shifted = {(k + m + 2) % 5 - 2: v for k, v in valence.items()}
            got = stokes._match_class(n_simple, n_int, canonical_relation(code, m), shifted)
            assert got == (code, 0 if code == "000" else m)


def test_classify_by_periods_agreement():
    for a, b in random_potentials(31, 15, box=3.0, real=True):
        p = CubicPotential(a, b)
        g = classify(p)
        guess = classify_by_periods(p)
        assert guess.consistent_with(g.class_code), (a, b, g.class_code, guess.family)


def test_classify_by_periods_on_orbit(orbit_potential):
    guess = classify_by_periods(orbit_potential)
    assert guess.family == "320"
    assert abs(guess.labels["tp0"].imag) < 1e-9


def test_classify_by_periods_rejects_multiple_roots():
    with pytest.raises(ValueError):
        classify_by_periods(CubicPotential(6.0, 2.0 / 7.0))


def test_exports(orbit_potential):
    g = classify(orbit_potential)
    payload = json.loads(graph_to_json(g))
    assert payload["class_code"] == "320"
    assert payload["shift"] == 0
    assert len(payload["vertices"]) == 3
    internal = [e for e in payload["edges"] if e["type"] == "internal"]
    external = [e for e in payload["edges"] if e["type"] == "external"]
    assert len(internal) == 2
    assert len(external) == 5
    # an internal edge is the first of its connection's two lines in g.lines,
    # the one from the lower vertex
    for e in internal:
        assert e["from"] < e["to"]
        twins = [ln for ln in g.lines if ln.terminal[0] == "tp"
                 and {ln.origin, ln.terminal[1]} == {e["from"], e["to"]}]
        assert len(twins) == 2
        assert e["polyline"] == [[z.real, z.imag] for z in twins[0].points]
    svg = graph_to_svg(g)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 9
    svg_disk = graph_to_svg(g, compactified=True)
    assert "circle" in svg_disk


def _level_residuals(p, anti_stokes):
    """|Re S| (|Im S| for anti-Stokes lines) over 1 + |S| at sampled points
    of every traced line, S = int_tp^z sqrt(V) by line_action along nodes
    picked from the polyline, and at the end of every external line, which
    must lie on |z| = R_max within _WEDGE_TOL of its ray.  The start point
    and, on internal lines, points within a tenth of the root separation of
    another turning point are skipped."""
    tps = turning_points(p)
    roots = np.array(tps.roots)
    R_max = stokes._R_FACTOR * (1.0 + tps.scale)
    rays = [f + np.pi / 5 for f in PHI] if anti_stokes else PHI
    out, ends = [], 0
    for ln in trace_stokes_lines(p, anti_stokes=anti_stokes):
        others = np.delete(roots, ln.origin)
        external = ln.terminal[0] == "ray"
        nodes = [ln.points[0], ln.points[1]]
        last = len(ln.points) - 1
        for k, z in enumerate(ln.points[2:], start=2):
            d = np.min(np.abs(z - roots))
            if not external and np.min(np.abs(z - others)) < 0.1 * tps.separation:
                break
            # short chords: every node segment stays on the line's side of
            # each turning point (the end chord, past twice the scale, is
            # clear of them all)
            if abs(z - nodes[-1]) > 0.25 * d or k == last:
                nodes.append(z)
        seed = np.sqrt(p(nodes[1]))
        picks = list(np.linspace(2, len(nodes) - 1, 4).astype(int))
        if external:
            end = ln.points[-1]
            assert nodes[-1] == end
            assert abs(abs(end) - R_max) <= 1e-12 * R_max
            dev = (np.angle(end) - rays[ln.terminal[1] + 2] + np.pi) % (2 * np.pi) - np.pi
            assert abs(dev) <= stokes._WEDGE_TOL
            picks.append(len(nodes) - 1)
            ends += 1
        for k in picks:
            s = line_action(p, tuple(nodes[: k + 1]), seed).value
            level = s.imag if anti_stokes else s.real
            out.append(abs(level) / (1.0 + abs(s)))
    assert ends > 0
    return np.array(out)


@pytest.mark.parametrize("anti_stokes", [False, True])
def test_traced_lines_stay_on_their_level_set(anti_stokes):
    pots = [real_orbit_potential(), CubicPotential(2.0, 0.0)]
    pots += [CubicPotential(a, b) for a, b in random_potentials(41, 2, box=3.0)]
    for p in pots:
        res = _level_residuals(p, anti_stokes)
        assert len(res) > 0
        assert np.max(res) <= 1e-6, (p, np.max(res))


@pytest.mark.parametrize(
    "a, b, origin, mult",
    [(0.4, -0.3, 0, 1), (24.0, -16.0 / 7.0, 0, 2), (24.0, -16.0 / 7.0, 1, 1), (0.0, 0.0, 0, 3)],
    ids=["simple", "double-r2", "simple-beside-double", "triple"],
)
def test_start_point_action_from_the_local_series(a, b, origin, mult):
    # the action from a turning point to each start point of its lines, by
    # the local series, is line_action's to rounding: at a simple root, at
    # the exact double root r = 2 and at the triple root of V = 4 x^3
    p = CubicPotential(a, b)
    tps = turning_points(p)
    assert tps.multiplicities[origin] == mult
    series = stokes._local_series(tps, origin)
    lines = [ln for ln in trace_stokes_lines(p) if ln.origin == origin]
    assert len(lines) == tps.multiplicities[origin] + 2
    for ln in lines:
        tp, z = complex(ln.points[0]), complex(ln.points[1])
        # sqrt of the factored V = 4 prod (z - r), which line_action
        # integrates: at a merged double root it differs from p(z) by 1e-9
        w = 2.0 * np.prod(np.sqrt(z - np.array(tps.all_with_repeats)))
        got = stokes._local_action(series, z - tp, w)
        want = line_action(p, (tp, z), w, tol=1e-14, clearance=0.0).value
        assert abs(got - want) <= 1e-13 * abs(want)
        # the start point lies on the level set that the series gives with
        # V itself, as the tracer puts it there
        level = stokes._local_action(series, z - tp, np.sqrt(complex(p(z))))
        assert abs(level.real) <= 1e-13 * abs(level)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, -1.0), (0.0, 0.3j)])
def test_wall_inside_a_start_disc_lies_on_its_line(a, b):
    # the oracle's wall circle |x| = 0.85 r_foot cuts the start disc of a
    # line, where its polyline is the chord from the turning point: the wall
    # is read off the local series (Simpson's rule from the turning point
    # misses the level by about 1e-3)
    p = CubicPotential(a, b)
    radius = 0.85 * max(1.35 * turning_points(p).scale, 1.0)
    cut = [ln for ln in trace_stokes_lines(p)
           if abs(ln.points[0]) < radius < abs(ln.points[1])]
    assert cut
    for ln in cut:
        x = stokes._crossing(ln, radius, p)
        s = line_action(p, (ln.points[0], x), np.sqrt(p(x)), tol=1e-14, clearance=0.0).value
        assert abs(abs(x) - radius) <= 1e-14 * radius
        assert abs(s.real) <= 1e-12 * abs(s)


def _near_boundary_and_box_potentials():
    # imaginary shifts of the unit-scale orbit point's a or b: the Stokes
    # lines nearly connect, and several lines end at one ray
    o = real_orbit_potential()
    x = abs(o.a) ** -0.5
    a0, b0 = complex(x**2 * o.a), complex(x**3 * o.b)
    rng = np.random.default_rng(5)
    out = []
    for i in range(12):
        shift = 1j * (1 if rng.integers(2) else -1)
        if i % 2:
            out.append(CubicPotential(a0 + shift * 10.0 ** rng.uniform(-2.5, -1.5), b0))
        else:
            out.append(CubicPotential(a0, b0 + shift * 10.0 ** rng.uniform(-4.0, -2.0)))
    # deeper a-shifts: three lines end at one ray with deviations there that
    # differ by about 1e-8, so the order read off a chord between polyline
    # points depends on the sampling
    for da in (2.310129700083158e-05j, 5.105562660992064e-05j,
               8.281405209022604e-05j, 3.0387640612018394e-04j):
        out.append(CubicPotential(a0 + da, b0))
    out += [CubicPotential(a, b) for a, b in random_potentials(43, 10, box=3.0)]
    return out


def test_corridors_covariant_under_scaling():
    # (a, b) -> (x^2 a, x^3 b) scales the Stokes complex by x, so the class,
    # shift, edges and corridors cannot change; the order of the lines at a
    # ray, read at one common radius, must not depend on x
    for p in _near_boundary_and_box_potentials():
        g = classify(p)
        for x in (0.6, 1.7):
            q = classify(apply_group(GroupElement(x, 0), p))
            assert (q.class_code, q.decoration_shift) == (g.class_code, g.decoration_shift)
            assert q.internal_edges == g.internal_edges
            assert q.external_edges == g.external_edges
            assert q.corridors == g.corridors, (p, x)


def test_tracing_commutes_with_conjugation():
    # conj(p) = (conj a, conj b) has the mirrored complex: each of its lines
    # is the elementwise conjugate of one line of p, a line ending at a
    # turning point ends at the conjugate root (in conj(p)'s own root
    # order), and one ending at ray k ends at ray -1-k; so sector l of
    # conj(p) is sector -l of p, and every corridor maps wall by wall
    for a, b in random_potentials(47, 5, box=3.0):
        p, q = CubicPotential(a, b), CubicPotential(np.conj(a), np.conj(b))
        roots_p = np.array(turning_points(p).roots)
        to_p = [int(np.argmin(np.abs(np.conj(r) - roots_p))) for r in turning_points(q).roots]
        assert sorted(to_p) == list(range(len(roots_p)))
        gp, gq = classify(p), classify(q)
        lines_p, lines_q = gp.lines, gq.lines
        assert len(lines_q) == len(lines_p)
        line_to_p = []
        for lq in lines_q:
            mirror = [
                i for i, lp in enumerate(lines_p)
                if lp.origin == to_p[lq.origin] and len(lp.points) == len(lq.points)
                and np.max(np.abs(np.conj(lp.points) - lq.points)) <= 1e-10
            ]
            assert len(mirror) == 1, (a, b, lq.origin, lq.direction_index)
            line_to_p.append(mirror[0])
            kind, t = lines_p[mirror[0]].terminal
            kind_q, t_q = lq.terminal
            assert kind_q == kind
            if kind == "tp":
                assert to_p[t_q] == t
            else:
                assert kind == "ray" and t_q == (-1 - t + 2) % 5 - 2
        assert sorted(line_to_p) == list(range(len(lines_p)))

        def wall_to_p(wall):
            if wall[0] == "ext":
                return ("ext", line_to_p[wall[1]])
            i, j = sorted((to_p[wall[1]], to_p[wall[2]]))
            return ("int", i, j)

        for l in range(-2, 3):
            for k in range(-2, 3):
                assert gq.relation.related(l, k) == gp.relation.related(-l, -k)
                if k != l and gq.relation.related(l, k):
                    walls = tuple(wall_to_p(w) for w in gq.corridors[(l, k)])
                    assert walls == gp.corridors[(-l, -k)], (a, b, l, k)


def _orbit_point():
    _, a_star, b_star = real_orbit_constants()
    return CubicPotential(a_star, b_star)


def test_each_saddle_connection_is_traced_from_one_end(monkeypatch):
    # the two internal lines of the class-320 orbit point are each traced
    # once; the other end's line is the reversed polyline: 7 traces for 9
    # lines, still in the order of vertex, then direction
    p = _orbit_point()
    calls = []
    trace_one = stokes._trace_one

    def counting(*args):
        calls.append(args[2:4])
        return trace_one(*args)

    monkeypatch.setattr(stokes, "_trace_one", counting)
    lines = trace_stokes_lines(p)
    assert (len(calls), len(lines)) == (7, 9)
    assert [(ln.origin, ln.direction_index) for ln in lines] == [
        (i, d) for i, m in enumerate(turning_points(p).multiplicities) for d in range(m + 2)
    ]
    internal = [ln for ln in lines if ln.terminal[0] == "tp"]
    assert len(internal) == 4
    for ln in internal:
        (twin,) = [t for t in internal if (t.origin, t.terminal[1]) == (ln.terminal[1], ln.origin)]
        assert np.array_equal(twin.points, ln.points[::-1])
        # one of the two is traced, the other is not
        assert ((ln.origin, ln.direction_index) in calls) != ((twin.origin, twin.direction_index) in calls)
    g = classify(p)
    assert (g.class_code, g.decoration_shift) == ("320", 0)


def test_twin_direction_traced_elsewhere_leaves_the_connection_traced_once(monkeypatch):
    # the first trace that reaches another turning point is read as a ray:
    # the other end's trace then reaches the first vertex, in a direction
    # that is already traced, so no twin is made
    p = _orbit_point()
    trace_one = stokes._trace_one
    diverted = []

    def first_connection_to_a_ray(*args):
        ln = trace_one(*args)
        if ln.terminal[0] == "tp" and not diverted:
            diverted.append(ln)
            return stokes.StokesLine(ln.origin, ln.direction_index, ln.points, ("ray", 0))
        return ln

    monkeypatch.setattr(stokes, "_trace_one", first_connection_to_a_ray)
    lines = trace_stokes_lines(p)
    (ln,) = diverted
    back = [t for t in lines if (t.origin, t.terminal) == (ln.terminal[1], ("tp", ln.origin))]
    assert len(back) == 1
    assert not any(t.origin == ln.origin and t.terminal == ("tp", ln.terminal[1]) for t in lines)
    diverted.clear()
    with pytest.raises(AmbiguousClassError, match="traced 1 times"):
        classify(p)


# imaginary shifts (da, db) of the unit-scale orbit point (-1, b): at a
# period Re-score of at most 1e-8 the two saddle connections hold; at 1e-5
# and above the class is the one the two-ended trap gave (pinned from it)
_ORBIT_SHIFTS = [
    (1e-11j, 0, ("320", 0)),
    (-1e-10j, 0, ("320", 0)),
    (1e-9j, 0, ("320", 0)),
    (-3e-9j, 0, ("320", 0)),
    (0, 1e-11j, ("320", 0)),
    (0, -1e-10j, ("320", 0)),
    (1e-4j, 0, ("300", 2)),
    (-3e-4j, 0, ("300", 3)),
    (1e-3j, 0, ("300", 2)),
    (-1e-2j, 0, ("300", 3)),
    (3e-2j, 0, ("300", 2)),
    (0, 3e-6j, ("300", 2)),
    (0, -1e-5j, ("300", 3)),
    (0, 1e-4j, ("300", 2)),
    (0, -3e-4j, ("300", 3)),
    (0, 1e-3j, ("300", 2)),
    (0, -1e-2j, ("300", 3)),
]


@pytest.mark.parametrize("da, db, want", _ORBIT_SHIFTS)
def test_a_saddle_connection_is_decided_by_the_level_offset(da, db, want):
    o = real_orbit_potential()
    p = CubicPotential(o.a + da, o.b + db)
    score = min(_pair_scores(p, list(turning_points(p).roots), 1e-10).values())
    assert score <= 1e-8 if want[0] == "320" else score >= 1e-5
    g = classify(p)
    assert (g.class_code, g.decoration_shift) == want

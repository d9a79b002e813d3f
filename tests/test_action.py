import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicwkb import action
from cubicwkb.action import (
    ClearanceError,
    _continue,
    _gauss_panel,
    _seg_min_dist,
    _split_points,
    alpha_at,
    alpha_integral,
    alpha_ray_tail,
    cycle_period,
    label_turning_points_by_periods,
    line_action,
    safe_nodes,
)
from cubicwkb.potential import (
    OMEGA,
    CubicPotential,
    GroupElement,
    apply_group,
    turning_points,
)


def trapezoid_oracle(p, z0, z1, n=1_000_000, seed_sign=1.0):
    """Dense-sampling oracle with naive nearest-continuation of sqrt(V)."""
    ts = np.linspace(0.0, 1.0, n + 1)
    zs = z0 + ts * (z1 - z0)
    vals = np.sqrt(p(zs))
    w = vals[0] * seed_sign
    out = np.empty_like(vals)
    for i, v in enumerate(vals):
        if abs(v - w) > abs(v + w):
            v = -v
        out[i] = v
        w = v if v != 0 else w
    return np.trapezoid(out, dx=1.0 / n) * (z1 - z0)


def test_pure_cubic_action_is_four_fifths():
    p = CubicPotential(0, 0)
    v = line_action(p, (0.0, 1.0), 2.0)
    assert v.value == pytest.approx(0.8, abs=1e-12)


def test_reversed_path_negates():
    p = CubicPotential(0, 0)
    fwd = line_action(p, (0.0, 1.0), 2.0)
    rev = line_action(p, (1.0, 0.0), 2.0)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-12)


def test_line_action_matches_dense_trapezoid():
    p = CubicPotential(2, 0)
    got = line_action(p, (1.0, 2.0), np.sqrt(24.0))
    oracle = trapezoid_oracle(p, 1.0, 2.0)
    assert abs(got.value - oracle) < 1e-8


def test_line_action_across_every_principal_cut():
    # the roots of (2, 0) are -1, 0 and 1; the polyline's middle segment
    # crosses the real axis at -3, on the principal cut of all three factors
    p = CubicPotential(2, 0)
    nodes = (2.0 + 0.3j, -3.0 + 0.3j, -3.0 - 0.3j, 2.0 - 0.3j)
    seed = np.sqrt(p(nodes[0]))
    got = line_action(p, nodes, seed).value
    oracle, w = 0.0, seed
    for z0, z1 in zip(nodes[:-1], nodes[1:]):
        sign = 1.0 if abs(np.sqrt(p(z0)) - w) < abs(np.sqrt(p(z0)) + w) else -1.0
        oracle += trapezoid_oracle(p, z0, z1, n=200_000, seed_sign=sign)
        w = _continued(p, z0, z1, w)
    assert abs(got - oracle) < 1e-8 * abs(oracle)

    # additivity from a turning point to a turning point across the cuts
    path = (1.0,) + nodes[:3] + (-1.0,)
    whole = line_action(p, path, seed).value
    head = line_action(p, path[:2], seed).value
    body = line_action(p, path[1:4], seed).value
    w = _continued(p, path[2], path[3], _continued(p, path[1], path[2], seed))
    tail = line_action(p, path[3:], w).value
    assert head + body + tail == pytest.approx(whole, abs=1e-10)


def test_concatenation_additivity():
    p = CubicPotential(1.0 + 0.5j, 0.3)
    seed = np.sqrt(p(3.0 + 1.0j))
    ab = line_action(p, (3.0 + 1.0j, 3.0 - 1.5j), seed)
    seed_b = np.sqrt(p(3.0 - 1.5j))
    if abs(seed_b - _continued(p, 3.0 + 1.0j, 3.0 - 1.5j, seed)) > abs(
        seed_b + _continued(p, 3.0 + 1.0j, 3.0 - 1.5j, seed)
    ):
        seed_b = -seed_b
    bc = line_action(p, (3.0 - 1.5j, -2.0 - 2.0j), seed_b)
    ac = line_action(p, (3.0 + 1.0j, 3.0 - 1.5j, -2.0 - 2.0j), seed)
    assert ab.value + bc.value == pytest.approx(ac.value, abs=1e-9)


def _continued(p, z0, z1, w, n=500):
    for t in np.linspace(0, 1, n)[1:]:
        v = np.sqrt(p(z0 + t * (z1 - z0)))
        w = -v if abs(v + w) < abs(v - w) else v
    return w


def test_deformation_invariance():
    p = CubicPotential(1.0, 0.4 + 0.2j)
    seed = np.sqrt(p(4.0))
    direct = line_action(p, (4.0, 4.0j), seed)
    detour = line_action(p, (4.0, 4.0 + 4.0j, 4.0j), seed)
    assert direct.value == pytest.approx(detour.value, abs=1e-8)


def test_clearance_violation_raises():
    p = CubicPotential(2, 0)  # roots at 0, +-1
    with pytest.raises(ClearanceError):
        line_action(p, (-2.0, 2.0), np.sqrt(complex(p(-2.0))))


def test_alpha_integral_refuses_a_path_through_a_turning_point():
    # the second segment runs through the root 0; 1e-2 above it, it passes
    # outside the default clearance of 1e-3 separations
    p = CubicPotential(2, 0)  # roots at 0, +-1
    with pytest.raises(ClearanceError):
        alpha_integral(p, (2.0j, 0.5, -0.5))
    assert alpha_integral(p, (2.0j, 0.5 + 1e-2j, -0.5 + 1e-2j)) > 0
    with pytest.raises(ClearanceError):
        alpha_integral(p, (2.0j, 0.5 + 1e-2j, -0.5 + 1e-2j), clearance=2e-2)


def test_a_path_too_near_a_root_is_refused_before_any_quadrature(monkeypatch):
    # only the last segment of each path breaks the clearance; a quadrature
    # that would stall on the earlier segments must not be reached
    def stall(*args, **kw):
        raise action.QuadratureError("stalled")

    monkeypatch.setattr(action, "_adaptive", stall)
    p = CubicPotential(2, 0)  # roots at 0, +-1
    seed = np.sqrt(complex(p(2.0j)))
    for path in [(2.0j, 2.0, 0.5, -0.5), (2.0j, 2.0, 1e-4j)]:
        with pytest.raises(ClearanceError):
            line_action(p, path, seed)
        with pytest.raises(ClearanceError):
            alpha_integral(p, path)
    with pytest.raises(ClearanceError):  # from the turning point 1
        line_action(p, (1.0, 2.0j, 0.5, -0.5), seed)
    with pytest.raises(action.QuadratureError):
        line_action(p, (2.0j, 2.0, 0.5 + 1e-2j), seed)


def _sweep(p, start, apex, end, tol=1e-11):
    """line_action from the turning point start through apex to the turning
    point end, on the sheet of the principal factors at apex."""
    roots = np.array(turning_points(p).all_with_repeats)
    seed = 2.0 * complex(np.prod(np.sqrt(apex - roots)))
    return line_action(p, (start, apex, end), seed, tol=tol)


def _labels(tp0, tp1, tpm1):
    return {"tp0": tp0, "tp1": tp1, "tp-1": tpm1}


def test_cycle_period_rejects_labels_on_one_root():
    # two labels of one cycle that snap to the same root have no period
    p = CubicPotential(2, 0)
    with pytest.raises(ValueError):
        cycle_period(p, "a1", labels=_labels(1.0, 1.0 + 1e-9, -1.0))


def test_turning_point_action_antisymmetry():
    # the sweep changes sign with its direction; the oriented period does not
    p = CubicPotential(2, 0)
    a = _sweep(p, 0.0, 0.5 + 0.5j, 1.0)
    b = _sweep(p, 1.0, 0.5 + 0.5j, 0.0)
    assert a.value == pytest.approx(-b.value, abs=1e-12)
    fwd = cycle_period(p, "a1", labels=_labels(0.0, 1.0, -1.0)).value
    rev = cycle_period(p, "a1", labels=_labels(1.0, 0.0, -1.0)).value
    assert fwd == pytest.approx(rev, abs=1e-12)


def test_turning_point_action_side_hint_path_keeps_clearance():
    # from 0 via 2 to 1 on (2, 0), the first leg runs through the root 1
    with pytest.raises(ClearanceError):
        _sweep(CubicPotential(2, 0), 0.0, 2.0, 1.0)


def test_turning_point_action_value_against_oracle():
    # V < 0 between the roots 0 and 1, so the action is purely imaginary
    p = CubicPotential(2, 0)
    got = cycle_period(p, "a1", labels=_labels(0.0, 1.0, -1.0)).value
    import scipy.integrate as si

    mag, _ = si.quad(lambda t: np.sqrt(-(4 * t**3 - 4 * t)), 0, 1, limit=200)
    assert abs(got.real) < 1e-10
    assert abs(got.imag) == pytest.approx(mag, abs=1e-9)


def test_turning_point_action_rejects_non_turning_points():
    p = CubicPotential(2, 0)
    with pytest.raises(ValueError):
        cycle_period(p, "a1", labels=_labels(0.5, 1.0, -1.0))


def test_turning_point_action_rejects_multiple_roots():
    p = CubicPotential(6.0, 2.0 / 7.0)  # double point at -1
    with pytest.raises(ValueError):
        cycle_period(p, "a1", labels=_labels(-1.0, 2.0, 2.0))


def test_cycle_period_against_loop_oracle():
    # direct loop quadrature around the pair {-1, 0} on a dumbbell contour
    p = CubicPotential(2, 0)
    tpa = cycle_period(p, "a1", labels=_labels(-1.0, 0.0, 1.0)).value

    # loop oracle: rectangle around [-1, 0] with branch marching
    corners = [-1.3 - 0.4j, 0.3 - 0.4j, 0.3 + 0.4j, -1.3 + 0.4j, -1.3 - 0.4j]
    total = 0.0 + 0.0j
    w = np.sqrt(p(corners[0]))
    for z0, z1 in zip(corners[:-1], corners[1:]):
        n = 200000
        ts = np.linspace(0, 1, n + 1)
        zs = z0 + ts * (z1 - z0)
        vals = np.sqrt(p(zs))
        out = np.empty_like(vals)
        for i, v in enumerate(vals):
            if abs(v - w) > abs(v + w):
                v = -v
            out[i] = v
            w = v
        total += np.trapezoid(out, dx=1.0 / n) * (z1 - z0)
    # the loop integral equals twice the segment integral up to orientation
    assert abs(abs(total) - 2 * abs(tpa)) < 1e-6


def test_cycle_period_orientation_convention(orbit_potential):
    labels = label_turning_points_by_periods(orbit_potential)
    p1 = cycle_period(orbit_potential, "a1", labels=labels)
    p2 = cycle_period(orbit_potential, "a-1", labels=labels)
    assert p1.value.imag > 0
    assert p2.value.imag < 0
    # real potential: the two periods are conjugate
    assert p2.value == pytest.approx(np.conj(p1.value), abs=1e-10)
    # on the quantizing orbit the period is purely imaginary
    assert abs(p1.value.real) < 1e-10 * abs(p1.value)


def test_period_scaling_covariance(orbit_potential):
    labels = label_turning_points_by_periods(orbit_potential)
    base = cycle_period(orbit_potential, "a1", labels=labels).value
    for x in (0.7, 1.9):
        q = apply_group(GroupElement(x, 0), orbit_potential)
        lab_q = {k: x * v for k, v in labels.items()}
        got = cycle_period(q, "a1", labels=lab_q).value
        assert got == pytest.approx(x**2.5 * base, rel=1e-9)


def test_period_jacobian_vs_central_differences(orbit_potential):
    p = orbit_potential
    labels = label_turning_points_by_periods(p)
    da, db = cycle_period(p, "a1", labels=labels).gradient
    h = 1e-5

    def period_at(a, b):
        q = CubicPotential(a, b)
        return cycle_period(q, "a1", labels=label_turning_points_by_periods(q)).value

    fd_a = (period_at(p.a + h, p.b) - period_at(p.a - h, p.b)) / (2 * h)
    fd_b = (period_at(p.a, p.b + h) - period_at(p.a, p.b - h)) / (2 * h)
    assert da == pytest.approx(fd_a, rel=1e-6)
    assert db == pytest.approx(fd_b, rel=1e-6)


def test_jacobian_scaling_exponent(orbit_potential):
    # dP/da scales as x^{1/2} under the pure rescaling (x, 0)
    labels = label_turning_points_by_periods(orbit_potential)
    da, _ = cycle_period(orbit_potential, "a1", labels=labels).gradient
    x = 1.7
    q = apply_group(GroupElement(x, 0), orbit_potential)
    lab_q = {k: x * v for k, v in labels.items()}
    da2, _ = cycle_period(q, "a1", labels=lab_q).gradient
    assert da2 == pytest.approx(np.sqrt(x) * da, rel=1e-8)


def _tracked_period(a, b, labels, cycle_id):
    """cycle_period at (a, b) with the labels moved to the nearest roots."""
    q = CubicPotential(a, b)
    roots = list(turning_points(q).roots)
    lab = {name: min(roots, key=lambda r: abs(r - z)) for name, z in labels.items()}
    return cycle_period(q, cycle_id, labels=lab).value


def _central_differences(p, labels, cycle_id, h):
    fd_a = (
        _tracked_period(p.a + h, p.b, labels, cycle_id)
        - _tracked_period(p.a - h, p.b, labels, cycle_id)
    ) / (2 * h)
    fd_b = (
        _tracked_period(p.a, p.b + h, labels, cycle_id)
        - _tracked_period(p.a, p.b - h, labels, cycle_id)
    ) / (2 * h)
    return fd_a, fd_b


def _from_roots(r0, r1, r2):
    """The potential with roots r0, r1, r2 moved to sum zero, and those roots."""
    c = (r0 + r1 + r2) / 3
    r0, r1, r2 = r0 - c, r1 - c, r2 - c
    p = CubicPotential(-2 * (r0 * r1 + r0 * r2 + r1 * r2), r0 * r1 * r2 / 7)
    roots = list(turning_points(p).roots)
    return p, [min(roots, key=lambda r: abs(r - z)) for z in (r0, r1, r2)]


def test_gradient_follows_the_hop_over_a_root_on_the_chord():
    # tp-1 sits within 0.05 |tp1 - tp0| of the chord midpoint, so the period
    # path hops over it; the gradient must be taken along that same path
    p, roots = _from_roots(-1 - 0.01j, 1 - 0.01j, 0.02j)
    labels = dict(zip(("tp0", "tp1", "tp-1"), roots))
    da, db = cycle_period(p, "a1", labels=labels).gradient
    fd_a, fd_b = _central_differences(p, labels, "a1", 1e-6)
    assert da == pytest.approx(fd_a, rel=1e-6)
    assert db == pytest.approx(fd_b, rel=1e-6)


def _hop_zone_potentials(n, seed):
    """Potentials whose third root lies within 0.05 |chord| of the midpoint
    of the chord between the other two (the labels tp0, tp1)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        r0, r1 = (complex(*rng.normal(size=2)) for _ in range(2))
        w = 0.099 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        out.append(_from_roots(r0, r1, 0.5 * (r0 + r1) + 0.5 * w * (r1 - r0)))
    return out


def test_period_rule_matches_the_adaptive_sweep():
    # the period rule against the adaptive two-leg sweep through the same apex
    # (the chord midpoint, or the hop apex m + i h), up to orientation
    box = [CubicPotential(a, b) for a, b in (
        (1.1 + 0.4j, -0.3 + 0.2j), (-0.7 - 1.2j, 0.5 + 0.1j), (2.0 - 0.5j, -0.4j), (0.4, -0.3),
    )]
    cases = [(p, list(turning_points(p).roots)) for p in box] + _hop_zone_potentials(6, seed=11)
    for p, (r0, r1, r2) in cases:
        labels = {"tp0": r0, "tp1": r1, "tp-1": r2}
        for cycle_id, end, third in (("a1", r1, r2), ("a-1", r2, r1)):
            m, h = 0.5 * (r0 + end), 0.5 * (end - r0)
            apex = m + 1j * h if abs(third - m) < 0.05 * abs(end - r0) else m
            ref = _sweep(p, r0, apex, end, tol=1e-13)
            period = cycle_period(p, cycle_id, labels=labels)
            err = min(abs(period.value - ref.value), abs(period.value + ref.value))
            assert err <= 1e-11 * max(1.0, abs(ref.value))
            assert err <= period.est_error + ref.est_error


def test_period_rule_bends_away_from_a_root_on_the_chord():
    # three real roots: the outer pair's chord runs through the middle root,
    # off its midpoint, so the arc bends to the side of the chord opposite to
    # the root's rounding-level imaginary part
    p = CubicPotential(3.0, 0.1)
    lo, mid, hi = sorted(turning_points(p).roots, key=lambda r: r.real)
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    assert abs(mid - m) > 0.05 * abs(hi - lo)
    away = 1j * h if ((mid - m) / h).imag < 0 else -1j * h
    ref = _sweep(p, lo, m + away, hi, tol=1e-13)
    rule = cycle_period(p, "a1", labels=_labels(lo, hi, mid))
    err = min(abs(rule.value - ref.value), abs(rule.value + ref.value))
    assert err <= 1e-11 * max(1.0, abs(ref.value))
    assert err <= rule.est_error + ref.est_error


_box = st.floats(-3.0, 3.0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    st.tuples(_box, _box, _box, _box),
    st.sampled_from(["a1", "a-1"]),
    st.floats(0.6, 1.8),
    st.integers(0, 4),
)
def test_gradient_property(coords, cycle_id, x, m):
    p = CubicPotential(complex(coords[0], coords[1]), complex(coords[2], coords[3]))
    tps = turning_points(p)
    assume(len(tps.roots) == 3 and tps.separation >= 0.3 * tps.scale)
    labels = dict(zip(("tp0", "tp1", "tp-1"), tps.roots))
    base = cycle_period(p, cycle_id, labels=labels)
    da, db = base.gradient
    fd_a, fd_b = _central_differences(p, labels, cycle_id, 1e-6)
    assert da == pytest.approx(fd_a, rel=1e-6)
    assert db == pytest.approx(fd_b, rel=1e-6)
    # (x, m) moves the roots to x w^m lambda and scales the period by x^{5/2},
    # dP/da by x^{1/2} w^{-2m}, dP/db by x^{-1/2} w^{-3m}
    q = apply_group(GroupElement(x, m), p)
    w = OMEGA**m
    scaled = cycle_period(q, cycle_id, labels={k: x * w * v for k, v in labels.items()})
    assert scaled.value == pytest.approx(x**2.5 * base.value, rel=1e-8)
    assert scaled.gradient[0] == pytest.approx(x**0.5 * w**-2 * da, rel=1e-8)
    assert scaled.gradient[1] == pytest.approx(x**-0.5 * w**-3 * db, rel=1e-8)
    # Legendre's relation: the two cycles meet once, so det J = +-7 pi i
    other = cycle_period(p, "a-1" if cycle_id == "a1" else "a1", labels=labels).gradient
    det = da * other[1] - db * other[0]
    assert abs(abs(det) - 7 * np.pi) <= 1e-12 * 7 * np.pi
    assert abs(det.real) <= 1e-12 * 7 * np.pi


def _detour_cases():
    """(a, b, roots, clearance): three roots on the chord, and seeded chords
    with roots near them, each at least 3 clearances from both ends and 6
    from each other (else no detour can keep the clearance)."""
    cases = [(-0.02, 0.02, (-0.01, 0.0, 0.01), 0.001)]
    rng = np.random.default_rng(5)
    while len(cases) < 60:
        a, b = (complex(*rng.normal(size=2)) for _ in range(2))
        roots = [a + (b - a) * rng.uniform() + 0.05 * complex(*rng.normal(size=2))
                 for _ in range(3)]
        c = 0.05 * rng.uniform()
        if (min(abs(r - e) for r in roots for e in (a, b)) >= 3 * c
                and min(abs(r - q) for r in roots for q in roots if r is not q) >= 6 * c):
            cases.append((a, b, tuple(roots), c))
    return cases


def test_safe_nodes_detours_keep_the_clearance_close_to_the_chord():
    for a, b, roots, c in _detour_cases():
        nodes = safe_nodes(a, b, roots, c)
        assert nodes[0] == a and nodes[-1] == b
        for u, v in zip(nodes[:-1], nodes[1:]):
            assert all(_seg_min_dist(u, v, r) >= c for r in roots)
        # each waypoint sits 2.5 clearances off a root, not a chord length
        for z in nodes[1:-1]:
            assert min(abs(z - r) for r in roots) == pytest.approx(2.5 * c, rel=1e-12)
        x = 3.7
        scaled = safe_nodes(x * a, x * b, [x * r for r in roots], x * c)
        assert np.allclose(scaled, [x * z for z in nodes], rtol=0, atol=1e-12 * x)
    # a root at an end of the chord is the endpoint's own, and needs no detour
    assert safe_nodes(0.0, 1.0, (0.0, 1.0, 0.5 + 0.5j), 0.01) == [0.0, 1.0]


def test_alpha_closed_form_pure_cubic():
    # V = 4x^3: |alpha| = (21/64) x^{-7/2}; over [1, inf) the integral is 21/160
    p = CubicPotential(0, 0)
    tail = alpha_ray_tail(p, 1.0)
    assert tail == pytest.approx(21.0 / 160.0, rel=1e-10)


def test_alpha_tail_decay_rate():
    p = CubicPotential(0, 0)
    for R in (2.0, 5.0, 11.0):
        assert alpha_ray_tail(p, R) == pytest.approx(
            (21.0 / 160.0) * R**-2.5, rel=1e-9
        )


def test_alpha_integral_scaling():
    p = CubicPotential(1.1, 0.4)
    base = alpha_integral(p, (2.0, 2.0 + 2.0j))
    x = 1.6
    q = apply_group(GroupElement(x, 0), p)
    scaled = alpha_integral(q, (2.0 * x, (2.0 + 2.0j) * x))
    assert scaled == pytest.approx(x**-2.5 * base, rel=1e-9)


def test_gauss_rules_match_leggauss():
    # the rules built by Newton on P_n: nodes as numpy's leggauss gives them,
    # and nodes and weights within 1e-15 of 30-digit ones (leggauss's own
    # 40-node weights are up to 3.2e-15 off)
    mp = pytest.importorskip("mpmath")
    for n in (20, 40):
        rule = action._gauss_legendre(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(np.array([xk for xk, _ in rule]) - x)) <= 1e-15
        assert np.max(np.abs(np.array([wk for _, wk in rule]) - w)) <= 4e-15
        with mp.workdps(30):
            for xk, wk in rule:
                root = mp.findroot(lambda t: mp.legendre(n, t), xk)
                dP = mp.diff(lambda t: mp.legendre(n, t), root)
                assert abs(xk - root) <= 1e-15
                assert abs(wk - 2 / ((1 - root**2) * dP**2)) <= 1e-15


def test_gauss_panel_sums_each_rule_bit_for_bit():
    # the one pass over both rules' nodes gives each rule's own sum: on
    # |alpha| and on the sheet-continued integrand of _integrate_regular,
    # over whole and partial panels
    rules = [action._gauss_legendre(n) for n in (40, 20)]

    def two_sums(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        sums = []
        for rule in rules:
            total = 0.0
            for xk, wk in rule:
                total += wk * f(mid + half * xk)
            sums.append(total)
        return half * sums[0], abs(half * (sums[0] - sums[1]))

    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(20):
        a, b = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
        p = CubicPotential(complex(a), complex(b))
        roots = turning_points(p).all_with_repeats
        u, v = (complex(z) for z in rng.uniform(-4, 4, 2) + 1j * rng.uniform(-4, 4, 2))

        def f_alpha(ts, u=u, v=v, p=p):
            return alpha_at(p, u + ts * (v - u)) * abs(v - u)

        fs = [f_alpha]
        pieces = _split_points(u, v, roots)
        vals = [cmath.sqrt(pieces[0] - r) for r in roots]
        for x0, x1 in zip(pieces[:-1], pieces[1:]):

            def f_sheet(s, x0=x0, x1=x1, vals=vals, roots=roots):
                return 2.0 * math.prod(_continue(vals, x0, x0 + s * (x1 - x0), roots)) * (x1 - x0)

            fs.append(f_sheet)
            vals = _continue(vals, x0, x1, roots)
        for f in fs:
            for lo, hi in ((0.0, 1.0), (0.0, 0.5), (0.25, 0.375)):
                assert _gauss_panel(f, lo, hi) == two_sums(f, lo, hi)
                checked += 1
    assert checked > 60


def _split_points_by_seg_min_dist(a, b, roots, skip=(), clearance=0.0):
    """_split_points with the distance taken from _seg_min_dist."""
    out = []
    stack = [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        dmin = min(
            (_seg_min_dist(u, v, r) for i, r in enumerate(roots) if i not in skip),
            default=np.inf,
        )
        if depth == 0 and dmin < clearance:
            raise ClearanceError("too near a root")
        if abs(v - u) <= 0.5 * dmin or depth > 48 or v == u:
            out.append((u, v))
        else:
            mid = 0.5 * (u + v)
            stack.append((mid, v, depth + 1))
            stack.append((u, mid, depth + 1))
    out.sort(key=lambda seg: abs(seg[0] - a))
    return [s[0] for s in out] + [b]


def _outcome(split, args, kw):
    """What split returns for the arguments, or ClearanceError if it raises it."""
    try:
        return split(*args, **kw)
    except ClearanceError:
        return ClearanceError


def test_split_points_equals_the_seg_min_dist_form_bit_for_bit(monkeypatch):
    # the arguments of every call made by the relative errors and line
    # actions of a few potentials, then random segments with skips, a segment
    # of length zero and segments through a root, all without a clearance so
    # that every split is compared; then each random segment and each segment
    # through a root again with a clearance, where the refusals must agree
    split = action._split_points
    cases = []
    monkeypatch.setattr(action, "_split_points",
                        lambda *args, **kw: cases.append((args, kw)) or split(*args, **kw))
    from cubicwkb.bsb import real_orbit_potential
    from cubicwkb.stokes import classify
    from cubicwkb.wkb import relative_errors

    rng = np.random.default_rng(23)
    potentials = [real_orbit_potential()] + [
        CubicPotential(*(rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2))) for _ in range(4)]
    for p in potentials:
        relative_errors(classify(p))
        z = 0.3 + 0.2j
        for end in (2.5 - 1j, turning_points(p).roots[0]):
            line_action(p, (z, end), np.sqrt(p(z)))
    assert len(cases) > 40
    for _ in range(40):
        roots = list(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3))
        a, b = (complex(z) for z in rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2))
        skip = set(int(i) for i in rng.choice(3, size=int(rng.integers(0, 3)), replace=False))
        cases.append(((a, b, roots), {"skip": skip}))
    cases += [((1 + 1j, 1 + 1j, [0j, 2j]), {}), ((-1 + 0j, 1 + 0j, [0j]), {}),
              ((0j, 2 + 2j, [1 + 1j, 3j]), {"skip": {1}}), ((0j, 1j, [2 + 0j]), {"skip": {0}})]
    for args, kw in cases:
        assert split(*args, **kw) == _split_points_by_seg_min_dist(*args, **kw)
    refusable = [(args, {**kw, "clearance": float(rng.uniform(0, 0.5))}) for args, kw in cases[-44:-4]]
    refusable += [((-1 + 0j, 1 + 0j, [0j]), {"clearance": 1e-3}),
                  ((0j, 2 + 2j, [1 + 1j, 3j]), {"skip": {1}, "clearance": 1e-3})]
    outcomes = [_outcome(split, args, kw) for args, kw in refusable]
    assert ClearanceError in outcomes and any(isinstance(o, list) for o in outcomes)
    for (args, kw), got in zip(refusable, outcomes):
        assert got == _outcome(_split_points_by_seg_min_dist, args, kw)

import json
import logging
import warnings

import numpy as np
import pytest

import cubicwkb.monodromy as monodromy
from conftest import random_potentials, root_split, split_pair
from cubicwkb.action import line_action
from cubicwkb.bsb import real_poles
from cubicwkb.cli import EXIT_NUMERICAL, main
from cubicwkb.monodromy import (
    MonodromyError,
    _formal_series,
    _radial_leg,
    _sector_starts,
    _taylor_step,
    _transport,
    default_radius,
    stokes_multipliers,
    tritronquee_test,
)
from cubicwkb.potential import _ROOT_TOL, CubicPotential, turning_points

GOLDEN = (1 + np.sqrt(5)) / 2


def _bessel_k_psi(mp, x):
    # exact recessive solution of V = 4x^3 on ray 0, analytic for |arg x| < 2 pi/5
    z = mp.mpf(4) / 5 * x ** mp.mpf(2.5)
    return mp.sqrt(8 / (5 * mp.pi)) * mp.sqrt(x) * mp.besselk(mp.mpf(1) / 5, z)


@pytest.fixture(scope="module")
def sigma_00():
    return stokes_multipliers(CubicPotential(0, 0))


@pytest.fixture(scope="module")
def sigma_04():
    return stokes_multipliers(CubicPotential(0.4, -0.3))


def test_symmetric_cubic_multipliers_equal(sigma_00):
    s = sigma_00
    vals = [s.sigma[k] for k in range(-2, 3)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-8)


def test_symmetric_cubic_golden_ratio(sigma_00):
    # the unique uniform admissible value: 1 + s^2 = -i s => s = -i * golden
    assert sigma_00.sigma[0] == pytest.approx(-1j * GOLDEN, abs=1e-8)


def test_admissibility_residuals_tiny(sigma_00):
    assert sigma_00.max_admissibility_residual < 1e-8


def test_two_point_agreement_and_drift(sigma_00):
    assert sigma_00.two_point_spread < 1e-8


def test_radius_robustness(sigma_04):
    p = CubicPotential(0.4, -0.3)
    s1 = sigma_04
    s2 = stokes_multipliers(p, R=1.25 * default_radius(p))
    for k in range(-2, 3):
        assert s1.sigma[k] == pytest.approx(s2.sigma[k], rel=1e-7, abs=1e-8)
    # est_error accounts for the change of radius (moved / (est_1 + est_2)
    # measured 1.7; the transport tolerance dominates both estimates)
    moved = max(abs(s1.sigma[k] - s2.sigma[k]) for k in range(-2, 3))
    assert moved <= 4.0 * (s1.est_error + s2.est_error)


def test_est_error_follows_rtol(sigma_04):
    # a looser transport tolerance moves sigma, and est_error says by how much
    loose = stokes_multipliers(CubicPotential(0.4, -0.3), rtol=1e-8)
    moved = max(abs(loose.sigma[k] - sigma_04.sigma[k]) for k in range(-2, 3))
    assert moved <= 4.0 * loose.est_error
    assert loose.est_error > 100.0 * sigma_04.est_error


def test_admissibility_on_random_real_sample():
    for a, b in random_potentials(17, 5, box=3.0, real=True):
        s = stokes_multipliers(CubicPotential(a, b))
        assert s.max_normalized_residual < 1e-6


def test_radius_guard(capsys):
    # a circle this close to the turning points gives wrong multipliers
    with pytest.raises(MonodromyError):
        stokes_multipliers(CubicPotential(2, 0), R=1.5)
    code = main(["verify", "--a", "2", "--b", "0", "--radius", "1.5"])
    assert code == EXIT_NUMERICAL
    assert "R too small" in capsys.readouterr().err
    # a radius at or inside the foot circle |x| = 1 of (0, 0): the radial
    # legs would run outward
    for small in ("1e-7", "0.3", "1"):
        with pytest.raises(MonodromyError):
            stokes_multipliers(CubicPotential(0, 0), R=float(small))
        code = main(["verify", "--a", "0", "--b", "0", "--radius", small])
        assert code == EXIT_NUMERICAL
        assert "foot circle" in capsys.readouterr().err
    # a non-finite radius is refused before any quadrature runs on it
    for bad in ("nan", "inf"):
        with pytest.raises(MonodromyError):
            stokes_multipliers(CubicPotential(0, 0), R=float(bad))
        code = main(["verify", "--a", "0", "--b", "0", "--radius", bad])
        assert code == EXIT_NUMERICAL
        assert "finite radius" in capsys.readouterr().err


def test_formal_series_matches_mpmath():
    # the float coefficients against the same recurrence in 50 digits, and
    # the truncated Y = psi'/psi against the Riccati equation Y' + Y^2 = V
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    n = len(_formal_series(CubicPotential(0, 0)))
    with mp.workdps(50):
        for _ in range(4):
            a, b = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
            p = CubicPotential(complex(a), complex(b))
            A, B = mp.mpc(a), mp.mpc(b)
            ref = [mp.mpc(0)] * n  # ref[j + 3] = d_j
            ref[0], ref[4], ref[5] = mp.mpf(-2), A / 2, -mp.mpf(3) / 4
            for m in range(n - 6):
                V_m = -28 * B if m == 0 else 0
                conv = mp.fsum(ref[i + 3] * ref[m - i + 3] for i in range(-2, m + 3))
                ref[m + 6] = (V_m - conv + mp.mpf(m - 2) / 2 * ref[m + 1]) / (2 * ref[0])
            d = _formal_series(p)
            for got, want in zip(d, ref):
                assert abs(mp.mpc(got) - want) <= 1e-13 * (abs(want) + 1)

            # 40 terms reach the rounding floor at the radius max(8, 4 (1 + scale))
            R = max(8.0, 4.0 * (1.0 + turning_points(p).scale))
            for k in range(-2, 3):
                s = (-1) ** k * mp.sqrt(R) * mp.expjpi(mp.mpf(k) / 5)
                terms = [ref[i] * s ** (3 - i) for i in range(40)]
                Y = mp.fsum(terms)
                dY = mp.fsum(-(i - 3) / (2 * s**2) * t for i, t in enumerate(terms))
                V = 4 * s**6 - 2 * A * s**2 - 28 * B
                assert abs(dY + Y**2 - V) <= 1e-13 * abs(V)
    d = _formal_series(CubicPotential(0, 0))
    assert d[5] == -0.75 and d[10] == 21 / 64
    assert _formal_series(CubicPotential(1.5 - 2j, 0.3))[4] == 0.75 - 1j


@pytest.mark.parametrize("R", [4.0, 8.0])
def test_ray_normalization_matches_bessel_k(R):
    # V = 4x^3: the recessive solution of ray 0 is
    # sqrt(8/(5 pi)) sqrt(x) K_{1/5}((4/5) x^{5/2}) ~ x^{-3/4} e^{-(4/5) x^{5/2}};
    # by the Z5 symmetry the other rays carry rotated copies of equal modulus
    mp = pytest.importorskip("mpmath")
    starts = _sector_starts(CubicPotential(0, 0), R)
    with mp.workdps(50):
        psi = _bessel_k_psi(mp, mp.mpf(R))
        dpsi = mp.diff(lambda x: _bessel_k_psi(mp, x), mp.mpf(R))
        for k in range(-2, 3):
            v, dv, logN, _ = starts[k]
            scale = mp.exp(mp.mpc(logN))
            got, dgot = mp.mpc(v) * scale, mp.mpc(dv) * scale
            if k == 0:
                assert abs(got - psi) <= 1e-9 * abs(psi)
                assert abs(dgot - dpsi) <= 1e-9 * abs(dpsi)
            else:
                assert abs(abs(got) - abs(psi)) <= 1e-9 * abs(psi)
                assert abs(abs(dgot) - abs(dpsi)) <= 1e-9 * abs(dpsi)


def test_initial_data_error_estimate_bounds_bessel_k():
    # below R = 3.5 the series stops at its smallest window (optimal
    # truncation), about twice the error and 4.6e-12 at R = 3; above, the
    # rounding floor bounds it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for R in (1.5, 2.0, 2.5, 3.0, 4.0, 8.0):
            _, _, logN, est = _sector_starts(CubicPotential(0, 0), R)[0]
            psi = _bessel_k_psi(mp, mp.mpf(R))
            err = abs(mp.exp(mp.mpc(logN)) / psi - 1)
            assert err <= est
            if R <= 3.0:
                assert est <= 4.0 * err
            if R == 3.0:
                assert est < 1e-11


def test_transport_matches_bessel_k():
    # the exact solution of V = 4x^3 carried inward along the ray, where it
    # grows by e^145, then off it
    mp = pytest.importorskip("mpmath")

    def exact(x):
        return _bessel_k_psi(mp, x)

    nodes = [complex(r) for r in np.geomspace(8.0, 1.0, 4)]
    nodes += [1.2 * np.exp(1j * np.pi / 5), 1.5 * np.exp(-1j * np.pi / 4)]
    with mp.workdps(40):
        psi0 = exact(mp.mpf(8))
        dv = complex(mp.diff(exact, mp.mpf(8)) / psi0)
        l0 = complex(mp.log(psi0))
        states = _transport(CubicPotential(0, 0), nodes, 1.0 + 0j, dv, l0, 1e-13)
        for x, (v, dv, l, _) in zip(nodes, states):
            X = mp.mpc(x)
            psi, dpsi = exact(X), mp.diff(exact, X)
            scale = mp.exp(mp.mpc(l))
            assert abs(mp.mpc(v) * scale - psi) <= 1e-11 * abs(psi)
            assert abs(mp.mpc(dv) * scale - dpsi) <= 1e-11 * abs(dpsi)


def test_initial_data_error_per_sector(sigma_04, tmp_path):
    # est_error includes the initial-data error of each of the five sectors,
    # and verify reports them
    errs = sigma_04.init_errors
    assert len(errs) == 5 and all(e > 0 for e in errs)
    assert sum(errs) <= sigma_04.est_error
    out = tmp_path / "v.json"
    assert main(["verify", "--a", "0.4", "--b", "-0.3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["initial_data_error"] == list(errs)


def test_full_steps_start_where_the_tail_test_passes(sigma_04):
    # every step is an equal share of its segment of at most 3.5/m, which the
    # tail test accepts, so few tries are rejected (a start at 7/m would be
    # rejected on almost every step)
    assert sigma_04.taylor_steps > 0
    assert sigma_04.rejected_steps <= 0.25 * sigma_04.taylor_steps


def test_step_counts_match_taylor_evaluations(monkeypatch):
    # every _taylor_step call is either an accepted step or a rejected try
    calls = []

    def counted(*args):
        calls.append(None)
        return _taylor_step(*args)

    monkeypatch.setattr(monodromy, "_taylor_step", counted)
    s = stokes_multipliers(CubicPotential(0.4, -0.3))
    assert s.rejected_steps > 0
    assert len(calls) == s.taylor_steps + s.rejected_steps


def test_half_step_passes_the_tail_test_where_the_full_one_fails():
    # at the start R e^{2 pi i k/5} of each radial leg of (0.4, -0.3), a step
    # of 7/m inward leaves an order-30 tail about 1.9e5 times rtol * scale,
    # and one of 3.5/m about 6.5e-4 times it: hence no step is longer than
    # 3.5/m.  The legs start at the radius max(8, 4 (1 + scale)), where |V| is
    # large enough for the 7/m tail to show
    p = CubicPotential(0.4, -0.3)
    R = max(8.0, 4.0 * (1.0 + turning_points(p).scale))
    rtol = 1e-13
    for k, (v, dv, _, _) in _sector_starts(p, R).items():
        u = np.exp(2j * np.pi * k / 5)
        x = R * u
        V0, V1 = p(x), p.d1(x)
        m = max(abs(V0) ** 0.5, abs(V1) ** (1 / 3), abs(12.0 * x) ** 0.25, 4.0**0.2)
        ratios = []
        for size in (7.0, 3.5):
            h = -(size / m) * u
            psi, hdpsi, tail = _taylor_step(V0, V1, x, v, dv, h)
            scale = min(max(abs(v), abs(h * dv)), max(abs(psi), abs(hdpsi)))
            ratios.append(tail / (rtol * scale))
        assert 1e5 < ratios[0] < 4e5
        assert 3e-4 < ratios[1] < 1.3e-3


def test_radial_legs_grow_like_wkb():
    # inward along its own ray, log|psi_k| climbs by the WKB amount
    # -Re int_R^foot sqrt(V) dx + (1/4) log|V(R)/V(foot)| on the recessive sheet
    p = CubicPotential(0.3, 0.1)
    R = default_radius(p)
    tps = turning_points(p)
    r_foot = max(1.35 * tps.scale, 1.0)
    starts = _sector_starts(p, R)
    for k in range(-2, 3):
        v0, dv0, l0, _ = starts[k]
        v, _, l = _radial_leg(p, k, R, r_foot, 1e-13, v0, dv0, l0)
        growth = (l.real + np.log(abs(v))) - (l0.real + np.log(abs(v0)))
        u = np.exp(2j * np.pi * k / 5)
        x_R, x_foot = R * u, r_foot * u
        S = line_action(p, (x_R, x_foot), -dv0 / v0)
        expected = -S.value.real + 0.25 * np.log(abs(p(x_R) / p(x_foot)))
        assert growth > 10.0
        assert growth == pytest.approx(expected, abs=0.25)


def test_unexpected_tracing_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside trace_stokes_lines")

    monkeypatch.setattr(monodromy, "trace_stokes_lines", broken)
    with pytest.raises(TypeError):
        stokes_multipliers(CubicPotential(0.4, -0.3))


def test_split_double_root_routed_by_its_own_lines(caplog):
    # a pair of simple roots 1e-7 apart, 5 times the merge tolerance, and
    # its image under m = 1: classify refuses both, but the lines at each
    # ray still route the oracle, and the group shifts the multipliers by
    # one index
    p0, p = split_pair()
    for q in (p0, p):
        d, scale = root_split(q)
        assert 3 < d / (_ROOT_TOL * scale) < 10
    with caplog.at_level(logging.DEBUG, logger="cubicwkb"):
        s = stokes_multipliers(p)
    assert not [r for r in caplog.records if r.name.startswith("cubicwkb")]
    assert s.max_normalized_residual <= 1e-6
    s0 = stokes_multipliers(p0)
    for k in range(-2, 3):
        ref = s0.sigma[((k + 1) % 5) - 2]
        assert abs(s.sigma[k] - ref) <= s.est_error + s0.est_error


@pytest.mark.parametrize("n", [15, 20, 30])
def test_real_poles_walk_through_the_third_root(n):
    # roots 1 and 2 are each joined to root 0 only: a step between their
    # walls goes along both internal lines through root 0, not across the face
    a, b = real_poles(n)[-1]
    s = stokes_multipliers(CubicPotential(a, b))
    assert s.max_normalized_residual <= 1e-6
    assert max(abs(s.sigma[2]), abs(s.sigma[-2])) <= 0.1815 / (n - 0.5)


@pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 + 1e-9, 0.99, 1.01, 1.5])
def test_real_pole_14_at_perturbed_radii(factor):
    # the walls picked at n = 14 must not hinge on the radial legs' end state
    # at rounding level
    p = CubicPotential(*real_poles(14)[-1])
    s = stokes_multipliers(p, R=factor * default_radius(p))
    assert s.max_normalized_residual <= 1e-6


def test_real_pole_10_walks_along_internal_lines():
    # a chord across the face between two turning points lets both solutions
    # climb over it; along the internal line Re S stays level, and the
    # multipliers at n = 10 keep the WKB bound |sigma_+-2| <= rho_max
    a, b = real_poles(10)[-1]
    s = stokes_multipliers(CubicPotential(a, b))
    assert s.max_normalized_residual <= 1e-6
    assert max(abs(s.sigma[2]), abs(s.sigma[-2])) <= 0.1815 / 9.5


def _double_root_exponent(r):
    # the exact double root (6 r^2, -2 r^3/7): its largest |sigma_k| is about
    # exp(2 |Re((8/15) (3 r)^{5/2})|), which is exp(2 (8/15) |3 r|^{5/2}) only
    # for real r
    return 2.0 * abs((8.0 / 15.0 * (3.0 * r) ** 2.5).real)


@pytest.mark.parametrize("r", [8.0, 6.0 + 6.0j, 8.0 + 8.0j])
def test_multipliers_beyond_double_range_fail_cleanly(r):
    # e^3010 at r = 8, e^1335 at 6 + 6i and e^2740 at 8 + 8i, which no double
    # holds.  The radius 2.2 scale, just above the guard at twice the scale,
    # is about the default 2 (1 + scale) at these scales
    assert _double_root_exponent(r) > 1.5 * np.log(np.finfo(float).max)
    p = CubicPotential(6 * r * r, -2 * r**3 / 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MonodromyError, match="double range"):
            stokes_multipliers(p, R=2.2 * turning_points(p).scale)


@pytest.mark.parametrize("r", [8.0, 6.0 + 6.0j, 8.0 + 8.0j])
def test_double_range_is_refused_before_tracing(r, monkeypatch):
    # the pair actions give the exponent before any line is traced or any
    # solution transported
    def untouched(*args, **kwargs):
        raise AssertionError("traced or transported past the double range")

    monkeypatch.setattr(monodromy, "trace_stokes_lines", untouched)
    monkeypatch.setattr(monodromy, "_transport", untouched)
    p = CubicPotential(6 * r * r, -2 * r**3 / 7)
    # (the merged double root carries the 1e-9 split of the rounded roots)
    assert monodromy._action_exponent(p) == pytest.approx(_double_root_exponent(r), rel=1e-8)
    with pytest.raises(MonodromyError, match="double range"):
        stokes_multipliers(p)


def test_verify_beyond_double_range_exits_3_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the exact double root r = 6 + 6i
        code = main(["verify", "--a", "432j", "--b", "(123.42857142857143-123.42857142857143j)"])
    assert code == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and "double range" in err and "Warning" not in err


def test_double_root_4_plus_4i_lies_inside_the_double_range():
    # |sigma| up to e^484 at r = 4 + 4i is inside the double range; a chord
    # from a wall back to its own line's origin contaminated the Wronskians
    # so that the oracle refused the point as beyond it
    r = 4.0 + 4.0j
    expected = _double_root_exponent(r)
    assert expected == pytest.approx(484.3, abs=0.05)
    s = stokes_multipliers(CubicPotential(6 * r * r, -2 * r**3 / 7))
    assert s.max_normalized_residual <= 1e-6
    assert max(np.log(abs(s.sigma[k])) for k in range(-2, 3)) == pytest.approx(expected, abs=1.0)


def test_exact_double_root_3_stays_admissible():
    # r = 3, (54, -54/7): its walls sit beyond the other root, where a chord
    # back to a line's origin was at its largest short of failing
    r = 3.0
    s = stokes_multipliers(CubicPotential(6 * r * r, -2 * r**3 / 7))
    assert s.max_normalized_residual <= 1e-6


@pytest.mark.parametrize("r", [2.0, 4.0, 2.0 + 2.0j, 3.0 + 3.0j])
def test_exact_double_roots_walked_along_their_lines(r):
    # a chord from a wall back to its own line's origin crosses faces over
    # which the solutions climb: at r = 4, 2 + 2i and 3 + 3i it left the
    # normalized residual at 1.0; along the lines it stays near rounding
    s = stokes_multipliers(CubicPotential(6 * r * r, -2 * r**3 / 7))
    assert s.max_normalized_residual <= 1e-9


def test_box_potentials_walked_along_their_lines():
    # the same chords cost generic potentials 3-4 digits: 12 of these 20
    # read above 1e-11 with them, up to 3.6e-9
    for a, b in random_potentials(11, 20, box=3.0):
        s = stokes_multipliers(CubicPotential(a, b))
        assert s.max_normalized_residual <= 1e-11, (a, b)


def test_trace_points_count_the_routing_trace():
    p = CubicPotential(0.4, -0.3)
    s = stokes_multipliers(p)
    assert s.trace_points == sum(len(ln.points) for ln in monodromy.trace_stokes_lines(p))


def test_bsb_solution_margins(sol_11):
    s = stokes_multipliers(sol_11.potential)
    ok, margin = tritronquee_test(s, threshold=0.1)
    assert ok
    assert margin == pytest.approx(max(abs(s.sigma[2]), abs(s.sigma[-2])))
    # at quantizing potentials the three central multipliers approach i
    assert s.sigma[0] == pytest.approx(1j, abs=0.05)
    assert s.sigma[1] == pytest.approx(1j, abs=0.15)
    assert s.sigma[-1] == pytest.approx(1j, abs=0.15)


def test_tritronquee_quintuplet_is_admissible():
    # completing sigma_{+-2} = 0 through the quadratic relations forces
    # sigma_0 = sigma_{+-1} = i; all five relations hold
    sigma = {0: 1j, 1: 1j, -1: 1j, 2: 0.0, -2: 0.0}
    for k in range(-2, 3):
        k1 = ((k + 1 + 2) % 5) - 2
        k3 = ((k + 3 + 2) % 5) - 2
        assert abs(1 + sigma[k] * sigma[k1] + 1j * sigma[k3]) < 1e-15


def test_random_potential_not_tritronquee():
    s = stokes_multipliers(CubicPotential(1.1, 0.7))
    ok, margin = tritronquee_test(s, threshold=1e-3)
    assert not ok
    assert margin > 0.1

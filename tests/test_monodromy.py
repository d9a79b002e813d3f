import logging

import numpy as np
import pytest

import cubicwkb.monodromy as monodromy
from conftest import random_potentials
from cubicwkb.action import BranchedPath, line_action
from cubicwkb.cli import EXIT_NUMERICAL, main
from cubicwkb.monodromy import (
    MonodromyError,
    _radial_leg,
    _Ray,
    _tail_bracket,
    _transport,
    default_radius,
    stokes_multipliers,
    tritronquee_test,
)
from cubicwkb.potential import CubicPotential, GroupElement, apply_group, turning_points

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
    # est_error accounts for the change of radius (measured ratio 1.4)
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


def test_tail_bracket_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    with mp.workdps(50):
        for mag in np.geomspace(1e-12, 0.5, 40):
            # q = -a/(2x^2) - 7b/x^3 of modulus mag, split between a and b
            x = complex(*rng.uniform(1.0, 20.0, 2))
            t = rng.uniform(0.0, 1.0)
            qa = mag * t * np.exp(2j * np.pi * rng.uniform())
            qb = mag * (1.0 - t) * np.exp(2j * np.pi * rng.uniform())
            a, b = -2.0 * qa * x**2, -qb * x**3 / 7.0
            X, A, B = mp.mpc(x), mp.mpc(a), mp.mpc(b)
            q = -A / (2 * X**2) - 7 * B / X**3
            exact = mp.sqrt(1 + q) - 1 + A / (4 * X**2)
            got = _tail_bracket(x, a, b)
            assert abs(mp.mpc(got) - exact) <= 1e-13 * abs(exact)


def test_ray_normalization_matches_bessel_k():
    # V = 4x^3: the recessive solution of ray 0 is
    # sqrt(8/(5 pi)) sqrt(x) K_{1/5}((4/5) x^{5/2}) ~ x^{-3/4} e^{-(4/5) x^{5/2}};
    # by the Z5 symmetry the other rays carry rotated copies of equal modulus
    mp = pytest.importorskip("mpmath")
    R = 8.0
    with mp.workdps(50):
        psi = _bessel_k_psi(mp, mp.mpf(R))
        dpsi = mp.diff(lambda x: _bessel_k_psi(mp, x), mp.mpf(R))
        for k in range(-2, 3):
            v, dv, logN, _ = _Ray(CubicPotential(0, 0), k, R, (0, 0, 0)).initial_data()
            scale = mp.exp(mp.mpc(logN))
            got, dgot = mp.mpc(v) * scale, mp.mpc(dv) * scale
            if k == 0:
                assert abs(got - psi) <= 1e-9 * abs(psi)
                assert abs(dgot - dpsi) <= 1e-9 * abs(dpsi)
            else:
                assert abs(abs(got) - abs(psi)) <= 1e-9 * abs(psi)
                assert abs(abs(dgot) - abs(dpsi)) <= 1e-9 * abs(dpsi)


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


def test_radial_legs_grow_like_wkb():
    # inward along its own ray, log|psi_k| climbs by the WKB amount
    # -Re int_R^foot sqrt(V) dx + (1/4) log|V(R)/V(foot)| on the recessive sheet
    p = CubicPotential(0.3, 0.1)
    R = default_radius(p)
    tps = turning_points(p)
    r_foot = max(1.35 * tps.scale, 1.0)
    for k in range(-2, 3):
        ray = _Ray(p, k, R, tps.all_with_repeats)
        v0, _, l0, _ = ray.initial_data()
        v, _, l, _ = _radial_leg(p, k, R, r_foot, 1e-13, tps.all_with_repeats)
        growth = (l.real + np.log(abs(v))) - (l0.real + np.log(abs(v0)))
        x_R, x_foot = R * ray.u, r_foot * ray.u
        S = line_action(p, BranchedPath(nodes=(x_R, x_foot), branch_seed=ray.w(R)))
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
    # (6, 2/7) rotated by m = 1: rounding splits its double root 5e-8 apart
    # and classify refuses it, but the lines at each ray still route the
    # oracle, and the group shifts the multipliers by one index
    p0 = CubicPotential(6.0, 2.0 / 7.0)
    p = apply_group(GroupElement(1.0, 1), p0)
    with caplog.at_level(logging.DEBUG, logger="cubicwkb"):
        s = stokes_multipliers(p)
    assert not [r for r in caplog.records if r.name.startswith("cubicwkb")]
    assert s.max_normalized_residual <= 1e-6
    s0 = stokes_multipliers(p0)
    for k in range(-2, 3):
        ref = s0.sigma[((k + 1) % 5) - 2]
        assert abs(s.sigma[k] - ref) <= s.est_error + s0.est_error


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

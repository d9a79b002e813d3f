from fractions import Fraction

import numpy as np
import pytest

from cubicwkb.bsb import _kappa_curve
from cubicwkb.monodromy import stokes_multipliers
from cubicwkb.potential import CubicPotential, GroupElement, apply_group
from cubicwkb.stokes import classify
from cubicwkb.wkb import (
    LOG3_HALF,
    AsymptoticValues,
    WrongClassError,
    asymptotic_values_320,
    relative_errors,
)


def proj_equal(wa, wb, tol=1e-8):
    na, da = wa
    nb, db = wb
    return abs(na * db - nb * da) <= tol * max(abs(na * db) + abs(nb * da), 1.0)


def test_wrong_class_rejected():
    p = CubicPotential(0, 0)
    g = classify(p)
    with pytest.raises(WrongClassError):
        asymptotic_values_320(g)


def test_asymptotic_values_structure_at_solution(sol_11):
    p = sol_11.potential
    g = classify(p)
    av = asymptotic_values_320(g)
    # basis values
    assert proj_equal(av.w[0], (0.0, 1.0))
    assert av.is_infinite(-2)
    # matching conditions at the solution: hat w1 = w_-2, hat w2 = w_-1
    assert av.is_infinite(1)
    assert proj_equal(av.w[2], av.w[-1])
    # coincidence pattern of the target quintuplet (0, 1, inf, inf, 1):
    # exactly three distinct projective values, paired (1,-2) and (2,-1)
    assert not proj_equal(av.w[0], av.w[2])
    assert not proj_equal(av.w[0], av.w[1])
    assert not proj_equal(av.w[1], av.w[2])
    assert av.exact_flags[-1] and not av.exact_flags[1]


def test_asymptotic_values_pairwise_distinct_off_solution(orbit_potential):
    # an orbit point that is not a solution: all five distinct except at
    # most one pair
    p = orbit_potential
    g = classify(p)
    av = asymptotic_values_320(g)
    coincident = 0
    ks = list(range(-2, 3))
    for i, ka in enumerate(ks):
        for kb in ks[i + 1:]:
            if proj_equal(av.w[ka], av.w[kb], tol=1e-10):
                coincident += 1
    assert coincident <= 1


def test_consecutive_values_never_equal(sol_11, orbit_potential):
    for p in (sol_11.potential, orbit_potential):
        g = classify(p)
        av = asymptotic_values_320(g)
        for k in range(-2, 3):
            kn = (k + 1 + 2) % 5 - 2
            assert not proj_equal(av.w[k], av.w[kn], tol=1e-12)


def test_residual_value_consistency(sol_11, orbit_potential):
    # the two coincidences hat w1 = w_-2 and hat w2 = w_-1 hold where the
    # solver's period residual vanishes and fail off the solutions
    assert sol_11.residual_norm < 1e-8
    for p, at_solution in ((sol_11.potential, True), (orbit_potential, False)):
        av = asymptotic_values_320(classify(p))
        w1_is_wm2 = proj_equal(av.w[1], av.w[-2], tol=1e-8)
        w2_is_wm1 = proj_equal(av.w[2], av.w[-1], tol=1e-8)
        assert w1_is_wm2 == w2_is_wm1 == at_solution


def test_relative_errors_structure(orbit_potential):
    g = classify(orbit_potential)
    re = relative_errors(g)
    # consecutive entries vanish, matrix is symmetric
    for l in range(-2, 3):
        ln = (l + 1 + 2) % 5 - 2
        assert re.value(l, ln) == 0.0
        assert re.value(ln, l) == 0.0
    assert np.array_equal(re.rho, re.rho.T)
    # infinite exactly on the non-related pairs
    for j in range(-2, 3):
        for k in range(-2, 3):
            if not g.relation.related(j, k):
                assert np.isinf(re.value(j, k))
            else:
                assert np.isfinite(re.value(j, k))


def test_relative_errors_takes_each_sector_tail_once(orbit_potential, monkeypatch):
    # sector 0 is in two related pairs of class 320; its tail is integrated
    # once, and each rho is still the corridor plus the two tails
    import cubicwkb.wkb as wkb

    tail = wkb.alpha_ray_tail
    starts = []
    monkeypatch.setattr(wkb, "alpha_ray_tail", lambda p, z: starts.append(z) or tail(p, z))
    g = classify(orbit_potential)
    re = relative_errors(g)
    pairs = [(l, k) for l in range(-2, 3) for k in range(l + 1, 3)
             if (k - l) % 5 not in (1, 4) and g.relation.related(l, k)]
    sectors = {s for pair in pairs for s in pair}
    assert len(starts) == len(sectors) < 2 * len(pairs)
    assert sorted(starts, key=np.angle) == sorted(
        (wkb._sector_anchor(g, k) for k in sectors), key=np.angle)
    for l, k in pairs:
        assert re.value(l, k) >= tail(orbit_potential, wkb._sector_anchor(g, l)) + tail(
            orbit_potential, wkb._sector_anchor(g, k))


def test_relative_errors_finite_below_threshold_at_n2(sol_22):
    p = sol_22.potential
    g = classify(p)
    re = relative_errors(g)
    assert 0 < re.max_finite < LOG3_HALF
    assert re.sim_equals_relation


def test_relative_errors_scaling(orbit_potential):
    # rho scales like x^{-5/2}; on the external walls of classes 311, 300
    # and 310 this holds only if the wall points scale exactly with x
    cases = [(orbit_potential, 1.5, 1e-8)]
    cases += [
        (CubicPotential(a, b), 1.7, 5e-5)
        for a, b in (
            (0.4, -0.3),
            (1.1 + 0.3j, 0.7 - 0.2j),
            (-2 + 1j, 0.5 - 2j),
            (2.0, 0.0),
            (2.72 + 1.61j, -2.24 + 1.96j),
        )
    ]
    for p, x, rel in cases:
        base = relative_errors(classify(p)).max_finite
        q = apply_group(GroupElement(x, 0), p)
        got = relative_errors(classify(q)).max_finite
        assert got == pytest.approx(x**-2.5 * base, rel=rel), p


def _s5(k):
    return (k + 2) % 5 - 2


def _sigma_from_quintuplet(av, k):
    """sigma_k predicted by the asymptotic values, as a cross-ratio:
    i (w_{k-2} - w_{k+2})(w_{k+1} - w_{k-1}) / ((w_{k-2} - w_{k-1})(w_{k+1} - w_{k+2}))
    in homogeneous coordinates (the denominators cancel)."""

    def diff(i, j):
        (ni, di), (nj, dj) = av.w[_s5(i)], av.w[_s5(j)]
        return ni * dj - nj * di

    return 1j * diff(k - 2, k + 2) * diff(k + 1, k - 1) / (
        diff(k - 2, k - 1) * diff(k + 1, k + 2)
    )


def test_quintuplet_predicts_stokes_multipliers(sol_11, sol_12, orbit_potential):
    # the symmetric quintuplet w_k = e^{2 pi i k/5} gives the exact
    # multipliers of V = 4x^3, sigma_k = -i golden
    sym = AsymptoticValues(
        w={k: (np.exp(2j * np.pi * k / 5), 1.0) for k in range(-2, 3)}, exact_flags={}
    )
    for k in range(-2, 3):
        assert _sigma_from_quintuplet(sym, k) == pytest.approx(
            -0.5j * (1 + np.sqrt(5)), abs=1e-14
        )
    # on class-320 potentials the WKB quintuplet predicts the oracle's
    # multipliers within rho; a sign error in dS or swapped cycles misses by
    # 3-30 rho off the solutions
    kappa = Fraction(13, 10)
    nodes, _ = _kappa_curve({kappa}, 1e-10)
    node = nodes[kappa][0]
    shifts = []
    for p in (
        sol_11.potential,
        sol_12.potential,
        apply_group(GroupElement(1.3, 0), orbit_potential),
        node,
        apply_group(GroupElement(1.5, 2), node),
    ):
        g = classify(p)
        shifts.append(g.decoration_shift)
        av = asymptotic_values_320(g)
        rho = relative_errors(g).max_finite
        sigma = stokes_multipliers(p).sigma
        for k in range(-2, 3):
            exact = sigma[_s5(k + g.decoration_shift)]
            assert abs(_sigma_from_quintuplet(av, k) - exact) <= rho
    assert shifts == [0, 0, 0, 0, 2]

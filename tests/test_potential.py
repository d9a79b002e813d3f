import numpy as np
import pytest

from conftest import root_split
from cubicwkb import potential
from cubicwkb.monodromy import stokes_multipliers
from cubicwkb.potential import (
    CubicPotential,
    GroupElement,
    apply_group,
    orbit_modulus,
    turning_points,
)
from cubicwkb.stokes import classify
from cubicwkb.wkb import relative_errors


def test_triple_root_at_origin():
    tps = turning_points(CubicPotential(0, 0))
    assert tps.multiplicities == (3,)
    assert abs(tps.roots[0]) < 1e-12


def test_simple_roots_a2_b0():
    tps = turning_points(CubicPotential(2, 0))
    assert tps.multiplicities == (1, 1, 1)
    got = sorted(r.real for r in tps.roots)
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12)


def test_table_pair_has_one_real_root_and_conjugate_pair():
    # companion-matrix oracle for the first diagonal quantization point
    a, b = -2.34, -0.064
    oracle = np.sort_complex(np.roots([4, 0, -2 * a, -28 * b]))
    tps = turning_points(CubicPotential(a, b))
    got = np.sort_complex(np.array(tps.roots))
    assert np.allclose(got, oracle, atol=1e-10)
    n_real = sum(1 for r in tps.roots if abs(r.imag) < 1e-10)
    assert n_real == 1
    pair = sorted((r for r in tps.roots if abs(r.imag) > 1e-10), key=lambda z: z.imag)
    assert abs(pair[0] - np.conj(pair[1])) < 1e-10


def test_root_residuals_and_vieta_on_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        p = CubicPotential(a, b)
        tps = turning_points(p)
        roots = tps.all_with_repeats
        scale = max(1.0, abs(a), abs(b))
        for r, m in zip(tps.roots, tps.multiplicities):
            if m == 1:
                assert abs(p(r)) <= 1e-12 * scale**1.5
        assert abs(sum(roots)) <= 1e-10 * max(1.0, max(abs(r) for r in roots))
        prod = roots[0] * roots[1] * roots[2]
        assert abs(prod - 7 * b) <= 1e-10 * max(1.0, abs(7 * b))


def test_roots_are_solved_once_per_potential(orbit_potential, monkeypatch):
    p = CubicPotential(orbit_potential.a, orbit_potential.b)
    assert turning_points(p) is turning_points(p)
    assert p == orbit_potential and hash(p) == hash(orbit_potential)

    solve = potential._solve_turning_points
    solved = []
    monkeypatch.setattr(potential, "_solve_turning_points", lambda q: solved.append(q) or solve(q))
    q = CubicPotential(orbit_potential.a, orbit_potential.b)
    g = classify(q)
    relative_errors(g)
    stokes_multipliers(q)
    assert solved == [q]


def test_double_root_clustering():
    # V = 4 (x + 1)^2 (x - 2): a = 6, b = 2/7
    tps = turning_points(CubicPotential(6.0, 2.0 / 7.0))
    assert sorted(tps.multiplicities, reverse=True) == [2, 1]


def _near_double(rng):
    """V = 4 (x - r - s)(x - r + s)(x + 2 r): |r| from 10^-2.5 to 3, and the
    pair's split 2|s| from 1e-10 to 1e-6 of the scale max(1, 2|r|)."""
    r = 10 ** rng.uniform(-2.5, 0.5) * np.exp(2j * np.pi * rng.uniform())
    s = 0.5 * 10 ** rng.uniform(-10, -6) * max(1.0, 2 * abs(r)) * np.exp(2j * np.pi * rng.uniform())
    e1, e2, e3 = r + s, r - s, -2 * r
    return CubicPotential(complex(-2 * (e1 * e2 + e1 * e3 + e2 * e3)), complex(e1 * e2 * e3 / 7))


def test_near_double_roots_merge_by_their_exact_split():
    # any double-precision solver places a near double pair no better than
    # sqrt(eps) scale, the size of the merge tolerance itself: the decision
    # is the exact split's.  100 seeded near-double potentials, whose float
    # coefficients give true splits from about 1e-10 to 1e-6 of the scale,
    # and the 20 images of (6, 2/7) under x in {0.5, 1, 1.7, 3} and
    # m = 0..4, split by rounding alone, each take the multiplicities of
    # their 50-digit roots
    rng = np.random.default_rng(41)
    cases = [_near_double(rng) for _ in range(100)]
    cases += [apply_group(GroupElement(x, m), CubicPotential(6.0, 2.0 / 7.0))
              for x in (0.5, 1.0, 1.7, 3.0) for m in range(5)]
    ratios = []
    for p in cases:
        d, scale = root_split(p)
        ratio = d / (potential._ROOT_TOL * scale)
        if abs(ratio - 1.0) < 1e-6:
            continue
        want = (2, 1) if ratio <= 1.0 else (1, 1, 1)
        assert turning_points(p).multiplicities == want, (p, ratio)
        ratios.append(ratio)
    assert len(ratios) >= 115
    assert min(ratios) < 0.1 and max(ratios) > 10


def test_roots_match_the_companion_matrix_away_from_double_roots():
    # Cardano's formula and the polish against numpy's eigenvalue solver
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(500):
        a, b = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        tps = turning_points(CubicPotential(a, b))
        ref = np.roots([4, 0, -2 * a, -28 * b])
        scale = max(1.0, np.max(np.abs(ref)))
        if tps.separation < 1e-3 * scale:
            continue
        for r in tps.roots:
            assert np.min(np.abs(ref - r)) <= 1e-13 * scale
        checked += 1
    assert checked > 490


def test_group_identity_and_scaling():
    p = CubicPotential(1.5 + 0.5j, -2.0)
    assert apply_group(GroupElement(1.0, 0), p) == p
    q = apply_group(GroupElement(2.0, 0), p)
    assert q.a == pytest.approx(4 * p.a)
    assert q.b == pytest.approx(8 * p.b)


def test_group_rotation_unit():
    q = apply_group(GroupElement(1.0, 1), CubicPotential(1, 1))
    assert q.a == pytest.approx(np.exp(4j * np.pi / 5))
    assert q.b == pytest.approx(np.exp(6j * np.pi / 5))


def test_group_composition_law():
    rng = np.random.default_rng(5)
    p = CubicPotential(0.3 - 1.2j, 0.8 + 0.1j)
    for _ in range(20):
        g1 = GroupElement(float(rng.uniform(0.2, 3.0)), int(rng.integers(0, 5)))
        g2 = GroupElement(float(rng.uniform(0.2, 3.0)), int(rng.integers(0, 5)))
        lhs = apply_group(g1, apply_group(g2, p))
        rhs = apply_group(GroupElement(g1.x * g2.x, g1.m + g2.m), p)
        assert lhs.a == pytest.approx(rhs.a, rel=1e-12)
        assert lhs.b == pytest.approx(rhs.b, rel=1e-12)


def test_orbit_modulus_values_and_invariance():
    assert orbit_modulus(CubicPotential(1, 1)) == pytest.approx(1.0)
    assert orbit_modulus(CubicPotential(2, 1)) == pytest.approx(8.0)
    p = CubicPotential(-1.3 + 0.2j, 0.7 - 0.4j)
    base = orbit_modulus(p)
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = GroupElement(float(rng.uniform(0.3, 2.5)), int(rng.integers(0, 5)))
        assert orbit_modulus(apply_group(g, p)) == pytest.approx(base, rel=1e-12)


def test_orbit_modulus_degenerate():
    with pytest.raises(ValueError):
        orbit_modulus(CubicPotential(1, 0))


def test_orbit_modulus_matches_quoted_scale():
    # the real-orbit invariant is quoted in the a^3/b^2 form
    assert orbit_modulus(CubicPotential(-2.3476, -0.06400)) == pytest.approx(
        -3158.9, rel=2e-3
    )

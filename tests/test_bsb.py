import numpy as np
import pytest

import cubicwkb.bsb as bsb
from cubicwkb.action import cycle_period, label_turning_points_by_periods
from cubicwkb.bsb import (
    BsbIndex,
    SolverError,
    real_orbit_constants,
    real_poles,
    solve_bsb,
    solve_lattice,
)
from cubicwkb.cli import EXIT_AMBIGUOUS, main
from cubicwkb.potential import CubicPotential, orbit_modulus


def test_index_validation():
    with pytest.raises(ValueError):
        BsbIndex(0, 1)
    with pytest.raises(ValueError):
        BsbIndex(1, -2)


def test_lattice_size_validation():
    for n_max, m_max in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError):
            solve_lattice(n_max, m_max)


def test_real_orbit_constants_match_reference():
    mu, a_s, b_s = real_orbit_constants()
    assert mu == pytest.approx(-3158.92, rel=1e-3)
    assert a_s == pytest.approx(-4.0874, rel=1e-3)
    assert b_s == pytest.approx(-0.1470, rel=1e-3)


def test_orbit_point_matches_brentq():
    # independent oracle: scipy's brentq on the same 18-point bracket
    from scipy.optimize import brentq

    def re_p1(t):
        p = CubicPotential(-1.0, -np.exp(t))
        return cycle_period(p, "a1", labels=label_turning_points_by_periods(p), tol=1e-12).value.real

    grid = np.linspace(np.log(1e-3), np.log(0.3), 18)
    vals = [re_p1(t) for t in grid]
    k = next(i for i in range(17) if vals[i] * vals[i + 1] < 0)
    b_ref = -np.exp(brentq(re_p1, grid[k], grid[k + 1], xtol=1e-15, rtol=8.9e-16))
    p = CubicPotential(-1.0, b_ref)
    y_ref = cycle_period(p, "a1", labels=label_turning_points_by_periods(p), tol=1e-13).value.imag
    x = (np.pi / y_ref) ** 0.4
    expected = (-1.0 / b_ref**2, -(x**2), b_ref * x**3)

    bsb._orbit_point.cache_clear()
    b_hat, y0 = bsb._orbit_point()
    assert b_hat == pytest.approx(b_ref, rel=1e-14, abs=0)
    assert y0 == pytest.approx(y_ref, rel=1e-14, abs=0)
    for got, want in zip(real_orbit_constants(), expected):
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_bracketed_newton_bisects_when_a_step_leaves_the_bracket():
    calls = []

    def fdf(t):
        calls.append(t)
        return np.arctan(t), 1.0 / (1.0 + t * t)

    lo, hi = -3.0, 20.0
    f_mid, df_mid = fdf(0.5 * (lo + hi))
    assert not lo < 0.5 * (lo + hi) - f_mid / df_mid < hi  # plain Newton overshoots
    calls.clear()
    root = bsb._bracketed_newton(fdf, lo, hi, np.arctan(lo))
    assert abs(root) <= 1e-15
    assert all(lo <= t <= hi for t in calls)
    assert len(calls) < 20
    with pytest.raises(SolverError):
        bsb._bracketed_newton(fdf, lo, hi, np.arctan(lo), max_iter=3)
    assert bsb._bracketed_newton(lambda t: (t, 1.0), -1.0, 1.0, -1.0) == 0.0


def test_real_poles_power_law():
    pairs = real_poles(5)
    _, a_s, b_s = real_orbit_constants()
    for n, (a_n, b_n) in enumerate(pairs, start=1):
        assert a_n == pytest.approx(a_s * (n - 0.5) ** 0.8, rel=1e-12)
        assert b_n == pytest.approx(b_s * (n - 0.5) ** 1.2, rel=1e-12)
    # strictly decreasing (more negative)
    a_vals = [a for a, _ in pairs]
    assert all(x > y for x, y in zip(a_vals, a_vals[1:]))


def test_diagonal_solution_values(sol_11, sol_22):
    assert sol_11.a.real == pytest.approx(-2.3476, abs=2e-4)
    assert sol_11.b.real == pytest.approx(-0.06400, abs=2e-5)
    assert abs(sol_11.a.imag) < 1e-10
    assert sol_22.a.real == pytest.approx(-5.6535, abs=5e-4)
    assert sol_11.residual_norm < 1e-10
    assert sol_22.residual_norm < 1e-10


def test_periods_hit_quantized_targets(sol_11, sol_22):
    for sol, n in ((sol_11, 1), (sol_22, 2)):
        p = sol.potential
        labels = label_turning_points_by_periods(p)
        P1 = cycle_period(p, "a1", labels=labels).value
        P2 = cycle_period(p, "a-1", labels=labels).value
        assert P1 == pytest.approx(1j * np.pi * (n - 0.5), abs=1e-9)
        assert P2 == pytest.approx(-1j * np.pi * (n - 0.5), abs=1e-9)


def test_diagonal_self_similarity(sol_11, sol_22):
    mu1 = orbit_modulus(sol_11.potential)
    assert orbit_modulus(sol_22.potential) == pytest.approx(mu1, rel=1e-8)


def test_conjugate_lattice_symmetry(sol_21, sol_12):
    assert sol_12.a == pytest.approx(np.conj(sol_21.a), abs=1e-8)
    assert sol_12.b == pytest.approx(np.conj(sol_21.b), abs=1e-8)


def test_solution_invariants(sol_11, sol_21):
    for sol in (sol_11, sol_21):
        assert abs(np.angle(complex(sol.a))) > 4 * np.pi / 5
        assert sol.residual_norm <= 1e-10
        assert sol.rho_max > 0


def test_polished_power_law_points_converge():
    # the closed-form points are already solutions up to quadrature error
    for n in (1, 2):
        a_n, b_n = real_poles(n)[-1]
        sol = solve_bsb(BsbIndex(n, n), CubicPotential(a_n, b_n))
        assert sol.residual_norm <= 1e-10
        assert abs(sol.a - a_n) < 1e-6


def test_small_lattice_fill(sol_21, sol_12):
    solved, failures = solve_lattice(2, 2, tol=1e-9)
    assert not failures
    assert set(solved) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for sol in solved.values():
        assert abs(np.angle(complex(sol.a))) > 4 * np.pi / 5
    # the rescaled kappa-curve cells equal independent direct-Newton solves
    for nm, direct in (((2, 1), sol_21), ((1, 2), sol_12)):
        assert abs(solved[nm].a - direct.a) <= 1e-9
        assert abs(solved[nm].b - direct.b) <= 1e-9


def test_lattice_cells_below_the_diagonal_are_conjugates():
    # cell (n, m) with m < n is the conjugate of (m, n), label for label
    solved, failures = solve_lattice(4, 4)
    assert not failures
    for (n, m), sol in solved.items():
        if m < n:
            assert sol.a == solved[(m, n)].a.conjugate()
            assert sol.b == solved[(m, n)].b.conjugate()
            assert sol.rho_max == solved[(m, n)].rho_max


def test_failing_kappa_fails_only_its_cells(monkeypatch, tmp_path, capsys):
    # the kappa = 1 certificate is kept per process: clear it so it is made here
    bsb._origin_node.cache_clear()
    certify = bsb._certify
    targets = []

    def braided_above_two(p, t1, t2):
        targets.append(t2)
        if abs(t2) > 2 * np.pi:
            raise SolverError("labels braided on the kappa curve")
        return certify(p, t1, t2)

    monkeypatch.setattr(bsb, "_certify", braided_above_two)
    solved, failures = solve_lattice(2, 2, tol=1e-9)
    # one certificate per kappa, 1 and 3: the failing one is tried once
    assert [abs(t2) > 2 * np.pi for t2 in targets] == [False, True]
    # kappa = 3 serves (1, 2) and, through conjugation, (2, 1)
    assert set(failures) == {(1, 2), (2, 1)}
    assert failures[(1, 2)] and failures[(2, 1)]
    assert set(solved) == {(1, 1), (2, 2)}
    code = main(["poles", "--nmax", "2", "--mmax", "2",
                 "--out", str(tmp_path / "lattice.csv")])
    assert code == EXIT_AMBIGUOUS
    assert "cell (1, 2) failed" in capsys.readouterr().err


def test_origin_is_certified_once_per_process(monkeypatch):
    certify = bsb._certify
    origins = []

    def counted(p, t1, t2):
        origins.append(t2 == -t1)
        return certify(p, t1, t2)

    monkeypatch.setattr(bsb, "_certify", counted)
    bsb._origin_node.cache_clear()
    warm = [solve_lattice(2, 3), solve_lattice(2, 3)]
    assert origins.count(True) == 1
    bsb._origin_node.cache_clear()
    cold = solve_lattice(2, 3)
    assert origins.count(True) == 2
    assert not cold[1] and len(cold[0]) == 6
    assert warm == [cold, cold]


def test_origin_labels_cannot_be_changed_by_callers():
    want = dict(bsb._origin_node()[1])
    with pytest.raises(TypeError):
        bsb._origin_node()[1]["tp0"] = 0j
    assert dict(bsb._origin_node()[1]) == want


def test_orbit_constants_leave_the_origin_uncertified():
    bsb._origin_node.cache_clear()
    bsb._orbit_point.cache_clear()
    real_orbit_constants()
    assert bsb._origin_node.cache_info().currsize == 0


def test_certificate_propagates_unexpected_errors(monkeypatch, sol_11):
    def broken(p):
        raise TypeError("not a classification failure")

    monkeypatch.setattr(bsb, "classify", broken)
    with pytest.raises(TypeError):
        bsb._certify(sol_11.potential, 1j * np.pi / 2, -1j * np.pi / 2)


def test_kappa_walk_takes_one_newton_step_per_node(monkeypatch):
    # 5 x 5 has nine kappas above 1, each one Newton solve from the last
    # node; the cells are the nodes rescaled and conjugated, with no solve
    newton = bsb._newton_targets
    calls = []
    monkeypatch.setattr(bsb, "_newton_targets", lambda *a, **k: calls.append(1) or newton(*a, **k))
    solved, failures = solve_lattice(5, 5)
    assert not failures and len(solved) == 25
    assert len(calls) == 9


def test_lattice_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a failed cell")

    monkeypatch.setattr(bsb, "_newton_targets", broken)
    # 1 x 2 walks to kappa = 3; 1 x 1 needs only the origin and no Newton
    with pytest.raises(RuntimeError, match="a bug"):
        solve_lattice(1, 2)


def test_solver_rejects_bad_seed():
    with pytest.raises((SolverError, ValueError)):
        solve_bsb(BsbIndex(1, 1), CubicPotential(0.0, 0.0))

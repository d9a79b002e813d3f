"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 compares the diagonal quantization points with two sources:
the paper's real-orbit constants a*, b* (criterion 1 holds the program to
them at 1e-3) carried through the exact power law
a_n = a* (n-1/2)^{4/5}, b_n = b* (n-1/2)^{6/5}, and the true real poles of
the tritronquee, computed on the Painleve side by the `tritronquee_poles`
fixture.  The paper's two-decimal displays -2.34 (a_1) and -0.23 (b_2) are
truncations of a* 2^{-4/5} = -2.3476 and b* (3/2)^{6/5} = -0.2391, so they
are checked as truncations, not as centres of a window.
"""

import time
import warnings

import numpy as np
import pytest

import cubicwkb.bsb as bsb_mod
from cubicwkb.action import cycle_period, label_turning_points_by_periods
from cubicwkb.bsb import BsbIndex, real_orbit_constants, real_poles, solve_bsb, solve_lattice
from cubicwkb.monodromy import stokes_multipliers
from cubicwkb.painleve import coeff_poly, laurent_coeffs, pi_residual
from cubicwkb.potential import CubicPotential, GroupElement, apply_group
from cubicwkb.stokes import classify, classify_by_periods
from cubicwkb.wkb import relative_errors

warnings.filterwarnings("ignore", category=RuntimeWarning)


# the paper's real-orbit constants; criterion 1 holds the program to them
A_STAR, B_STAR = -4.0874, -0.1470
REF_REL = 1e-3


def reference_point(n):
    """(a_n, b_n) of the real BSB family from A_STAR, B_STAR by the power law."""
    return A_STAR * (n - 0.5) ** 0.8, B_STAR * (n - 0.5) ** 1.2


def percent_error(value, exact):
    return 100 * abs(value - exact) / abs(exact)


def close_to_reference(value, ref):
    return abs(value - ref) <= REF_REL * abs(ref)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def lattice_5x5():
    t0 = time.time()
    solved, failures = solve_lattice(5, 5, tol=1e-10)
    return solved, failures, time.time() - t0


@pytest.fixture(scope="module")
def diagonal_solutions():
    sols = {}
    for n in range(1, 5):
        a_n, b_n = real_poles(n)[-1]
        sols[n] = solve_bsb(BsbIndex(n, n), CubicPotential(a_n, b_n))
    return sols


def test_criterion_1_real_orbit_constants():
    bsb_mod._orbit_point.cache_clear()
    t0 = time.time()
    mu, a_s, b_s = real_orbit_constants()
    elapsed = time.time() - t0
    ok = (
        abs(mu + 3158.92) <= 0.001 * 3158.92
        and abs(a_s + 4.0874) <= 0.001 * 4.0874
        and abs(b_s + 0.1470) <= 0.001 * 0.1470
        and elapsed <= 30.0
    )
    assert report(
        "criterion 1 (orbit constants)",
        ok,
        f"mu*={mu:.4f} a*={a_s:.6f} b*={b_s:.6f} in {elapsed:.1f}s",
    )


def test_criterion_2_values_and_errors(diagonal_solutions, tritronquee_poles):
    t0 = time.time()
    s1, s2 = diagonal_solutions[1], diagonal_solutions[2]
    a1, b1 = s1.a.real, s1.b.real
    a2, b2 = s2.a.real, s2.b.real
    elapsed = time.time() - t0
    (ra1, rb1), (ra2, rb2) = reference_point(1), reference_point(2)
    (xa1, xb1), (xa2, _) = tritronquee_poles[1], tritronquee_poles[2]
    checks = {
        "a1 window": close_to_reference(a1, ra1) and -2.35 < a1 <= -2.34,
        "b1 window": abs(b1 + 0.064) <= 0.001 and close_to_reference(b1, rb1),
        "a2 window": abs(a2 + 5.65) <= 0.01 and close_to_reference(a2, ra2),
        "b2 window": close_to_reference(b2, rb2) and -0.24 < b2 <= -0.23,
        "a1 percent": abs(percent_error(a1, xa1) - percent_error(ra1, xa1)) <= 0.5,
        "b1 percent": abs(percent_error(b1, xb1) - percent_error(rb1, xb1)) <= 0.5,
        "a2 percent": abs(percent_error(a2, xa2) - percent_error(ra2, xa2)) <= 0.5,
        "runtime": elapsed <= 60.0,
    }
    detail = (
        f"a1={a1:.5f} b1={b1:.6f} a2={a2:.5f} b2={b2:.5f}; "
        f"errors vs exact poles a1 {percent_error(a1, xa1):.3f}% "
        f"b1 {percent_error(b1, xb1):.3f}% a2 {percent_error(a2, xa2):.3f}%; "
        + ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    )
    report("criterion 2 (reference table)", all(checks.values()), detail)
    # a1 window, b2 window and b1 percent have tests of their own below
    assert checks["b1 window"]
    assert checks["a2 window"]
    assert checks["a1 percent"]
    assert checks["a2 percent"]
    assert checks["runtime"]


def test_criterion_2_window_a1(diagonal_solutions):
    # a1 = a* (1/2)^{4/5} = -2.3476; the paper's "-2.34" truncates it
    a1 = diagonal_solutions[1].a.real
    assert close_to_reference(a1, reference_point(1)[0])
    assert -2.35 < a1 <= -2.34


def test_criterion_2_window_b2(diagonal_solutions):
    # b2 = b* (3/2)^{6/5} = -0.2391; the paper's "-0.23" truncates it
    b2 = diagonal_solutions[2].b.real
    assert close_to_reference(b2, reference_point(2)[1])
    assert -0.24 < b2 <= -0.23


def test_criterion_2_percent_b1(diagonal_solutions, tritronquee_poles):
    # the WKB error of b1 against the exact pole is about 3 %, whether b1
    # comes from the program or from the reference b*
    b1 = diagonal_solutions[1].b.real
    exact = tritronquee_poles[1][1]
    expected = percent_error(reference_point(1)[1], exact)
    assert abs(percent_error(b1, exact) - expected) <= 0.5


def test_criterion_2_exact_pole_is_tritronquee(tritronquee_poles):
    # the Painleve-side pole is a zero of sigma_{+-2} on the oscillator side
    a1, b1 = tritronquee_poles[1]
    assert abs(a1 + 2.3841687) <= 1e-7  # Joshi & Kitaev (2001)
    s = stokes_multipliers(CubicPotential(a1, b1))
    margin = max(abs(s.sigma[2]), abs(s.sigma[-2]))
    assert report("criterion 2 (exact pole on the oracle)", margin <= 1e-8,
                  f"a1={a1:.10f} b1={b1:.10f} max|sigma_+-2|={margin:.2e}")


def test_criterion_3_argument_bound(lattice_5x5):
    solved, failures, elapsed = lattice_5x5
    bound = 4 * np.pi / 5
    ok = (
        not failures
        and len(solved) == 25
        and all(abs(np.angle(complex(s.a))) > bound for s in solved.values())
        and elapsed <= 300.0
    )
    min_arg = min(abs(np.angle(complex(s.a))) for s in solved.values())
    assert report(
        "criterion 3 (lattice sector bound)",
        ok,
        f"{len(solved)}/25 solved, min|arg a|={min_arg:.4f} > {bound:.4f}, "
        f"{elapsed:.0f}s",
    )


def test_lattice_is_rescaled_kappa_curve(lattice_5x5):
    # (1, 2) and (2, 5) share kappa = 3; homogeneity of the periods maps one
    # onto the other by x = (3/2 / 1/2)^{2/5} = 3^{2/5}
    solved, _, _ = lattice_5x5
    q = apply_group(GroupElement(3**0.4, 0), solved[(1, 2)].potential)
    target = solved[(2, 5)]
    dev = max(abs(q.a - target.a), abs(q.b - target.b))
    assert report("lattice = rescaled kappa curve", dev <= 1e-9,
                  f"|(1,2) rescaled - (2,5)| = {dev:.2e}")


def test_rescaled_certificate_matches_fresh_classify(lattice_5x5):
    # each cell is its kappa node rescaled (and conjugated below the
    # diagonal), with no solve of its own: a fresh classify and fresh periods
    # of every cell must give its certificate, residual_norm included
    solved, _, _ = lattice_5x5
    assert len(solved) == 25
    worst_period, worst_gap, worst_rho = 0.0, 0.0, 0.0
    for (n, m), sol in solved.items():
        p = sol.potential
        g = classify(p)
        assert (g.class_code, g.decoration_shift) == ("320", 0)
        targets = {"a1": 1j * np.pi * (n - 0.5), "a-1": -1j * np.pi * (m - 0.5)}
        period = max(
            abs(cycle_period(p, cycle, labels=g.tp_labels, tol=1e-12).value - target)
            for cycle, target in targets.items()
        )
        worst_period = max(worst_period, period)
        worst_gap = max(worst_gap, abs(period - sol.residual_norm))
        rho = relative_errors(g).max_finite
        worst_rho = max(worst_rho, abs(rho - sol.rho_max) / rho)
        # (m, n) is the conjugate of (n, m); a diagonal cell is real
        twin = solved[(m, n)]
        assert (sol.a, sol.b) == (twin.a.conjugate(), twin.b.conjugate())
    ok = worst_period <= 1e-10 and worst_gap <= 1e-13 and worst_rho <= 1e-8
    assert report("rescaled certificate = fresh classify", ok,
                  f"period residual {worst_period:.2e} (reported within "
                  f"{worst_gap:.2e}), rho_max rel {worst_rho:.2e}")


def test_criterion_4_admissibility():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        s = stokes_multipliers(CubicPotential(a, b))
        worst = max(worst, s.max_normalized_residual)
    elapsed = time.time() - t0
    # normalized residuals: the absolute form is floored at machine epsilon
    # times |sigma_k sigma_{k+1}|, which reaches 1e+28 inside this sampling
    # box (see the decisions ledger)
    ok = worst <= 1e-6 and elapsed <= 300.0
    assert report(
        "criterion 4 (oracle admissibility)",
        ok,
        f"worst normalized residual {worst:.2e} over 20 samples, {elapsed:.0f}s",
    )


def test_criterion_5_margin_decay(diagonal_solutions):
    t0 = time.time()
    margins = []
    for n in range(1, 5):
        s = stokes_multipliers(diagonal_solutions[n].potential)
        margins.append(max(abs(s.sigma[2]), abs(s.sigma[-2])))
    elapsed = time.time() - t0
    ok = all(x > y for x, y in zip(margins, margins[1:])) and elapsed <= 300.0
    assert report(
        "criterion 5 (margin decay)",
        ok,
        "margins " + " > ".join(f"{m:.4f}" for m in margins) + f", {elapsed:.0f}s",
    )


def test_criterion_6_classification_suite(orbit_potential):
    t0 = time.time()
    ok = classify(CubicPotential(0, 0)).class_code == "000"
    ok &= classify(orbit_potential).class_code == "320"
    rng = np.random.default_rng(1)
    n_agree = 0
    n_simple = 0
    for _ in range(100):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        p = CubicPotential(a, b)
        g = classify(p)  # raises on any invariant violation
        deg = {i: 0 for i in range(len(g.tps.roots))}
        for i, j in g.internal_edges:
            deg[i] += 1
            deg[j] += 1
        for vi, k in g.external_edges:
            deg[vi] += 1
        ok &= all(deg[i] == m + 2 for i, m in enumerate(g.tps.multiplicities))
        ok &= len(g.internal_edges) <= 2
        if g.tps.multiplicities == (1, 1, 1):
            n_simple += 1
            agree = classify_by_periods(p).consistent_with(g.class_code)
            n_agree += agree
            ok &= agree
    elapsed = time.time() - t0
    ok &= elapsed <= 300.0
    assert report(
        "criterion 6 (classification suite)",
        bool(ok),
        f"100 potentials, {n_agree}/{n_simple} period-guess agreements, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_scaling_laws(orbit_potential, lattice_5x5):
    solved, _, _ = lattice_5x5
    samples = [orbit_potential] + [
        solved[nm].potential for nm in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3),
                                        (3, 3), (4, 3), (2, 2), (5, 5)]
    ]
    rng = np.random.default_rng(3)
    worst_p = 0.0
    worst_r = 0.0
    for p in samples:
        x = float(rng.uniform(0.6, 1.8))
        labels = label_turning_points_by_periods(p)
        base = cycle_period(p, "a1", labels=labels).value
        q = apply_group(GroupElement(x, 0), p)
        labels_x = {k: x * v for k, v in labels.items()}
        got = cycle_period(q, "a1", labels=labels_x).value
        worst_p = max(worst_p, abs(got - x**2.5 * base) / abs(x**2.5 * base))

        g = classify(p)
        rho = relative_errors(g).max_finite
        gq = classify(q)
        rho_x = relative_errors(gq).max_finite
        worst_r = max(worst_r, abs(rho_x - x**-2.5 * rho) / abs(x**-2.5 * rho))
    ok = worst_p <= 1e-8 and worst_r <= 1e-8
    assert report(
        "criterion 7 (scaling covariance)",
        ok,
        f"period rel dev {worst_p:.2e}, rho rel dev {worst_r:.2e} on 10 samples",
    )


def test_criterion_8_jacobian(lattice_5x5):
    from cubicwkb.potential import turning_points

    solved, _, _ = lattice_5x5
    keys = sorted(solved)[:20]
    h = 1e-5
    worst = 0.0
    for nm in keys:
        p = solved[nm].potential
        g = classify(p)
        labels = dict(g.tp_labels)
        da, db = cycle_period(p, "a1", labels=labels).gradient

        def period_at(a, b):
            # track the labels through the tiny perturbation by proximity
            q = CubicPotential(a, b)
            roots = list(turning_points(q).roots)
            lab = {
                name: min(roots, key=lambda r: abs(r - z))
                for name, z in labels.items()
            }
            return cycle_period(q, "a1", labels=lab).value

        fd_a = (period_at(p.a + h, p.b) - period_at(p.a - h, p.b)) / (2 * h)
        fd_b = (period_at(p.a, p.b + h) - period_at(p.a, p.b - h)) / (2 * h)
        worst = max(worst, abs(da - fd_a) / abs(fd_a), abs(db - fd_b) / abs(fd_b))
    ok = worst <= 1e-6
    assert report(
        "criterion 8 (Jacobian vs finite differences)",
        ok,
        f"worst relative deviation {worst:.2e} on {len(keys)} samples",
    )


def test_criterion_9_laurent(diagonal_solutions):
    from fractions import Fraction

    c2 = coeff_poly(2)
    c3 = coeff_poly(3)
    exact = c2 == {(1, 0): Fraction(1, 10)} and c3 == {(0, 0): Fraction(1, 6)}
    s1 = diagonal_solutions[1]
    series = laurent_coeffs(s1.a.real, s1.b.real, N=20)
    resid = pi_residual(series, series.pole + 0.05)
    ok = exact and resid <= 1e-10
    assert report(
        "criterion 9 (pole expansion)",
        ok,
        f"c2=a/10, c3=1/6 exact: {exact}; residual {resid:.2e} at 0.05",
    )

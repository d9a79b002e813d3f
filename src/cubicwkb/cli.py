"""Batch front-end: classify, solve lattices, run the monodromy oracle.

Exit codes: 0 success, 1 usage error, 2 ambiguity / partial results (and
verify multipliers whose normalized admissibility residual exceeds 1e-6),
3 numerical failure.  All numeric output uses decimal points; JSON and CSV
carry full machine precision, the human-readable tables four significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache

import numpy as np

from .bsb import real_orbit_constants, real_poles, solve_lattice
from .export import graph_to_json, graph_to_svg
from .monodromy import MonodromyError, stokes_multipliers, tritronquee_test
from .potential import CubicPotential
from .stokes import (
    AmbiguousClassError,
    ClassificationError,
    classify,
    trace_stokes_lines,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AMBIGUOUS = 2
EXIT_NUMERICAL = 3

# normalized admissibility above which verify reports its multipliers as
# untrustworthy (the criterion-4 gate)
ADMISSIBILITY_GATE = 1e-6

# embedded reference values for the comparison table: the first two real
# poles of the tritronquee solution and mu1 = a1^3 / b1^2, to 10 digits,
# computed by integrating y'' = 6 y^2 - z from its asymptotic series and
# fitting the Laurent expansion at each pole (the test suite recomputes them);
# a1 agrees with Joshi & Kitaev (2001)
REFERENCE_NUMERIC = {
    "a1": -2.384168770,
    "b1": -0.06213573923,
    "mu1": -3510.169154,
    "a2": -5.664602914,
}


def _parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number: {s!r}") from exc
    if not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"must be a finite complex number, got {s!r}")
    return z


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _positive_float(s: str) -> float:
    x = float(s)
    if not (np.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {s!r}")
    return x


# the values a config file may give an on/off flag
_FLAG_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _load_config(path: str | None) -> dict:
    """Simple key=value config file; the values are kept as text."""
    if not path:
        return {}
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = (t.strip() for t in line.split("=", 1))
            out[key] = val
    return out


def cmd_classify(args) -> int:
    p = CubicPotential(args.a, args.b)
    try:
        g = classify(p)
    except AmbiguousClassError as exc:
        print(f"ambiguous: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except ClassificationError as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = graph_to_json(g)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(graph_to_svg(g, compactified=args.disk))
    return EXIT_OK


def cmd_trace(args) -> int:
    p = CubicPotential(args.a, args.b)
    try:
        lines = trace_stokes_lines(p, anti_stokes=args.anti)
    except ClassificationError as exc:
        print(f"tracing failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = [
        {
            "origin": ln.origin,
            "direction": ln.direction_index,
            "terminal": list(ln.terminal),
            "polyline": [[z.real, z.imag] for z in ln.points],
        }
        for ln in lines
    ]
    # built fresh, without cycles: the encoder's cycle check is skipped
    text = json.dumps(out, check_circular=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def cmd_poles(args) -> int:
    solved, failures = solve_lattice(args.nmax, args.mmax, tol=args.tol)
    rows = []
    for (n, m), sol in sorted(solved.items()):
        rows.append(
            [n, m, sol.a.real, sol.a.imag, sol.b.real, sol.b.imag,
             sol.residual_norm, sol.rho_max]
        )
    out = sys.stdout if not args.out else open(args.out, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(["n", "m", "re_a", "im_a", "re_b", "im_b", "residual", "rho_max"])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    finally:
        if args.out:
            out.close()
    min_arg = min(abs(np.angle(complex(s.a))) for s in solved.values()) if solved else np.nan
    print(f"min |arg a| over lattice: {min_arg:.6f} (4*pi/5 = {4*np.pi/5:.6f})",
          file=sys.stderr)
    for nm, msg in failures.items():
        print(f"cell {nm} failed: {msg}", file=sys.stderr)
    if failures:
        return EXIT_AMBIGUOUS
    return EXIT_OK


def cmd_verify(args) -> int:
    p = CubicPotential(args.a, args.b)
    try:
        s = stokes_multipliers(p, R=args.radius)
    except MonodromyError as exc:
        print(f"monodromy failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    passed, margin = tritronquee_test(s, threshold=args.threshold)
    report = {
        "sigma": {str(k): [s.sigma[k].real, s.sigma[k].imag] for k in range(-2, 3)},
        "admissibility_residuals": [
            [r.real, r.imag] for r in s.admissibility_residuals
        ],
        "normalized_residuals": list(s.normalized_residuals),
        "two_point_spread": s.two_point_spread,
        "est_error": s.est_error,
        "initial_data_error": list(s.init_errors),
        "tritronquee_margin": margin,
        "tritronquee": bool(passed),
        "completed": list(s.completed),
        "transport_steps": {
            "taylor_steps": s.taylor_steps,
            "rejected_steps": s.rejected_steps,
        },
        "trace_points": s.trace_points,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    worst = s.max_normalized_residual
    if not worst <= ADMISSIBILITY_GATE:
        print(f"normalized admissibility residual {worst:.3e} exceeds "
              f"{ADMISSIBILITY_GATE:g}: the multipliers are not reliable", file=sys.stderr)
        return EXIT_AMBIGUOUS
    return EXIT_OK


def cmd_constants(args) -> int:
    mu, a_s, b_s = real_orbit_constants()
    print(f"mu_star = {mu:.10g}")
    print(f"a_star  = {a_s:.10g}")
    print(f"b_star  = {b_s:.10g}")
    return EXIT_OK


def _fmt4(x: float) -> str:
    return f"{x:.4g}"


def cmd_table2(args) -> int:
    """Comparison of the quantization predictions with reference pole data."""
    (a1, b1), (a2, b2) = real_poles(2)
    mu1 = a1**3 / b1**2
    mu2 = a2**3 / b2**2
    ref = REFERENCE_NUMERIC
    rows = [
        ("a1", a1, ref["a1"]),
        ("b1", b1, ref["b1"]),
        ("mu1", mu1, ref["mu1"]),
        ("a2", a2, ref["a2"]),
        ("b2", b2, None),
        ("mu2", mu2, None),
    ]
    print(f"{'':>5} {'computed':>12} {'reference':>12} {'error %':>9}")
    for name, wkb, num in rows:
        if num is None:
            print(f"{name:>5} {_fmt4(wkb):>12} {'unknown':>12} {'unknown':>9}")
        else:
            err = 100.0 * abs(wkb - num) / abs(num)
            print(f"{name:>5} {_fmt4(wkb):>12} {_fmt4(num):>12} {_fmt4(err):>9}")
    return EXIT_OK


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The command-line parser; config values replace the option defaults."""
    ap = argparse.ArgumentParser(
        prog="cubicwkb",
        description="WKB analysis of cubic oscillators and the pole lattice "
        "of the Painleve-I tritronquee solution",
    )
    ap.add_argument("--config", help="key=value config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify the Stokes complex of one potential")
    c.add_argument("--a", type=_parse_complex, required=True)
    c.add_argument("--b", type=_parse_complex, required=True)
    c.add_argument("--json", help="write graph JSON here (default stdout)")
    c.add_argument("--svg", help="write an SVG drawing here")
    c.add_argument("--disk", action="store_true", help="compactified disk view")

    t = sub.add_parser("trace", help="dump raw Stokes polylines as JSON")
    t.add_argument("--a", type=_parse_complex, required=True)
    t.add_argument("--b", type=_parse_complex, required=True)
    t.add_argument("--anti", action="store_true", help="trace anti-Stokes lines")
    t.add_argument("--out")

    o = sub.add_parser("poles", help="solve the quantization lattice, emit CSV")
    o.add_argument("--nmax", type=_positive_int, default=5)
    o.add_argument("--mmax", type=_positive_int, default=5)
    o.add_argument("--tol", type=_positive_float, default=1e-10)
    o.add_argument("--out", help="CSV path (default stdout)")

    v = sub.add_parser("verify", help="direct monodromy report for one potential")
    v.add_argument("--a", type=_parse_complex, required=True)
    v.add_argument("--b", type=_parse_complex, required=True)
    v.add_argument("--radius", type=float, default=None)
    v.add_argument("--threshold", type=_positive_float, default=1e-3)
    v.add_argument("--out")

    sub.add_parser("constants", help="print the real-orbit constants")

    sub.add_parser("table2", help="comparison table against reference poles")

    # argparse applies an option's type to a string default, so the config's
    # text passes the same checks as the flag; on/off flags read their value
    config = {key.replace("-", "_"): val for key, val in (config or {}).items()}
    for parser in sub.choices.values():
        defaults = {}
        for a in parser._actions:
            if a.dest not in config or not a.option_strings:
                continue
            val = config[a.dest]
            if isinstance(a, argparse._StoreTrueAction):
                if val not in _FLAG_VALUES:
                    ap.error(f"config value {a.dest} = {val!r}: expected true, false, 1 or 0")
                val = _FLAG_VALUES[val]
            defaults[a.dest] = val
        parser.set_defaults(**defaults)
    return ap


@lru_cache(maxsize=1)
def _default_parser() -> argparse.ArgumentParser:
    """The config-free parser, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _default_parser().parse_args(argv)
        cfg = _load_config(args.config)
        if cfg:
            # a flag given explicitly on the command line wins over the config
            args = build_parser(cfg).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except OSError as exc:
        print(f"cannot read config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # looked up by name at call time, so a rebound cmd_* is the one run
        return globals()["cmd_" + args.command](args)
    except OSError as exc:
        print(f"cannot write output file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

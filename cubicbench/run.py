"""cubicwkb benchmark: seeded lattice / oracle / atlas workloads.

    python3 cubicbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/cubicwkb`` beside this
directory) as one single-threaded process.  Each workload calls the in-process
CLI entry ``cubicwkb.cli.main(argv)`` on inputs generated from ``--seed`` in
batches of fixed composition, for about ``--seconds`` seconds, and checks every
output after the batch's timed calls (see workloads.py).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Call and batch times are reported in units of a fixed reference loop sampled
throughout every call (``ref``): the host's speed drifts by tens of percent
within a minute, and the ratio cancels most of that drift.  The raw seconds are in the
details line.  ``--trace 1`` alternates an untraced and a traced pass over the
first batch and prints the per-layer metrics of one traced batch (see
tracer.py).  The last line of standard output is the JSON result; the line
before it holds the run's environment and details, which are also written,
with the spans of a traced run, under ``.cubicbench/`` in the checkout.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from time import perf_counter

# one thread everywhere: BLAS and OpenMP read these when numpy loads, which
# happens only once main() imports cubicwkb
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".cubicbench"
WORK = OUT / "work"            # per-call output files, removed after the run

# the program's one-time set-up: import, then the real-orbit constants that
# every workload's inputs and the lattice seeds are built from
SETUP = "import cubicwkb.cli\nfrom cubicwkb.bsb import real_orbit_constants\nreal_orbit_constants()\n"
SETUP_CHILDREN = 2
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
REF_ITER = 2000                # about 1 ms of reference work
REF_PERIOD = 0.05              # seconds between reference samples

# layer functions reported as per-layer metrics; True: also report `failed`
LAYER_FUNCTIONS = {
    "stokes.classify": True,
    "stokes.trace_stokes_lines": True,
    "stokes.classify_by_periods": True,
    "action.cycle_period": True,
    "action.period_jacobian": True,
    "action.label_turning_points_by_periods": True,
    "action.turning_point_action": True,
    "action.alpha_integral": True,
    "bsb.solve_bsb": True,
    "bsb.continue_to": True,
    "monodromy.stokes_multipliers": True,
    "wkb.relative_errors": True,
    "export.graph_to_json": False,
    "export.graph_to_svg": False,
    "painleve.laurent_coeffs": False,
    "painleve.pi_residual": True,
    "potential.turning_points": False,
    "cli.main": False,
}


def timed_setup() -> float:
    t0 = perf_counter()
    exec(SETUP, {})
    return perf_counter() - t0


def child_setup() -> float:
    """Set-up time in a fresh interpreter (timed inside it)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        f"exec({SETUP!r}, {{}})\n"
        "print(time.perf_counter() - t0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def reference_s() -> float:
    """Time of a fixed loop of complex scalar arithmetic and small numpy calls.

    The loop does the kind of work the program does and lasts about a
    millisecond.
    """
    import numpy as np

    t0 = perf_counter()
    z = 0j
    for i in range(REF_ITER):
        z = z * 0.999 + complex(i % 7, 1) ** 0.5
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(REF_ITER // 64):
        v = np.sqrt(v + 1.0)
    return perf_counter() - t0


class RefSampler:
    """Times the reference loop every REF_PERIOD seconds while work runs.

    A SIGALRM handler runs the loop in the middle of the program's own work,
    so the mean of the samples taken during a call follows the host's speed
    over that call.  ``spent`` is the time the handler took; callers subtract
    it from what they measure.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_s())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def measure(self, fn, *args):
        """(fn's result, its seconds net of sampling, its seconds in ref units)."""
        n, spent = len(self.samples), self.spent
        t0 = perf_counter()
        out = fn(*args)
        seconds = perf_counter() - t0 - (self.spent - spent)
        ref = statistics.mean(self.samples[n:]) if len(self.samples) > n else reference_s()
        return out, seconds, seconds / ref


def call_main(cli, argv, tracer=None, call_id=None):
    """One timed ``cli.main(argv)`` call with its output captured."""
    from workloads import Outcome

    if tracer is not None:
        tracer.call = call_id
    out, err = StringIO(), StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed call, reported with its traceback
        code = None
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), perf_counter() - t0)


@dataclass
class Batch:
    wall_s: float                  # calls and gates, reference sampling excluded
    wall_ref: float                # the same in reference units
    sampling_s: float              # time the reference sampling took
    call_ref: list[float]          # each call in reference units
    outs: list
    status: list[str]


def run_batch(wl, cli, calls, tag, tracer=None) -> Batch:
    """Timed calls, then the gates, with the reference loop sampled throughout."""
    outs, call_ref = [], []
    with RefSampler() as ref:
        for i, c in enumerate(calls):
            out, seconds, in_ref = ref.measure(call_main, cli, c.argv, tracer, f"{tag}c{i}")
            outs.append(replace(out, seconds=seconds))
            call_ref.append(in_ref)
        if tracer is not None:
            tracer.call = f"{tag}gate"
        status, gate_s, gate_ref = ref.measure(wl.check, calls, outs)
    return Batch(
        wall_s=sum(o.seconds for o in outs) + gate_s,
        wall_ref=sum(call_ref) + gate_ref,
        sampling_s=ref.spent,
        call_ref=call_ref,
        outs=outs,
        status=status,
    )


def tail(values):
    """Highest listed percentile with at least ten samples beyond it."""
    xs = sorted(values)
    best = None
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100 * len(xs))
        if k >= 1 and len(xs) - k >= 10:
            best = {"percentile": p, "value": xs[k - 1], "samples": len(xs)}
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, cli, seed, seconds, batches, details):
    from workloads import batch_rng

    done: list[Batch] = []
    results = 0
    t0 = perf_counter()
    while True:
        calls = wl.batch(batch_rng(seed, wl.name, len(done)), WORK)
        b = run_batch(wl, cli, calls, f"b{len(done)}")
        done.append(b)
        results += sum(c.results for c in calls)
        batches.append({"wall_s": b.wall_s, "wall_ref": b.wall_ref,
                        "calls": [" ".join(c.argv) for c in calls],
                        "call_s": [o.seconds for o in b.outs], "call_ref": b.call_ref,
                        "status": b.status})
        if perf_counter() - t0 + statistics.median(x.wall_s for x in done) > seconds:
            break
    call_s = [o.seconds for b in done for o in b.outs]
    call_ref = [r for b in done for r in b.call_ref]
    details["seconds_metrics"] = {
        "wall_s": statistics.median(b.wall_s for b in done),
        "results_per_s": results / sum(b.wall_s for b in done),
        "call_p50_s": statistics.median(call_s),
        "call_tail_s": tail(call_s),
        "ref_s": statistics.median(b.wall_s / b.wall_ref for b in done),
    }
    details["call_tail_ref"] = tail(call_ref)
    return {
        "wall_ref": metric(statistics.median(b.wall_ref for b in done), "ref"),
        "results_per_ref": metric(results / sum(b.wall_ref for b in done), "1/ref"),
        "call_p50_ref": metric(statistics.median(call_ref), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, [s for b in done for s in b.status]


def traced(wl, cli, seed, seconds, batches, details, spans_path):
    """Pairs of (untraced, traced) passes over batch 0; per-layer metrics per batch."""
    from tracer import Tracer
    from workloads import batch_rng

    calls = wl.batch(batch_rng(seed, wl.name, 0), WORK)
    plain, traced_, statuses = [], [], []
    tr = Tracer()
    t0 = perf_counter()
    while True:
        plain.append(run_batch(wl, cli, calls, f"p{len(plain)}"))
        with tr:
            traced_.append(run_batch(wl, cli, calls, f"t{len(traced_)}", tr))
        statuses += plain[-1].status + traced_[-1].status
        batches.append({"plain_wall_s": plain[-1].wall_s, "traced_wall_s": traced_[-1].wall_s,
                        "status": traced_[-1].status})
        if perf_counter() - t0 + 2 * statistics.mean(b.wall_s for b in traced_) > seconds:
            break
    pairs = len(traced_)
    table = tr.table()
    details["layers_per_batch"] = {k: {f: v / pairs for f, v in row.items()} for k, row in sorted(table.items())}
    # spans include the reference sampling, so their wall does too
    details["traced_wall_s_per_batch"] = sum(b.wall_s + b.sampling_s for b in traced_) / pairs
    tr.dump(spans_path)

    def row(name):
        return table.get(name, {"calls": 0, "failed": 0, "self_s": 0.0, "nfev": 0})

    out = {}
    for name, with_failed in LAYER_FUNCTIONS.items():
        r = row(name)
        out[f"{name}.calls"] = metric(r["calls"] / pairs, "count")
        out[f"{name}.self_s"] = metric(r["self_s"] / pairs, "s")
        if with_failed:
            out[f"{name}.failed"] = metric(r["failed"] / pairs, "count")
    cells = sum(c.results for c in calls) if wl.name == "lattice" else 0
    details["cells_per_batch"] = cells
    for key, span in (("classify", "stokes.classify"), ("jacobians", "action.period_jacobian"),
                      ("periods", "action.cycle_period")):
        under = tr.count_under(span, "bsb") / pairs
        out[f"bsb.{key}_per_cell"] = metric(under / cells if cells else 0.0, "calls/cell")
    ode = row("monodromy.ode")
    potentials = row("monodromy.stokes_multipliers")["calls"]
    out["monodromy.ode.calls"] = metric(ode["calls"] / pairs, "count")
    out["monodromy.ode.self_s"] = metric(ode["self_s"] / pairs, "s")
    out["monodromy.ode.nfev"] = metric(ode["nfev"] / pairs, "count")
    out["monodromy.ode.nfev_per_potential"] = metric(
        ode["nfev"] / potentials if potentials else 0.0, "nfev/potential")
    out["trace.overhead_frac"] = metric(
        sum(b.wall_ref for b in traced_) / sum(b.wall_ref for b in plain) - 1.0, "fraction")
    return out, statuses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("lattice", "oracle", "atlas"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cubicwkb" / "__init__.py").is_file():
        print(f"cubicbench: no cubicwkb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = [timed_setup()] + [child_setup() for _ in range(SETUP_CHILDREN)]
    import cubicwkb.cli as cli
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    WORK.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    batches = []
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": environment(), "setup_samples_s": setups,
               "batches": batches}
    try:
        if args.trace:
            metrics, statuses = traced(wl, cli, args.seed, args.seconds, batches, details,
                                       stem.with_suffix(".spans.json"))
        else:
            metrics, statuses = untraced(wl, cli, args.seed, args.seconds, batches, details)
            metrics = {"setup_s": metric(statistics.median(setups), "s"), **metrics}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = [s for s in statuses if s != "ok"]
    result = {
        "correct": not any(s.startswith("wrong") for s in failed),
        "attempted": len(statuses),
        "failed": len(failed),
        "metrics": metrics,
    }
    details["failures"] = failed
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
    print(json.dumps({k: v for k, v in details.items() if k != "batches"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

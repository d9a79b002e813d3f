"""Speed trajectory of cubicwkb: one BENCH_<label>.json per measured commit.

    python3 tools/trajectory.py --label NAME [--root CHECKOUT]

Measures the source checkout at --root (by default the one holding this
script) and writes BENCH_NAME.json beside this script's checkout:

- ``cli_s``: the median and quartiles of the wall time of fresh processes
  (``python -m cubicwkb.cli``) running ``poles --nmax 5 --mmax 5``,
  ``verify --a 0.4 --b -0.3`` and ``classify --a 0.4 --b -0.3``, each
  RUNS times, interleaved;
- ``layers_s``: in-process medians, in seconds per call, of the turning points
  (a fresh potential each call), ``cycle_period`` and ``classify`` at the
  real orbit point, ``stokes_multipliers(0.4, -0.3)``,
  ``laurent_coeffs(N=20)`` at the first real pole and a warm
  ``solve_lattice(5, 5)``;
- ``tier1``: the wall time and summary line of the checkout's Tier-1 tests.

Each part runs in a child process with only the checkout's ``src`` on the
path, so two checkouts can be measured by one copy of this script.  The host
speed drifts by tens of percent within minutes: compare two files only when
they were measured back to back, on one host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parents[1]
RUNS = 10                      # fresh processes per CLI call

CLI_CALLS = {
    "poles_5x5": ["poles", "--nmax", "5", "--mmax", "5"],
    "verify": ["verify", "--a", "0.4", "--b", "-0.3"],
    "classify": ["classify", "--a", "0.4", "--b", "-0.3"],
}

# the child that times each layer: median seconds per call over `reps` calls
LAYERS = r"""
import json, statistics
from time import perf_counter
from cubicwkb.action import cycle_period
from cubicwkb.bsb import real_orbit_potential, real_poles, solve_lattice
from cubicwkb.monodromy import stokes_multipliers
from cubicwkb.painleve import laurent_coeffs
from cubicwkb.potential import CubicPotential
from cubicwkb.stokes import classify

orbit = real_orbit_potential()
labels = classify(orbit).tp_labels
(a1, b1), = real_poles(1)
solve_lattice(5, 5)
calls = {
    "turning_points": (lambda: CubicPotential(orbit.a, orbit.b).turning_points, 2000),
    "cycle_period": (lambda: cycle_period(orbit, "a1", labels), 2000),
    "classify": (lambda: classify(orbit), 50),
    "stokes_multipliers": (lambda: stokes_multipliers(CubicPotential(0.4, -0.3)), 20),
    "laurent_coeffs_20": (lambda: laurent_coeffs(a1, b1, N=20), 500),
    "solve_lattice_5x5_warm": (lambda: solve_lattice(5, 5), 20),
}
out = {}
for name, (fn, reps) in calls.items():
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                        platform.processor())
    except OSError:
        return platform.processor()


def git_commit(root: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", type=Path, default=HERE, help="source checkout to measure")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    env = child_env(root)

    cli = {name: [] for name in CLI_CALLS}
    for _ in range(RUNS):
        for name, call in CLI_CALLS.items():
            t0 = perf_counter()
            subprocess.run([sys.executable, "-m", "cubicwkb.cli", *call], env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            cli[name].append(perf_counter() - t0)

    layers = subprocess.run([sys.executable, "-c", LAYERS], env=env, check=True,
                            capture_output=True, text=True)

    t0 = perf_counter()
    tier1 = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", str(root / "tests")],
        env=env, cwd=root, capture_output=True, text=True)
    tier1_s = perf_counter() - t0

    report = {
        "label": args.label,
        "commit": git_commit(root),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(), "machine": platform.machine()},
        "python": platform.python_version(),
        "dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE", "") != "",
        "cli_s": {name: quartiles(times) for name, times in cli.items()},
        "layers_s": json.loads(layers.stdout),
        "tier1": {"wall_s": tier1_s, "exit": tier1.returncode,
                  "summary": (tier1.stdout.strip().splitlines() or [""])[-1]},
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

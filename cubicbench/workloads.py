"""Seeded workloads for the cubicwkb benchmark and the gates that check them.

Each workload turns (seed, batch index) into a batch of ``cubicwkb`` command
lines with a fixed composition, so every batch costs about the same while the
seed changes the inputs.  After a batch's timed calls, ``check`` compares each
output with an independent oracle and returns one status per call: ``"ok"``,
``"ambiguous: ..."`` (a documented ambiguity; the call counts as failed but
the output is not wrong) or ``"wrong: ..."``.

Gate thresholds are the ones the test suite and the CLI already use:
criterion 3 (|arg a| > 4 pi/5), criterion 4 (normalized admissibility <= 1e-6),
criterion 5 (tritronquee margin decreasing along the diagonal), criterion 6
(valency law, at most two internal edges, period-guess agreement), criterion 9
(Painleve-I residual <= 1e-10 at distance 0.05) and the solver tolerance that
``cubicwkb poles`` promises by default.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

# gates call the program through module attributes, so a traced run sees them
from cubicwkb import action, painleve, stokes
from cubicwkb.bsb import real_orbit_potential, real_poles
from cubicwkb.cli import build_parser
from cubicwkb.potential import CubicPotential
from cubicwkb.stokes import AmbiguousClassError

OK = "ok"
OMEGA = np.exp(2j * np.pi / 5)
SECTOR_BOUND = 4 * np.pi / 5           # criterion 3
ADMISSIBILITY_GATE = 1e-6              # criterion 4
PAINLEVE_GATE = 1e-10                  # criterion 9
PAINLEVE_OFFSET = 0.05                 # criterion 9
CSV_HEADER = ["n", "m", "re_a", "im_a", "re_b", "im_b", "residual", "rho_max"]


@dataclass(frozen=True)
class Call:
    """One ``cubicwkb`` command line and what its gate needs to know."""

    argv: tuple[str, ...]
    results: int                      # lattice cells or potentials it yields
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Outcome:
    code: int | None                  # None: main() raised
    stdout: str
    stderr: str
    seconds: float


def fmt(z: complex) -> str:
    """A value ``_parse_complex`` reads back exactly."""
    z = complex(z)
    return repr(z.real) if z.imag == 0 else repr(z)


def batch_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def wrong(msg: str) -> str:
    return "wrong: " + msg


# -- lattice -------------------------------------------------------------------


class Lattice:
    """``poles --nmax N --mmax M`` with the default class check.

    A batch is one rectangle of each shape in SHAPES; the seed picks each
    rectangle's orientation and the order.  The transposed rectangle solves
    the conjugate cells, so the batch cost stays nearly fixed.
    """

    name = "lattice"
    SHAPES = ((1, 2), (2, 2), (1, 3), (2, 3))

    def __init__(self):
        self.tol = build_parser().parse_args(["poles"]).tol

    def batch(self, rng, work):
        calls = []
        for i in rng.permutation(len(self.SHAPES)):
            n, m = self.SHAPES[i]
            if rng.integers(2):
                n, m = m, n
            calls.append(Call(("poles", f"--nmax={n}", f"--mmax={m}"), n * m, {"shape": (n, m)}))
        return calls

    def check(self, calls, outs):
        return [self._check_one(c, o) for c, o in zip(calls, outs)]

    def _check_one(self, call, out):
        if out.code != 0:
            return wrong(f"exit {out.code}: {out.stderr.strip()[-200:]}")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        if not rows or rows[0] != CSV_HEADER:
            return wrong("CSV header")
        n_max, m_max = call.meta["shape"]
        cells = {(int(r[0]), int(r[1])): [float(x) for x in r[2:]] for r in rows[1:]}
        want = {(n, m) for n in range(1, n_max + 1) for m in range(1, m_max + 1)}
        if set(cells) != want:
            return wrong(f"unsolved cells {sorted(want - set(cells))}")
        for (n, m), (ra, ia, rb, ib, _, _) in sorted(cells.items()):
            msg = self.cell_gate(n, m, complex(ra, ia), complex(rb, ib))
            if msg:
                return wrong(f"cell ({n},{m}): {msg}")
        return OK

    def cell_gate(self, n, m, a, b):
        """Empty string when (a, b) is a checked (n, m) pole, else the reason."""
        p = CubicPotential(a, b)
        try:
            guess = stokes.classify_by_periods(p)
        except AmbiguousClassError as exc:
            return f"periods are not quantized: {exc}"
        if guess.family != "320":
            return f"period class {guess.family}"
        targets = {"a1": 1j * np.pi * (n - 0.5), "a-1": -1j * np.pi * (m - 0.5)}
        for cycle, target in targets.items():
            got = action.cycle_period(p, cycle, labels=guess.labels, tol=1e-12).value
            if abs(got - target) > self.tol:
                return f"period {cycle} off by {abs(got - target):.2e}"
        if abs(np.angle(a)) <= SECTOR_BOUND:
            return f"|arg a| = {abs(np.angle(a)):.4f} inside the pole-free sector"
        series = painleve.laurent_coeffs(a, b)
        resid = painleve.pi_residual(series, series.pole + PAINLEVE_OFFSET)
        if resid > PAINLEVE_GATE:
            return f"Painleve residual {resid:.2e}"
        return ""


# -- oracle --------------------------------------------------------------------


def _scales(a, b):
    """Turning-point radius of 4x^3 - 2ax - 28b for arrays of (a, b)."""
    comp = np.zeros(a.shape + (3, 3), dtype=complex)
    comp[..., 1, 0] = comp[..., 2, 1] = 1.0
    comp[..., 0, 2] = 7.0 * b          # x^3 + p x + q with p = -a/2, q = -7 b
    comp[..., 1, 2] = 0.5 * a
    return np.abs(np.linalg.eigvals(comp)).max(axis=-1)


def _box(rng, size=None):
    """Uniform complex values with |Re|, |Im| <= 3 (the criterion-4 box)."""
    return rng.uniform(-3, 3, size) + 1j * rng.uniform(-3, 3, size)


class Oracle:
    """``verify`` on criterion-4 box potentials and the first diagonal poles.

    The ODE cost grows almost linearly with the turning-point radius, so the
    random potentials are drawn from the box at fixed levels of that radius:
    one from the middle half of each tercile (quantiles of a fixed 4096-point
    sample of the box).  The seed changes the geometry of each potential but
    not its scale, which keeps the batch cost nearly fixed.  The diagonal pole
    n = 3 (15 s alone) is left out to keep a batch near 20 s.
    """

    name = "oracle"
    POLES = 2
    STRATA = 3

    def __init__(self):
        ref = np.random.default_rng(0)
        a, b = _box(ref, 4096), _box(ref, 4096)
        levels = (np.arange(self.STRATA)[:, None] + [0.25, 0.75]) / self.STRATA
        self.bands = np.quantile(_scales(a, b), levels)
        self.poles = real_poles(self.POLES)

    def batch(self, rng, work):
        calls = [
            Call(("verify", f"--a={fmt(a)}", f"--b={fmt(b)}"), 1, {"pole": n})
            for n, (a, b) in enumerate(self.poles, start=1)
        ]
        for lo, hi in self.bands:
            while True:
                a, b = _box(rng), _box(rng)
                if lo <= _scales(np.array(a), np.array(b)) < hi:
                    break
            calls.append(Call(("verify", f"--a={fmt(a)}", f"--b={fmt(b)}"), 1, {}))
        return [calls[i] for i in rng.permutation(len(calls))]

    def check(self, calls, outs):
        status, margins = [], {}
        for c, o in zip(calls, outs):
            if o.code != 0:
                status.append(wrong(f"exit {o.code}: {o.stderr.strip()[-200:]}"))
                continue
            rep = json.loads(o.stdout)
            worst = max(rep["normalized_residuals"])
            if not worst <= ADMISSIBILITY_GATE:
                status.append(wrong(f"normalized admissibility residual {worst:.2e}"))
                continue
            if "pole" in c.meta:
                margins[c.meta["pole"]] = (rep["tritronquee_margin"], len(status))
            status.append(OK)
        for n in range(2, self.POLES + 1):
            if n in margins and n - 1 in margins and not margins[n][0] < margins[n - 1][0]:
                status[margins[n][1]] = wrong(
                    f"margin {margins[n][0]:.4g} at pole {n} does not decrease "
                    f"from {margins[n - 1][0]:.4g}"
                )
        return status


# -- atlas ---------------------------------------------------------------------


def normalize(a: complex, b: complex) -> tuple[complex, complex]:
    """The R+ image with max(|a|^(1/2), |b|^(1/3)) = 1 (weights 2 and 3)."""
    x = 1.0 / max(abs(a) ** 0.5, abs(b) ** (1.0 / 3.0))
    return a * x**2, b * x**3


def group_image(x: float, m: int, a: complex, b: complex) -> tuple[complex, complex]:
    """(w^2m x^2 a, w^3m x^3 b), the R+ x Z5 action written out."""
    return OMEGA ** (2 * m) * x**2 * a, OMEGA ** (3 * m) * x**3 * b


class Atlas:
    """``classify --json --svg`` over one fundamental domain of R+ x Z5.

    The domain is max(|a|^(1/2), |b|^(1/3)) = 1 with arg b in [4pi/5, 6pi/5),
    which holds the real quantizing orbit point (a = -1).  A batch mixes four
    kinds of point in fixed numbers: real points, the orbit point with its
    group images, small imaginary shifts of the orbit point's a or b (near a
    class boundary, where the Stokes lines nearly connect) and generic
    complex points.
    """

    name = "atlas"
    KINDS = (("real", 3), ("group", 3), ("perturbed", 7), ("generic", 7))
    # log10 ranges of the perturbations; their period-guess Re-scores run
    # from about 2e-3 to 0.3, clear of the band (1e-7, 1e-4) by a factor 19
    SHIFT_A = (-2.5, -1.5)
    SHIFT_B = (-4.0, -2.0)

    def __init__(self):
        orbit = real_orbit_potential()
        self.orbit = (complex(orbit.a), complex(orbit.b))

    def points(self, rng):
        out = []
        for kind, count in self.KINDS:
            for i in range(count):
                meta = {"kind": kind}
                if kind == "real":
                    a, b = normalize(rng.uniform(-1, 1), -(1.0 - rng.uniform()))
                elif kind == "group":
                    # the first is the orbit point itself, the base of the
                    # covariance gate
                    x, m = (1.0, 0) if i == 0 else (rng.uniform(0.5, 2.0), int(rng.integers(5)))
                    a, b = group_image(x, m, *self.orbit)
                    meta.update(m=m, base=i == 0)
                elif kind == "perturbed":
                    # an imaginary shift of a or of b moves all three pair
                    # actions off the imaginary axis at about the same rate;
                    # a shift of another phase can cancel that for one pair
                    # and leave the period guess in its tolerance band
                    shift = 1j * (1 if rng.integers(2) else -1)
                    a, b = self.orbit
                    if i % 2:
                        a += shift * 10.0 ** rng.uniform(*self.SHIFT_A)
                    else:
                        b += shift * 10.0 ** rng.uniform(*self.SHIFT_B)
                else:
                    a = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                    b = np.sqrt(rng.uniform()) * np.exp(1j * np.pi * (0.8 + 0.4 * rng.uniform()))
                    a, b = normalize(a, b)
                out.append((complex(a), complex(b), meta))
        return out

    def batch(self, rng, work):
        pts = self.points(rng)
        calls = []
        for k in rng.permutation(len(pts)):
            a, b, meta = pts[k]
            stem = work / f"atlas-{len(calls)}"
            argv = ("classify", f"--a={fmt(a)}", f"--b={fmt(b)}",
                    f"--json={stem}.json", f"--svg={stem}.svg")
            calls.append(Call(argv, 1, {**meta, "a": a, "b": b, "stem": str(stem)}))
        return calls

    def check(self, calls, outs):
        status, graphs = [], []
        for c, o in zip(calls, outs):
            g = None
            if o.code == 2:
                s = "ambiguous: " + o.stderr.strip()[-200:]
            elif o.code != 0:
                s = wrong(f"exit {o.code}: {o.stderr.strip()[-200:]}")
            else:
                with open(c.meta["stem"] + ".json", encoding="utf-8") as fh:
                    g = json.load(fh)
                with open(c.meta["stem"] + ".svg", encoding="utf-8") as fh:
                    svg = fh.read()
                s = self.graph_gate(c.meta["a"], c.meta["b"], g, svg)
            status.append(s)
            graphs.append(g if s == OK else None)
        # covariance: each group image has the class of the orbit point,
        # with the decoration shifted by the group's Z5 component
        base = next(g for c, g in zip(calls, graphs) if c.meta.get("base"))
        for i, (c, g) in enumerate(zip(calls, graphs)):
            if c.meta["kind"] != "group" or c.meta["base"] or g is None:
                continue
            if base is None:
                status[i] = wrong("orbit point has no class to compare with")
            elif g["class_code"] != base["class_code"] or g["shift"] != (base["shift"] + c.meta["m"]) % 5:
                status[i] = wrong(
                    f"group image m={c.meta['m']} classifies as {g['class_code']} shift "
                    f"{g['shift']}, orbit point as {base['class_code']} shift {base['shift']}"
                )
        return status

    @staticmethod
    def graph_gate(a, b, g, svg):
        degree = [0] * len(g["vertices"])
        internal = 0
        for e in g["edges"]:
            degree[e["from"]] += 1
            if e["type"] == "internal":
                degree[e["to"]] += 1
                internal += 1
        mult = [v["multiplicity"] for v in g["vertices"]]
        if degree != [m + 2 for m in mult]:
            return wrong(f"vertex degrees {degree} for multiplicities {mult}")
        if internal > 2:
            return wrong(f"{internal} internal edges")
        if not svg.startswith("<svg") or svg.count("<polyline") != sum(m + 2 for m in mult):
            return wrong("SVG does not draw one polyline per Stokes line")
        if f"class {g['class_code']}, shift {g['shift']}" not in svg:
            return wrong("SVG caption disagrees with the JSON class")
        if mult == [1, 1, 1]:
            try:
                guess = stokes.classify_by_periods(CubicPotential(a, b))
            except AmbiguousClassError as exc:
                return f"ambiguous: period guess {exc}"
            if not guess.consistent_with(g["class_code"]):
                return wrong(f"period guess {guess.family} vs traced class {g['class_code']}")
        return OK


WORKLOADS = {w.name: w for w in (Lattice, Oracle, Atlas)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}

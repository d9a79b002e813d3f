"""Tests of the benchmark itself: inputs, gates and the tracer.

    python3 -m pytest cubicbench/tests -q
"""

import csv
import io
import json
from time import perf_counter

import pytest

import cubicwkb
import cubicwkb.bsb as bsb
import cubicwkb.cli as cli
import cubicwkb.monodromy as monodromy
import cubicwkb.stokes as stokes
import run
from tracer import Tracer
from workloads import OK, WORKLOADS, Call, Outcome, batch_rng


@pytest.fixture(scope="module")
def workloads():
    return {name: cls() for name, cls in WORKLOADS.items()}


def inputs(wl, seed, tmp_path):
    return [c.argv for c in wl.batch(batch_rng(seed, wl.name, 0), tmp_path)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(workloads, name, tmp_path):
    wl = workloads[name]
    assert inputs(wl, 3, tmp_path) == inputs(wl, 3, tmp_path)
    assert inputs(wl, 3, tmp_path) != inputs(wl, 4, tmp_path)


def outcome(*argv):
    return run.call_main(cli, argv)


def test_lattice_period_gate_rejects_shifted_pole(workloads):
    wl = workloads["lattice"]
    calls = [c for c in wl.batch(batch_rng(0, "lattice", 0), None) if c.results == 2]
    out = outcome(*calls[0].argv)
    assert wl.check(calls[:1], [out]) == [OK]
    rows = list(csv.reader(io.StringIO(out.stdout)))
    rows[1][2] = repr(float(rows[1][2]) + 1e-6)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    bad = Outcome(out.code, buf.getvalue(), out.stderr, out.seconds)
    [status] = wl.check(calls[:1], [bad])
    assert status.startswith("wrong") and "period" in status


def test_oracle_gates_reject_residual_and_margin_order(workloads):
    wl = workloads["oracle"]
    calls = [c for c in wl.batch(batch_rng(0, "oracle", 0), None) if "pole" in c.meta]
    calls.sort(key=lambda c: c.meta["pole"])
    outs = [outcome(*c.argv) for c in calls]
    assert wl.check(calls, outs) == [OK, OK]

    def edited(out, **changes):
        rep = json.loads(out.stdout)
        rep.update(changes)
        return Outcome(out.code, json.dumps(rep), out.stderr, out.seconds)

    resid = edited(outs[0], normalized_residuals=[1e-3] * 5)
    assert wl.check(calls, [resid, outs[1]])[0].startswith("wrong")
    m1 = json.loads(outs[0].stdout)["tritronquee_margin"]
    swapped = edited(outs[1], tritronquee_margin=2 * m1)
    assert wl.check(calls, [outs[0], swapped])[1].startswith("wrong")


def test_atlas_gates_reject_broken_graph_and_covariance(workloads, tmp_path):
    wl = workloads["atlas"]
    calls = wl.batch(batch_rng(0, "atlas", 0), tmp_path)
    group = [c for c in calls if c.meta["kind"] == "group"]
    outs = [outcome(*c.argv) for c in group]
    assert wl.check(group, outs) == [OK] * len(group)

    image = next(c for c in group if not c.meta["base"])
    path = image.meta["stem"] + ".json"
    with open(path, encoding="utf-8") as fh:
        g = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**g, "edges": g["edges"][1:]}, fh)
    assert wl.check(group, outs)[group.index(image)].startswith("wrong")

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**g, "shift": (g["shift"] + 1) % 5}, fh)
    status = wl.check(group, outs)[group.index(image)]
    assert status.startswith("wrong")


def bindings():
    mods = (cubicwkb, cli, bsb, stokes, monodromy)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_tracer_wraps_every_binding_and_restores_them():
    before = bindings()
    with Tracer():
        assert bsb.classify is not before[("cubicwkb.bsb", "classify")]
        assert cubicwkb.classify is not before[("cubicwkb", "classify")]
        assert monodromy.solve_ivp is not before[("cubicwkb.monodromy", "solve_ivp")]
        assert bsb.BsbIndex is before[("cubicwkb.bsb", "BsbIndex")]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_absent_binding_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(monodromy, "solve_ivp")
    with Tracer() as tr:
        cli.main(["classify", "--a", "0", "--b", "0"])
    assert "monodromy.ode" not in tr.table()
    assert not hasattr(monodromy, "solve_ivp")


def test_self_times_fit_in_traced_wall(capsys):
    with Tracer() as tr:
        t0 = perf_counter()
        cli.main(["classify", "--a", "2", "--b", "0"])
        wall = perf_counter() - t0
    selfs = tr.self_times()
    assert min(selfs) >= -1e-9
    assert 0 < sum(selfs) <= wall
    table = tr.table()
    assert table["cli.main"]["calls"] == 1
    assert table["stokes.classify"]["calls"] == 1
    assert tr.count_under("stokes.trace_stokes_lines", "stokes") == 1


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(19)) is None
    assert run.tail(range(20))["percentile"] == 50
    assert run.tail(range(100))["percentile"] == 90


def test_batch_times_in_reference_units():
    class OneCall:
        def check(self, calls, outs):
            return [OK if o.code == 0 else "wrong" for o in outs]

    calls = [Call(("classify", "--a", "0", "--b", "0"), 1)] * 2
    b = run.run_batch(OneCall(), cli, calls, "x")
    assert b.status == [OK, OK]
    assert all(r > 0 for r in b.call_ref)
    assert b.wall_ref >= sum(b.call_ref)
    # one ref is a few milliseconds, one classify call a good deal longer
    assert b.wall_s / b.wall_ref < 0.1

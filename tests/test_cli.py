import csv
import io
import json

import numpy as np
import pytest

import cubicwkb
import cubicwkb.cli as cli
from conftest import root_split, split_pair
from cubicwkb.bsb import real_orbit_constants, real_poles
from cubicwkb.cli import EXIT_AMBIGUOUS, EXIT_OK, EXIT_USAGE, REFERENCE_NUMERIC, main
from cubicwkb.monodromy import StokesMultipliers, _s5
from cubicwkb.potential import _ROOT_TOL, CubicPotential
from cubicwkb.stokes import trace_stokes_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_public_names_resolve():
    assert [name for name in cubicwkb.__all__ if not hasattr(cubicwkb, name)] == []


def test_usage_error(capsys):
    code, _, _ = run_cli(capsys, "classify", "--a", "nonsense", "--b", "0")
    assert code == EXIT_USAGE


def test_classify_symmetric(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "0", "--b", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class_code"] == "000"
    assert len(payload["edges"]) == 5


def test_classify_split_double_root_is_ambiguous(capsys):
    # two simple roots 1e-7 apart, 5 times the merge tolerance
    _, p = split_pair()
    d, scale = root_split(p)
    assert 3 < d / (_ROOT_TOL * scale) < 10
    code, out, err = run_cli(capsys, "classify", "--a", repr(complex(p.a)), "--b", repr(complex(p.b)))
    assert code == EXIT_AMBIGUOUS
    assert out == "" and "ambiguous" in err


def test_verify_split_double_root(capsys):
    # the point classify refuses above: the oracle needs no class
    _, p = split_pair()
    d, scale = root_split(p)
    assert 3 < d / (_ROOT_TOL * scale) < 10
    code, out, _ = run_cli(capsys, "verify", "--a", repr(complex(p.a)), "--b", repr(complex(p.b)))
    assert code == EXIT_OK
    assert max(json.loads(out)["normalized_residuals"]) <= 1e-6


def test_classify_quantizing_with_svg(tmp_path, capsys, sol_11):
    svg_path = tmp_path / "complex.svg"
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--a", repr(sol_11.a.real),
        "--b", repr(sol_11.b.real),
        "--svg", str(svg_path),
    )
    assert code == EXIT_OK
    assert json.loads(out)["class_code"] == "320"
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 9


def test_trace_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "--a", "2", "--b", "0")
    assert code == EXIT_OK
    lines = json.loads(out)
    assert len(lines) == 9  # three simple turning points


def test_json_without_the_cycle_check_is_byte_identical(monkeypatch, capsys):
    # classify (graph_to_json) and trace skip the encoder's cycle check on
    # the structures they build; with the check the text is the same
    dumps = json.dumps
    seen = []

    def spy(obj, **kw):
        seen.append((obj, kw, dumps(obj, **kw)))
        return seen[-1][2]

    monkeypatch.setattr(json, "dumps", spy)
    a, b = (repr(x) for x in real_orbit_constants()[1:])
    for cmd in ("classify", "trace"):
        assert run_cli(capsys, cmd, "--a", a, "--b", b)[0] == EXIT_OK
    assert len(seen) == 2
    for obj, kw, text in seen:
        assert kw == {"check_circular": False}
        assert dumps(obj) == text
        assert len(text) > 10_000


@pytest.mark.parametrize("argv, flag, end", [
    (("classify", "--a", "0.4", "--b", "-0.3"), "--json", "\n"),
    (("trace", "--a", "0.4", "--b", "-0.3"), "--out", "\n"),
    (("verify", "--a", "0", "--b", "0"), "--out", "\n"),
    (("poles", "--nmax", "2", "--mmax", "2"), "--out", ""),
], ids=["classify", "trace", "verify", "poles"])
def test_output_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv, flag, end):
    # every command writes through one writer: the file holds what stdout
    # shows, less the newline that ends a JSON command's stdout
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert run_cli(capsys, *argv, flag, str(path)) == (code, "", err)
    assert path.read_bytes() + end.encode() == out.encode()


def test_trace_anti_stokes_rays_of_pure_cubic(capsys):
    # the anti-Stokes lines of 4x^3 end on the rays arg x = 2 pi k / 5
    code, out, _ = run_cli(capsys, "trace", "--a", "0", "--b", "0", "--anti")
    assert code == EXIT_OK
    lines = json.loads(out)
    assert len(lines) == 5
    angs = sorted(np.angle(complex(*ln["polyline"][-1])) % (2 * np.pi) for ln in lines)
    assert np.allclose(angs, [2 * np.pi * k / 5 for k in range(5)], atol=1e-6)


def test_poles_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "lattice.csv"
    code, _, err = run_cli(
        capsys, "poles", "--nmax", "2", "--mmax", "2", "--out", str(out_path)
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out_path.open()))
    assert rows[0] == ["n", "m", "re_a", "im_a", "re_b", "im_b", "residual", "rho_max"]
    assert len(rows) == 5
    data = {(int(r[0]), int(r[1])): [float(x) for x in r[2:]] for r in rows[1:]}
    assert data[(1, 1)][0] == pytest.approx(-2.3476, abs=2e-4)
    assert data[(2, 2)][0] == pytest.approx(-5.6535, abs=5e-4)
    # conjugate off-diagonal rows
    assert data[(1, 2)][1] == pytest.approx(-data[(2, 1)][1], abs=1e-8)
    # the summary line reports the sector bound
    assert "min |arg a|" in err
    min_arg = min(
        abs(np.angle(complex(v[0], v[1]))) for v in data.values()
    )
    assert min_arg > 4 * np.pi / 5
    # every cell is class-checked through its kappa node, and rho_max scales
    # as 1/(n - 1/2) along the diagonal
    assert all(v[5] > 0 for v in data.values())
    assert data[(2, 2)][5] * 1.5 == pytest.approx(data[(1, 1)][5] * 0.5, rel=1e-8)


def test_verify_symmetric(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "0", "--b", "0")
    assert code == EXIT_OK
    report = json.loads(out)
    sig = {int(k): complex(v[0], v[1]) for k, v in report["sigma"].items()}
    for k in range(-2, 3):
        assert sig[k] == pytest.approx(sig[0], abs=1e-8)
    assert max(abs(complex(*r)) for r in report["admissibility_residuals"]) < 1e-8
    assert report["two_point_spread"] < 1e-8
    assert report["est_error"] >= 0.0
    assert not report["tritronquee"]


def test_verify_at_solution(capsys, sol_11):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--a", repr(sol_11.a.real),
        "--b", repr(sol_11.b.real),
        "--threshold", "0.1",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tritronquee"]
    assert report["tritronquee_margin"] < 0.1


@pytest.mark.parametrize(
    "n, want", [(1, EXIT_OK), (9, EXIT_OK), (15, EXIT_OK)]
)
def test_verify_exit_code_follows_admissibility(capsys, n, want):
    # at the real pole n = 15 the walks bridge walls from the conjugate roots
    # through the real one, and the residual stays at the rounding level; the
    # exit-2 branch is covered by test_verify_exits_2_on_inadmissible_multipliers
    a, b = real_poles(n)[-1]
    code, out, err = run_cli(capsys, "verify", "--a", repr(a), "--b", repr(b))
    assert code == want
    worst = max(json.loads(out)["normalized_residuals"])
    assert (worst > 1e-6) == (want == EXIT_AMBIGUOUS)
    assert ("normalized admissibility residual" in err) == (want == EXIT_AMBIGUOUS)


def test_verify_where_the_wall_circle_cuts_a_start_disc(tmp_path, capsys):
    # at (0, 1) the walls at |x| = 0.85 r_foot fall inside the start disc of
    # two lines, between a turning point and the line's first traced point
    p = CubicPotential(0.0, 1.0)
    r_wall = 0.85 * max(1.35 * p.turning_points.scale, 1.0)
    cut = [ln for ln in trace_stokes_lines(p)
           if abs(ln.points[0]) < r_wall < abs(ln.points[1])]
    assert len(cut) == 2
    out = tmp_path / "v.json"
    code, _, _ = run_cli(capsys, "verify", "--a", "0", "--b", "1", "--out", str(out))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert max(report["normalized_residuals"]) <= 1e-6
    assert report["trace_points"] == sum(len(ln.points) for ln in trace_stokes_lines(p))


def test_verify_exits_2_on_inadmissible_multipliers(tmp_path, monkeypatch, capsys):
    # the multipliers of (0, 0), all i (sqrt 5 - 1)/2, with sigma_0 moved off
    # by 5e-3: the normalized residual is about 1e-3 by construction, with no
    # monodromy run behind it
    s0 = 0.5j * (np.sqrt(5.0) - 1.0)
    sigma = {k: s0 for k in range(-2, 3)}
    sigma[0] = s0 * (1.0 + 5e-3)
    residuals = tuple(
        1.0 + sigma[k] * sigma[_s5(k + 1)] + 1j * sigma[_s5(k + 3)] for k in range(-2, 3)
    )
    s = StokesMultipliers(sigma, residuals, 0.0, 1e-14)
    assert 1e-4 < s.max_normalized_residual < 1e-2
    monkeypatch.setattr(cli, "stokes_multipliers", lambda p, R=None: s)
    out_path = tmp_path / "v.json"
    code, out, err = run_cli(capsys, "verify", "--a", "0", "--b", "0", "--out", str(out_path))
    assert code == EXIT_AMBIGUOUS
    report = json.loads(out_path.read_text())
    assert max(report["normalized_residuals"]) == s.max_normalized_residual
    assert report["sigma"]["0"] == [sigma[0].real, sigma[0].imag]
    assert "normalized admissibility residual" in err


def test_constants(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == EXIT_OK
    vals = {}
    for line in out.splitlines():
        key, _, val = line.partition("=")
        vals[key.strip()] = float(val)
    assert vals["mu_star"] == pytest.approx(-3158.92, rel=1e-3)
    assert vals["a_star"] == pytest.approx(-4.0874, rel=1e-3)
    assert vals["b_star"] == pytest.approx(-0.1470, rel=1e-3)


def test_table2_format(capsys):
    code, out, _ = run_cli(capsys, "table2")
    assert code == EXIT_OK
    assert "a1" in out and "reference" in out
    assert "-2.348" in out
    assert "unknown" in out  # b2 and mu2 rows have no reference values


def test_table2_reference_is_exact_poles(tritronquee_poles):
    (a1, b1), (a2, _) = tritronquee_poles[1], tritronquee_poles[2]
    exact = {"a1": a1, "b1": b1, "mu1": a1**3 / b1**2, "a2": a2}
    assert REFERENCE_NUMERIC.keys() == exact.keys()
    for key, value in exact.items():
        assert REFERENCE_NUMERIC[key] == pytest.approx(value, rel=1e-8, abs=1e-8)


def test_kept_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    # main keeps its config-free parser; each run, before and after a
    # --config run, gives what a parser built for that call gives
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("nmax = 1\nmmax = 2\n")
    runs = [
        ("constants",),
        ("trace", "--a", "0", "--b", "0", "--anti"),
        ("poles", "--nmax", "1", "--mmax", "1"),
        ("classify", "--a", "2", "--b", "0"),
        ("poles", "--nmax", "0"),
        ("--config", "run.cfg", "poles"),
        ("poles", "--mmax", "1"),
        ("table2",),
        ("verify", "--a", "nan", "--b", "0"),
        ("classify", "--a", "0", "--b", "0", "--disk", "--svg", "kept.svg"),
    ]
    kept = [run_cli(capsys, *argv) for argv in runs]
    assert cli._default_parser() is cli._default_parser()
    kept_svg = (tmp_path / "kept.svg").read_text()
    monkeypatch.setattr(cli, "_default_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in runs]
    assert kept == fresh
    assert (tmp_path / "kept.svg").read_text() == kept_svg
    assert [r[0] for r in kept] == [EXIT_OK] * 4 + [EXIT_USAGE] + [EXIT_OK] * 3 + [EXIT_USAGE, EXIT_OK]
    # the config run solved 1 x 2, the run after it the default 5 x 1
    assert len(kept[5][1].splitlines()) == 3 and len(kept[6][1].splitlines()) == 6


def test_kept_parser_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    # the kept parser holds no command functions: main looks cmd_* up when it
    # runs, so a wrapped or patched command is the one that runs
    cli._default_parser()
    ran = []
    monkeypatch.setattr(cli, "cmd_constants", lambda args: ran.append(args.command) or EXIT_OK)
    assert run_cli(capsys, "constants") == (EXIT_OK, "", "")
    assert ran == ["constants"]


def test_config_file_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax = 1\nmmax = 1\n")
    out_path = tmp_path / "lat.csv"
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "poles", "--out", str(out_path)
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out_path.open()))
    assert len(rows) == 2  # header + single cell


def test_flag_beats_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax = 1\nmmax = 1\n")
    seen = {}

    def fake_lattice(n_max, m_max, tol):
        seen.update(n_max=n_max, m_max=m_max)
        return {}, {}

    monkeypatch.setattr(cli, "solve_lattice", fake_lattice)
    code, _, _ = run_cli(capsys, "--config", str(cfg), "poles", "--nmax", "5")
    assert code == EXIT_OK
    assert seen == {"n_max": 5, "m_max": 1}


def test_config_zero_nmax_is_usage_error(tmp_path, monkeypatch, capsys):
    # a config value is checked by the option's type, like the flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax = 0\n")
    called = []
    monkeypatch.setattr(cli, "solve_lattice", lambda *a, **k: called.append(a) or ({}, {}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "poles")
    assert code == EXIT_USAGE
    assert called == [] and out == ""


def test_config_json_path_that_looks_like_a_number(tmp_path, monkeypatch, capsys):
    # "12" is a file name, not a file descriptor
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("json = 12\n")
    code, out, _ = run_cli(capsys, "--config", "run.cfg", "classify", "--a", "0", "--b", "0")
    assert code == EXIT_OK and out == ""
    assert json.loads((tmp_path / "12").read_text())["class_code"] == "000"


def test_config_out_path_that_looks_like_a_number(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = 2\n")
    code, out, _ = run_cli(capsys, "--config", "run.cfg", "poles", "--nmax", "1", "--mmax", "1")
    assert code == EXIT_OK and out == ""
    rows = list(csv.reader((tmp_path / "2").open()))
    assert rows[0][:2] == ["n", "m"] and len(rows) == 2


@pytest.mark.parametrize("value, disk", [("false", False), ("0", False),
                                         ("true", True), ("1", True)])
def test_config_disk_flag_reads_its_value(value, disk, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"disk = {value}\n")
    argv = ("classify", "--a", "0", "--b", "0", "--svg")
    assert run_cli(capsys, "--config", "run.cfg", *argv, "cfg.svg")[0] == EXIT_OK
    flags = ("--disk",) if disk else ()
    assert run_cli(capsys, *argv, "flag.svg", *flags)[0] == EXIT_OK
    assert (tmp_path / "cfg.svg").read_text() == (tmp_path / "flag.svg").read_text()


@pytest.mark.parametrize("line", ["disk = yes", "anti = maybe", "anti = "])
def test_config_flag_with_another_value_is_usage_error(line, tmp_path, monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, "trace_stokes_lines", lambda *a, **k: called.append(a) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "trace", "--a", "0", "--b", "0")
    assert code == EXIT_USAGE
    assert called == [] and out == ""


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    code, _, err = run_cli(capsys, "--config", str(missing), "constants")
    assert code == EXIT_USAGE
    assert "cannot read config file" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--a", "0", "--b", "0", "--json", "{path}"),
        ("classify", "--a", "0", "--b", "0", "--svg", "{path}"),
        ("trace", "--a", "2", "--b", "0", "--out", "{path}"),
        ("poles", "--nmax", "1", "--mmax", "1", "--out", "{path}"),
        ("verify", "--a", "0", "--b", "0", "--out", "{path}"),
    ],
)
def test_unwritable_output_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    from cubicwkb.monodromy import StokesMultipliers

    monkeypatch.setattr(cli, "solve_lattice", lambda *a, **k: ({}, {}))
    monkeypatch.setattr(
        cli,
        "stokes_multipliers",
        lambda p, R=None: StokesMultipliers(
            sigma={k: 0j for k in range(-2, 3)},
            admissibility_residuals=(0j,) * 5,
            two_point_spread=0.0,
            est_error=0.0,
        ),
    )
    path = str(tmp_path / "missing-dir" / "out.txt")
    code, _, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == EXIT_USAGE
    assert "cannot write output file" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", ["--nmax", "--mmax"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_poles_rejects_empty_lattice(flag, value, monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, "solve_lattice", lambda *a, **k: called.append(a) or ({}, {}))
    code, out, _ = run_cli(capsys, "poles", flag, value)
    assert code == EXIT_USAGE
    assert called == [] and out == ""


@pytest.mark.parametrize(
    "argv",
    [("poles", "--tol", v) for v in ("0", "-1", "nan", "inf")]
    + [("verify", "--a", "0", "--b", "0", "--threshold", "-1")]
    + [(cmd, "--b", "0", "--a", v) for cmd in ("classify", "verify", "trace")
       for v in ("nan", "inf", "1e400")],
)
def test_nonsense_numbers_are_usage_errors(argv, monkeypatch, capsys):
    called = []
    for name in ("solve_lattice", "stokes_multipliers", "classify", "trace_stokes_lines"):
        monkeypatch.setattr(cli, name, lambda *a, **k: called.append(a))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert called == [] and out == ""
    assert repr(argv[-1]) in err

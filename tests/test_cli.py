import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import steinclt
from steinclt import BoundReport, Ellipsoid, default_family, gaussian_measure, reports, save_family
from steinclt import cli
from steinclt.cli import run


def _run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_suites_pass(capsys):
    for sub in ("check-inequalities", "check-semigroup", "check-stein"):
        code, out = _run_capture(capsys, [sub, "--k", "2", "--seed", "3"])
        assert code == 0
        assert out.startswith("# steinclt-csv v1")
        assert "False" not in out


def test_check_rows_compute_their_own_verdict():
    # weight1-total was written with a literal True, so it could not fail
    row = cli._row("weight1-total", 1.6, 1.5707963267948966, 1e-9, two_sided=True)
    assert row["passed"] is False
    assert cli._row("abs-d3-pair", 0.2, 0.5, 0.1, two_sided=True)["passed"] is False
    assert cli._row("abs-d3-pair-cap", 0.2, 0.5, 0.0)["passed"] is True
    assert cli._row("weight3-t=1.0", 0.5 + 2e-8, 0.5, 1e-8)["passed"] is False
    assert cli._row("invariance-mc", float("nan"), 0.0, 1.0)["passed"] is False


def test_delta_outputs_and_determinism(capsys):
    argv = ["delta", "--source", "gaussian", "--k", "2", "--n", "16",
            "--M", "20000", "--seed", "7"]
    code1, out1 = _run_capture(capsys, argv)
    code2, out2 = _run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    header, columns, row = out1.strip().split("\n")
    assert columns.split(",") == ["k", "n", "source", "family", "M", "seed",
                                  "delta_hat", "std_error"]
    fields = row.split(",")
    assert fields[0] == "2" and fields[2] == "gaussian"
    assert 0.0 <= float(fields[6]) <= 1.0


@pytest.mark.parametrize(
    "source",
    [["--source", "uniform"], ["--source", "rademacher", "--noniid-profile", "linear"]],
    ids=["uniform", "noniid-rademacher"],
)
def test_bounds_csv_is_fixed_by_the_seed(source, capsys):
    argv = ["bounds", *source, "--k", "2", "--n", "16", "--M", "2000"]
    first, again, other = (
        _run_capture(capsys, argv + ["--seed", seed])[1] for seed in ("7", "7", "8")
    )
    assert first == again
    _, columns, row = first.strip().split("\n")
    _, _, other_row = other.strip().split("\n")
    at = columns.split(",").index("delta_hat")
    assert row.split(",")[at] != other_row.split(",")[at]


def test_delta_comma_lists(capsys):
    code, out = _run_capture(
        capsys,
        ["delta", "--source", "rademacher", "--k", "1,2", "--n", "4,16",
         "--M", "2000", "--seed", "5"],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2 + 4  # header + columns + 4 rows


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["delta", "--source", "gaussian", "--nope", "1", "--seed", "0"])
    assert exc.value.code == 2


def test_missing_seed_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["delta", "--source", "gaussian", "--k", "1", "--n", "4"])
    assert exc.value.code == 2


def test_family_dimension_mismatch_exits_2(tmp_path, capsys):
    fam = default_family(3, n_directions=2)
    path = tmp_path / "fam.json"
    save_family(fam, str(path))
    code = run(["delta", "--source", "gaussian", "--k", "2", "--n", "4",
                "--M", "2000", "--seed", "1", "--family", str(path)])
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"M": 2000, "n": "4", "k": "1"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _run_capture(
        capsys,
        ["delta", "--source", "uniform", "--k", "2", "--n", "4",
         "--seed", "2", "--config", str(path)],
    )
    assert code == 0
    row = out.strip().split("\n")[-1]
    # --k flag wins over the config file; M comes from the file
    assert row.split(",")[0] == "2"
    assert row.split(",")[4] == "2000"


def test_output_files_written(tmp_path):
    out = tmp_path / "reports" / "delta_run"
    code = run(["delta", "--source", "gaussian", "--k", "1", "--n", "4",
                "--M", "2000", "--seed", "3", "--out", str(out), "--format", "both"])
    assert code == 0
    csv_text = (tmp_path / "reports" / "delta_run.csv").read_text()
    payload = json.loads((tmp_path / "reports" / "delta_run.json").read_text())
    assert csv_text.startswith("# steinclt-csv v1")
    assert payload["schema"] == "steinclt-json v1"
    assert payload["rows"][0]["seed"] == 3
    assert payload["config"]["M"] == 2000


def test_json_config_echoes_every_row_changing_flag(capsys):
    code, out = _run_capture(
        capsys,
        ["discrepancy", "--source", "rademacher", "--k", "1", "--n", "4", "--M", "1000",
         "--offset", "0.3", "--seed", "2", "--format", "json"],
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert config["offset"] == 0.3
    assert not {"help", "out", "format", "threads", "config"} & set(config)
    code, out = _run_capture(
        capsys,
        ["delta", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "1000",
         "--family-seed", "3", "--seed", "2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["config"]["family_seed"] == 3


def test_git_revision_runs_once_and_only_for_json(tmp_path, monkeypatch, capsys):
    calls = []
    real_run = reports.subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(reports.subprocess, "run", counting_run)
    reports.git_revision.cache_clear()
    rows = [{"k": 1, "delta_hat": 0.5}]
    reports.emit("delta", ("k", "delta_hat"), rows, {}, None, "csv")
    reports.emit("delta", ("k", "delta_hat"), rows, {}, str(tmp_path / "a"), "csv")
    assert calls == []
    reports.emit("delta", ("k", "delta_hat"), rows, {}, str(tmp_path / "b"), "both")
    reports.emit("delta", ("k", "delta_hat"), rows, {}, None, "json")
    assert len(calls) <= 1
    assert (tmp_path / "a.csv").is_file() and not (tmp_path / "a.json").exists()
    assert json.loads((tmp_path / "b.json").read_text())["rows"] == rows


def test_json_names_the_versions_and_csv_bytes_stay(tmp_path, capsys):
    argv = ["delta", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "1000", "--seed", "3"]
    code, csv_text = _run_capture(capsys, argv)
    assert code == 0
    assert run(argv + ["--out", str(tmp_path / "r"), "--format", "both"]) == 0
    assert (tmp_path / "r.csv").read_text() == csv_text
    rows = [{"k": 1, "delta_hat": 0.5}]
    assert reports.rows_to_csv("delta", ("k", "delta_hat"), rows) == (
        "# steinclt-csv v1 subcommand=delta\nk,delta_hat\n1,0.5\n"
    )
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["versions"] == {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "steinclt": steinclt.__version__,
    }


_START_UP = """
import contextlib, io, json, sys
import numpy as np
import steinclt
import steinclt.cli

code = steinclt.cli.run(["bounds", "--source", "rademacher", "--k", "2", "--n", "16",
                         "--M", "1000", "--seed", "7"])
with contextlib.redirect_stdout(io.StringIO()):
    check_codes = [steinclt.cli.run([check, "--k", k, "--seed", "7"])
                   for check, k in (("check-inequalities", "3"), ("check-stein", "2"))]
loaded = [m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize") if m in sys.modules]
ellipse = steinclt.Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
mass = steinclt.gaussian_measure(ellipse.dilate(0.1))
csv = io.StringIO()
with contextlib.redirect_stdout(csv):
    family_code = steinclt.cli.run(sys.argv[1:])
print(json.dumps({"code": code, "check_codes": check_codes, "loaded": loaded, "mass": mass, "family_code": family_code,
                  "csv": csv.getvalue(), "stats_after_qmc": "scipy.stats" in sys.modules}))
"""

_FAMILY_FILE = str(Path(__file__).with_name("family_k2_ellipsoid.json"))
_FAMILY_DELTA = ["delta", "--source", "rademacher", "--k", "2", "--n", "16", "--M", "20000",
                 "--seed", "7", "--family", _FAMILY_FILE]


def test_cli_start_up_leaves_scipy_stats_and_integrate_unimported(capsys):
    # a fresh interpreter, since the test modules import scipy.stats themselves;
    # importing it (and scipy.optimize through scipy.integrate) took longer
    # than a small bounds run.  The check suites read the Stein weight integrals,
    # which used to load scipy.integrate for adaptive quadrature
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _START_UP, *_FAMILY_DELTA], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path), check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["check_codes"] == [0, 0]
    assert report["loaded"] == []
    # the QMC measures, the ellipse's and the family ellipsoid's, build their
    # Sobol points without scipy.stats
    assert not report["stats_after_qmc"]
    ellipse = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    assert report["mass"] == gaussian_measure(ellipse.dilate(0.1))
    assert report["family_code"] == 0
    assert (0, report["csv"]) == _run_capture(capsys, _FAMILY_DELTA)


@pytest.mark.parametrize("bad_M", ["2000.5", "NaN", "true"])
def test_non_integral_M_from_config_exits_2(tmp_path, bad_M):
    path = tmp_path / "cfg.json"
    path.write_text('{"M": %s}' % bad_M)
    code = run(["delta", "--source", "rademacher", "--k", "1", "--n", "4",
                "--seed", "2", "--config", str(path)])
    assert code == 2


def test_discrepancy_agreement(capsys):
    code, out = _run_capture(
        capsys,
        ["discrepancy", "--source", "rademacher", "--k", "1", "--n", "4",
         "--t", "0.5", "--M", "2048", "--seed", "4"],
    )
    assert code == 0
    row = out.strip().split("\n")[-1].split(",")
    assert row[-1] == "True"  # direct and generator forms agree


def test_bounds_subcommand(capsys):
    code, out = _run_capture(
        capsys,
        ["bounds", "--source", "rademacher", "--k", "2", "--n", "16,64",
         "--M", "5000", "--seed", "5", "--constant", "c=1.0"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 + 2
    cols = lines[1].split(",")
    within = [row.split(",")[cols.index("within_main")] for row in lines[2:]]
    assert all(v == "True" for v in within)


def test_dim_scan_subcommand(tmp_path):
    out = tmp_path / "scan"
    code = run(["dim-scan", "--source", "rademacher", "--k-list", "1,2",
                "--n-list", "4,16", "--M", "4000", "--seed", "6",
                "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert len(payload["rows"]) == 4
    assert "k_exponents" in payload["extras"]


def _recorded_streams(monkeypatch, module, name, returns=None):
    """The list the RngStream of every call of module.name is appended to; the call runs as
    before, or returns `returns` when given."""
    streams, real = [], getattr(module, name)

    def record(*args, **kwargs):
        streams.extend(a for a in (*args, *kwargs.values()) if isinstance(a, steinclt.RngStream))
        return real(*args, **kwargs) if returns is None else returns

    monkeypatch.setattr(module, name, record)
    return streams


@pytest.mark.parametrize("command, module, name", [
    ("delta", cli.so, "delta_hat"),
    ("discrepancy", cli.so, "stein_discrepancy_hat"),
    ("bounds", cli.bd, "bound_report"),
])
def test_each_cell_of_a_command_draws_from_its_own_stream(command, module, name, monkeypatch,
                                                          capsys):
    # each cell took child(7k + n), child(13k + n) or child(17k + n), so delta's cells
    # (1, 11) and (2, 4) drew one stream
    streams = _recorded_streams(monkeypatch, module, name)
    assert run([command, "--source", "rademacher", "--k", "1,2,3", "--n", "4,11,18",
                "--M", "1000", "--seed", "3"]) == 0
    assert len(streams) == 9 and len(set(streams)) == 9


def test_each_cell_of_a_dim_scan_draws_from_its_own_stream(monkeypatch, capsys):
    # child(1000 k_index + 100 source_index + n_index) gave the 101st n of the first law
    # the stream of the first n of the second
    streams = _recorded_streams(monkeypatch, cli.bd, "delta_hat",
                                returns=steinclt.Estimate(0.1, 0.01))
    n_list = ",".join(str(n) for n in range(1, 102))
    assert run(["dim-scan", "--source", "gaussian,rademacher", "--k-list", "1",
                "--n-list", n_list, "--M", "1000", "--seed", "3"]) == 0
    assert len(streams) == 202 and len(set(streams)) == 202


def test_a_scan_cell_draws_the_same_whatever_other_cells_run(capsys):
    # a dim-scan cell's stream was indexed by its position in the three lists
    rows = []
    for sources, ks, ns in (("rademacher", "2", "16"), ("gaussian,rademacher", "1,2", "4,16")):
        _, out = _run_capture(capsys, ["dim-scan", "--source", sources, "--k-list", ks,
                                       "--n-list", ns, "--M", "1000", "--seed", "3"])
        rows.append([row for row in out.strip().split("\n") if row.startswith("rademacher,2,16,")])
    assert rows[0] == rows[1] and len(rows[0]) == 1


@pytest.mark.parametrize("constant", ["zz=1.0", "c1=abc", "c3=1.0"])
def test_bad_constant_exits_2(constant, capsys):
    # c1=abc used to end in a ValueError traceback, and c3 was a setting no formula read
    code = run(["bounds", "--source", "gaussian", "--k", "1", "--n", "4",
                "--M", "2000", "--seed", "1", "--constant", constant])
    assert code == 2
    assert "steinclt: error:" in capsys.readouterr().err


_DISCREPANCY = ["discrepancy", "--source", "rademacher", "--k", "1", "--n", "4",
                "--M", "2048", "--seed", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        _DISCREPANCY + ["--t", "nan"],
        _DISCREPANCY + ["--t", "inf"],
        _DISCREPANCY + ["--offset", "nan"],
        _DISCREPANCY + ["--offset", "inf"],
        ["bounds", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "2000",
         "--seed", "1", "--constant", "c1=nan"],
        ["bounds", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "2000",
         "--seed", "1", "--t", "nan"],
        ["bounds", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "2000",
         "--seed", "1", "--t", "inf"],
    ],
    ids=["t-nan", "t-inf", "offset-nan", "offset-inf", "constant-nan",
         "bounds-t-nan", "bounds-t-inf"],
)
def test_non_finite_inputs_exit_2(argv, capsys):
    # each used to exit 0 with NaN rows or a RuntimeWarning
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "steinclt: error:" in captured.err


@pytest.mark.parametrize(
    "family, message, k",
    [
        ('{"sets": [{"variant": "ball", "center": [NaN, 0.0], "radius": 1.0}]}', "finite", 2),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0]}]}', "radius", 2),
        ('{"description": "no sets"}', "sets", 2),
        ('{"sets": [[0, 1]]}', "JSON object", 2),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius": "abc"}]}', "abc", 2),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius"', "family file", 2),
        ('[{"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}]', "JSON object", 2),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius": 1.0},'
         ' {"variant": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}]}', "dimension", 2),
        ('{"builder": "default", "k": 2.7}', "k must be an integer", 2),
        ('{"builder": "default", "k": 2, "n_directions": 1.9}', "n_directions", 2),
        ('{"builder": "default", "k": 2, "n_direction": 4}', "n_direction", 2),
        ('{"builder": "default", "k": true}', "k must be an integer", 1),
    ],
    ids=["nan-ball-center", "missing-field", "missing-sets", "set-not-object",
         "non-numeric-field", "truncated", "family-not-object", "mixed-dimensions",
         "fractional-k", "fractional-count", "misspelt-key", "boolean-k"],
)
def test_bad_family_file_exits_2(tmp_path, capsys, family, message, k):
    # the NaN centre used to print a nan delta_hat row, the others a traceback;
    # a builder spec's counts were truncated, a bool taken as 1, a typo ignored
    path = tmp_path / "fam.json"
    path.write_text(family)
    code = run(["delta", "--source", "gaussian", "--k", str(k), "--n", "4",
                "--M", "2000", "--seed", "1", "--family", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "steinclt: error:" in captured.err
    assert message in captured.err


def test_noniid_profile_flag(capsys):
    code, out = _run_capture(
        capsys,
        ["bounds", "--source", "gaussian", "--k", "1", "--n", "32",
         "--M", "2000", "--seed", "8", "--noniid-profile", "linear"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    cols = lines[1].split(",")
    row = lines[2].split(",")
    assert row[cols.index("source")] == "noniid-gaussian"
    assert row[cols.index("beta3")] != ""
    assert row[cols.index("noniid_bound")] != ""


def test_delta_noniid_label(capsys):
    code, out = _run_capture(
        capsys,
        ["delta", "--source", "uniform", "--k", "2", "--n", "8", "--M", "2000",
         "--seed", "7", "--noniid-profile", "flat"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[2].split(",")[lines[1].split(",").index("source")] == "noniid-uniform"


_CHECK_HEADER = "check,value,reference,tolerance,passed"


# the rows' keys are the CSV columns, so a reordered dict or dataclass shows here
@pytest.mark.parametrize(
    "argv, header",
    [
        (["check-inequalities", "--k", "3"], _CHECK_HEADER),
        (["check-semigroup", "--k", "2"], _CHECK_HEADER),
        (["check-stein", "--k", "2"], _CHECK_HEADER),
        (["delta", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "1000"],
         "k,n,source,family,M,seed,delta_hat,std_error"),
        (["discrepancy", "--source", "rademacher", "--k", "1", "--n", "4", "--M", "64"],
         "k,n,source,t,M,seed,direct,direct_se,generator_form,generator_se,gap,agree"),
        (["bounds", "--source", "rademacher", "--k", "1", "--n", "4", "--M", "1000"],
         "k,n,source,t,rho3,beta3,gamma3,delta_hat,std_error,smoothed_bound,"
         "recursion_at_t,optimal_t,recursion_step,main_bound,noniid_bound,gamma3_bound,"
         "within_main,implied_c,seed"),
        (["dim-scan", "--source", "rademacher", "--k-list", "1", "--n-list", "4", "--M", "1000"],
         "source,k,n,M,seed,delta_hat,std_error"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_csv_header_of_every_subcommand(argv, header, capsys):
    code, out = _run_capture(capsys, argv + ["--seed", "7"])
    assert code == 0
    assert out.split("\n")[1] == header


def test_bound_report_fields_are_the_bounds_columns(capsys):
    _, out = _run_capture(
        capsys, ["bounds", "--source", "rademacher", "--k", "1", "--n", "4", "--M", "1000",
                 "--seed", "7"],
    )
    assert out.split("\n")[1].split(",") == [f.name for f in dataclasses.fields(BoundReport)]


def test_module_entry_point():
    # the child imports the package from src, whatever the caller's PYTHONPATH
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", "check-inequalities",
         "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# steinclt-csv v1")


_CONFIG_ARGV = {
    "delta": ["delta", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "2000"],
    "discrepancy": ["discrepancy", "--source", "rademacher", "--k", "1", "--n", "8", "--M", "512"],
}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("delta", '{"M": 2000', "config file"),
        ("delta", '[2000]', "JSON object"),
        ("delta", '{"threads": 2}', "threads"),
        ("discrepancy", '{"t": "abc"}', "'t' expects float"),
        ("discrepancy", '{"offset": "x"}', "'offset' expects float"),
        ("delta", '{"family_seed": "x"}', "'family_seed' expects int"),
        ("delta", '{"format": "xml"}', "'format' must be one of"),
    ],
    ids=["truncated", "not-object", "threads-2", "t-not-a-float", "offset-not-a-float",
         "family-seed-not-an-int", "format-not-a-choice"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    code = run(_CONFIG_ARGV[command] + ["--seed", "1", "--config", str(path),
                                        "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "steinclt: error:" in captured.err
    assert message in captured.err
    assert not list(tmp_path.glob("out*"))


_DELTA = ["delta", "--source", "uniform", "--k", "1", "--n", "4", "--M", "2000", "--seed", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--source", "gaussian", "--k", "1", "--n", "x", "--M", "2000", "--seed", "1"],
        ["delta", "--source", "gaussian", "--k", "a", "--n", "4", "--M", "2000", "--seed", "1"],
        ["delta", "--source", "gaussian", "--k", "1", "--n", "0", "--M", "2000", "--seed", "1"],
        ["check-inequalities", "--k", "0", "--seed", "1"],
        ["check-semigroup", "--k", "0", "--seed", "1"],
        ["check-stein", "--k", "-1", "--seed", "1"],
        ["discrepancy", "--source", "rademacher", "--k", "0", "--n", "8", "--seed", "1"],
        ["bounds", "--source", "gaussian", "--k", "0", "--n", "4", "--M", "2000", "--seed", "1"],
        ["dim-scan", "--source", "gaussian", "--k-list", "1,0", "--n-list", "4",
         "--M", "2000", "--seed", "1"],
    ],
    ids=["delta-n-x", "delta-k-a", "delta-n-0", "inequalities-k-0", "semigroup-k-0",
         "stein-k-neg", "discrepancy-k-0", "bounds-k-0", "dim-scan-k-0"],
)
def test_bad_k_or_n_exits_2(argv, capsys):
    # each used to end in a traceback (exit 1) or a misleading message
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "integers >= 1" in captured.err


@pytest.mark.parametrize(
    "source, k_list, n_list",
    [("rademacher", "2,2", "16"), ("rademacher", "2", "16,16"),
     ("rademacher,rademacher", "2", "16"), ("rademacher", "2,1", "16")],
    ids=["repeated-k", "repeated-n", "repeated-source", "descending-k"],
)
def test_dim_scan_takes_each_source_k_and_n_once(source, k_list, n_list, capsys):
    # a repeat used to print two rows of one cell, with different estimates, and fit
    # both as separate points
    code = run(["dim-scan", "--source", source, "--k-list", k_list, "--n-list", n_list,
                "--M", "2000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "each source, k and n once" in captured.err


def test_check_suite_k_from_config_is_parsed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"k": "2"}')
    code, out = _run_capture(capsys, ["check-stein", "--seed", "3", "--config", str(path)])
    assert code == 0
    assert out == _run_capture(capsys, ["check-stein", "--k", "2", "--seed", "3"])[1]
    path.write_text('{"k": "2,3"}')
    assert run(["check-stein", "--seed", "3", "--config", str(path)]) == 2


def test_threads_is_a_compatibility_flag(capsys):
    code, plain = _run_capture(capsys, _DELTA)
    assert code == 0
    assert _run_capture(capsys, _DELTA + ["--threads", "1"]) == (0, plain)
    code = run(_DELTA + ["--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2 and "--threads" in captured.err and "must be 1" in captured.err


def test_format_both_needs_out(capsys):
    # without --out, `both` used to print only the CSV
    code = run(_DELTA + ["--format", "both"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--out" in captured.err


def test_abbreviated_flag_is_rejected_not_overridden_by_config(tmp_path, capsys):
    # `--noniid` used to be taken for --noniid-profile while the config's
    # value still won, because only full flag names count as explicit
    path = tmp_path / "cfg.json"
    path.write_text('{"noniid_profile": "flat"}')
    argv = ["bounds", "--source", "gaussian", "--k", "1", "--n", "8", "--M", "2000", "--seed", "4"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", str(path), "--noniid", "linear"])
    assert exc.value.code == 2
    capsys.readouterr()
    linear = _run_capture(capsys, argv + ["--noniid-profile", "linear"])
    assert _run_capture(capsys, argv + ["--config", str(path), "--noniid-profile", "linear"]) == linear
    assert _run_capture(capsys, argv + ["--config", str(path)]) != linear


def _outcome(capsys, argv):
    """(exit code, stdout) of one run, whether it returns or exits."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_cached_parser_leaks_nothing_between_runs(tmp_path, capsys):
    # the parser is built once per process, so nothing a run parses (a config
    # file, appended --constant values, an error exit) may reach the next run
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "cfg.json"
    path.write_text('{"family_seed": 5}')
    bounds = ["bounds", "--source", "gaussian", "--k", "1", "--n", "8", "--M", "2000", "--seed", "4"]
    cases = [
        (_DELTA + ["--config", str(path)], _DELTA, 0),
        (bounds + ["--constant", "c=2.0"], bounds, 0),
        (_DELTA + ["--nope", "1"], _DELTA, 2),
        (bounds + ["--constant", "zz=1.0"], bounds, 2),
    ]
    for first, then, first_code in cases:
        reference = _outcome(capsys, then)
        firsts = []
        for _ in range(2):
            firsts.append(_outcome(capsys, first))
            assert _outcome(capsys, then) == reference, (first, then)
        assert firsts[0] == firsts[1] and firsts[0][0] == first_code, first
        assert firsts[0][1] != reference[1], first
        assert reference[0] == 0 and reference[1].startswith("# steinclt-csv v1")


@pytest.mark.parametrize("argv", [["--help"], ["delta", "--help"]])
def test_help_is_the_same_on_every_call(argv, capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: steinclt" in texts[0]


def test_discrepancy_rejects_a_t_past_the_double_range(capsys):
    # t = 800 printed a NaN generator form with exit 0 (e^-t underflows to 0)
    argv = ["discrepancy", "--source", "gaussian", "--k", "1", "--n", "4", "--M", "1000",
            "--seed", "1", "--t"]
    assert run(argv + ["800"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t = 800" in captured.err


_PINNED_RUN = """
import os
import sys
import threading

cpus = sys.argv[1]
if cpus != "all":
    os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
from steinclt import cli, sources

if sys.argv[2] == "gamma-star":  # one single-block estimate, on a block shared by 26 targets
    import numpy as np
    from steinclt import Ball, RngStream, gamma_star_hat, gaussian_source

    est = gamma_star_hat(gaussian_source(2), 8, 0.5, Ball(np.zeros(2), 1.1), 0.2, 4096,
                         RngStream(7))
    print(est.value.hex(), est.std_error.hex())
    code = 0
else:
    code = cli.run(sys.argv[2:])
blocks = sum(t.name.startswith("steinclt-block") for t in threading.enumerate())
print(sources._block_pool() is not None, len(os.sched_getaffinity(0)), blocks, file=sys.stderr)
sys.exit(code)
"""


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pinned_child(cpus, argv):
    """(stdout, [pool exists, usable CPUs, block threads]) of a child restricted to `cpus`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PINNED_RUN, cpus, *argv],
                         capture_output=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    return out.stdout, out.stderr.decode().split()[-3:]


_NEEDS_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or _usable_cpus() < 2,
    reason="needs sched_setaffinity and at least two usable CPUs",
)


@_NEEDS_TWO_CPUS
@pytest.mark.parametrize(
    "argv, head",
    [
        (["delta", "--source", "rademacher", "--k", "2", "--n", "16", "--M", "50000",
          "--seed", "7"], b"# steinclt-csv v1"),
        (["bounds", "--source", "uniform", "--k", "2", "--n", "8", "--M", "50000", "--seed", "7"],
         b"# steinclt-csv v1"),
        (["gamma-star"], b"0x"),
    ],
    ids=["delta", "bounds", "gamma-star"],
)
def test_csv_bytes_do_not_depend_on_the_cpu_count(argv, head):
    # M = 50000 is four blocks, split between the caller and the block pool when
    # more than one CPU is usable, and a single-block gamma* splits its targets
    # the same way; a child pinned to one CPU has no pool and runs it all on one thread
    one, one_state = _pinned_child(str(min(os.sched_getaffinity(0))), argv)
    every, every_state = _pinned_child("all", argv)
    assert one_state[:2] == ["False", "1"] and every_state[:2] == ["True", str(_usable_cpus())]
    assert one.startswith(head) and one == every


@_NEEDS_TWO_CPUS
def test_a_single_block_gamma_star_starts_one_block_thread_on_two_cpus():
    # the caller evaluates half the targets and one pool task the other half, so
    # the pool starts one worker (one malloc arena), not one per CPU
    cpus = ",".join(str(c) for c in sorted(os.sched_getaffinity(0))[:2])
    _, state = _pinned_child(cpus, ["gamma-star"])
    assert state == ["True", "2", "1"]


@_NEEDS_TWO_CPUS
def test_a_multi_block_delta_starts_one_block_thread_on_two_cpus():
    # the pool has CPUs - 1 threads: the caller counts the first half of the rows
    cpus = ",".join(str(c) for c in sorted(os.sched_getaffinity(0))[:2])
    _, state = _pinned_child(cpus, ["delta", "--source", "uniform", "--k", "2", "--n", "16",
                                    "--M", "50000", "--seed", "7"])
    assert state == ["True", "2", "1"]

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
import json, sys
import numpy as np
import steinclt
import steinclt.cli

code = steinclt.cli.run(["bounds", "--source", "rademacher", "--k", "2", "--n", "16",
                         "--M", "1000", "--seed", "7"])
loaded = [m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize") if m in sys.modules]
ellipse = steinclt.Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
mass = steinclt.gaussian_measure(ellipse.dilate(0.1))
print(json.dumps({"code": code, "loaded": loaded, "mass": mass,
                  "stats_after_qmc": "scipy.stats" in sys.modules}))
"""


def test_cli_start_up_leaves_scipy_stats_and_integrate_unimported():
    # a fresh interpreter, since the test modules import scipy.stats themselves;
    # importing it (and scipy.optimize through scipy.integrate) took longer
    # than a small bounds run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _START_UP], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=path), check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["loaded"] == []
    # the QMC fallback imports scipy.stats.qmc on its first call
    assert report["stats_after_qmc"]
    ellipse = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    assert report["mass"] == gaussian_measure(ellipse.dilate(0.1))


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
    "family, message",
    [
        ('{"sets": [{"variant": "ball", "center": [NaN, 0.0], "radius": 1.0}]}', "finite"),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0]}]}', "radius"),
        ('{"description": "no sets"}', "sets"),
        ('{"sets": [[0, 1]]}', "JSON object"),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius": "abc"}]}', "abc"),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius"', "family file"),
        ('[{"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}]', "JSON object"),
        ('{"sets": [{"variant": "ball", "center": [0.0, 0.0], "radius": 1.0},'
         ' {"variant": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}]}', "dimension"),
    ],
    ids=["nan-ball-center", "missing-field", "missing-sets", "set-not-object",
         "non-numeric-field", "truncated", "family-not-object", "mixed-dimensions"],
)
def test_bad_family_file_exits_2(tmp_path, capsys, family, message):
    # the NaN centre used to print a nan delta_hat row, the others a traceback
    path = tmp_path / "fam.json"
    path.write_text(family)
    code = run(["delta", "--source", "gaussian", "--k", "2", "--n", "4",
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

import json

import pytest

from umda_lab import cli, experiments
from umda_lab.cli import main
from umda_lab.reporting import RUNTIME_HEADER, TRACE_HEADER

from test_reporting import read_csv


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_summary_and_succeeds(capsys):
    code, out, _ = _run_cli(capsys, "run", "--n", "2", "--lambda", "10", "--mu", "5", "--seed", "1")
    assert code == 0
    assert "success=1" in out
    assert "n=2" in out and "evals=" in out


@pytest.mark.parametrize("engine", ["levels", "bits"])
def test_run_prints_the_same_line_with_and_without_trace(engine, tmp_path, capsys):
    args = ["run", "--n", "14", "--lambda", "12", "--mu", "4", "--noise-p", "0.2", "--seed", "3", "--engine", engine]
    code, untraced, _ = _run_cli(capsys, *args)
    assert code == 0
    code, traced, _ = _run_cli(capsys, *args, "--trace", "--out-dir", str(tmp_path))
    assert code == 0
    assert traced == untraced
    _, rows = read_csv(tmp_path / "trace.csv")
    assert f"best_true={rows[-1][3]}" in untraced


def test_run_rejects_equal_populations(capsys):
    code, _, err = _run_cli(capsys, "run", "--n", "10", "--lambda", "10", "--mu", "10")
    assert code == 2
    assert "mu" in err and "lambda" in err


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_run_trace_rejects_an_unusable_out_dir_before_running(tmp_path, capsys, monkeypatch, out_dir):
    (tmp_path / "afile").write_text("")
    runs = []
    monkeypatch.setattr(cli, "run", lambda config: runs.append(config))
    args = ["run", "--n", "12", "--lambda", "8", "--mu", "4", "--trace", "--out-dir", str(tmp_path / out_dir)]
    code, out, err = _run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out_dir: cannot create directory")
    assert runs == []


def test_run_trace_is_byte_identical_across_reruns(tmp_path, capsys):
    args = ["run", "--n", "12", "--lambda", "8", "--mu", "4", "--seed", "9", "--trace"]
    code, _, _ = _run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = _run_cli(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert code == 0
    first = (tmp_path / "a" / "trace.csv").read_bytes()
    second = (tmp_path / "b" / "trace.csv").read_bytes()
    assert first == second
    header, rows = read_csv(tmp_path / "a" / "trace.csv")
    assert tuple(header) == TRACE_HEADER
    assert len(rows) >= 1


def _write_config(path, **overrides):
    payload = {
        "scenario": "high_pressure",
        "n_values": [30],
        "replications": 2,
        "master_seed": 5,
        "gamma0": 0.1,
        "mu_rule": {"kind": "c_log_n", "c": 5},
        "out_dir": str(path / "out"),
    }
    payload.update(overrides)
    config_path = path / "config.json"
    config_path.write_text(json.dumps(payload))
    return config_path


def test_experiment_bundle_and_csv_roundtrip(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    code, out, _ = _run_cli(capsys, "experiment", str(config_path))
    assert code == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "manifest.json").exists()
    header, rows = read_csv(out_dir / "runtime.csv")
    assert tuple(header) == RUNTIME_HEADER
    assert len(rows) == 2
    for row in rows:
        record = dict(zip(header, row))
        assert int(record["evals"]) == int(record["lambda"]) * int(record["iterations"])
        assert record["success"] in ("0", "1")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "plot.svg").exists()


def test_experiment_unknown_scenario_exit_code(tmp_path, capsys):
    config_path = _write_config(tmp_path, scenario="warp_drive")
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "scenario" in err


def test_experiment_unknown_field_reports_path(tmp_path, capsys):
    config_path = _write_config(tmp_path, typo_field=1)
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "typo_field" in err


def test_experiment_rejects_jobs_below_one(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    code, _, err = _run_cli(capsys, "experiment", str(config_path), "--jobs", "0")
    assert code == 2
    assert "jobs" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_experiment_rejects_an_unusable_out_dir_before_running(tmp_path, capsys, monkeypatch, out_dir):
    (tmp_path / "afile").write_text("")
    runs = []
    monkeypatch.setattr(experiments, "run", lambda config: runs.append(config))
    config_path = _write_config(tmp_path)
    code, out, err = _run_cli(capsys, "experiment", str(config_path), "--out-dir", str(tmp_path / out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: out_dir: cannot create directory")
    assert runs == []


def test_experiment_requires_out_dir(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    data = json.loads(config_path.read_text())
    del data["out_dir"]
    config_path.write_text(json.dumps(data))
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "out_dir" in err


def test_experiment_env_seed_override(tmp_path, capsys, monkeypatch):
    config_path = _write_config(tmp_path)
    monkeypatch.setenv("UMDA_LAB_SEED", "99")
    code, _, _ = _run_cli(capsys, "experiment", str(config_path))
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["master_seed"] == 99


def test_experiment_rejects_bad_mu_rule_and_seed(tmp_path, capsys, monkeypatch):
    config_path = _write_config(tmp_path, mu_rule={"kind": "c_log_n", "c": "5"})
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "mu_rule.c" in err
    config_path = _write_config(tmp_path)
    monkeypatch.setenv("UMDA_LAB_SEED", "seven")
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "UMDA_LAB_SEED" in err
    assert not (tmp_path / "out").exists()


def test_experiment_rejects_repeated_problem_sizes(tmp_path, capsys):
    config_path = _write_config(tmp_path, n_values=[20, 20, 30])
    code, _, err = _run_cli(capsys, "experiment", str(config_path))
    assert code == 2
    assert "n_values" in err
    assert not (tmp_path / "out").exists()


def test_experiment_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    config_path = _write_config(tmp_path)
    code, _, _ = _run_cli(capsys, "experiment", str(config_path))
    assert code == 0
    manifest_path = tmp_path / "out" / "manifest.json"
    code, _, _ = _run_cli(capsys, "experiment", str(manifest_path), "--out-dir", str(tmp_path / "again"))
    assert code == 0
    for name in ("runtime.csv", "trace.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_runtime_scaling_bundle_has_fit(tmp_path, capsys):
    config_path = _write_config(
        tmp_path,
        scenario="runtime_scaling",
        n_values=[20, 30, 40],
        replications=2,
    )
    code, _, _ = _run_cli(capsys, "experiment", str(config_path))
    assert code == 0
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert set(fit) == {"a", "b", "r_squared", "points_used", "censored"}
    assert fit["points_used"] == 3
    assert fit["censored"] == 0


def test_oracle_chain_passes(capsys):
    code, out, _ = _run_cli(capsys, "oracle", "chain", "--n", "3", "--lambda", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_tv_distance"] < 1e-12
    assert report["models"] == 27


def test_oracle_chain_passes_at_the_enumeration_cap(capsys):
    # n * lambda = 16 bits: one uniform model, on which both routes are exact
    code, out, _ = _run_cli(capsys, "oracle", "chain", "--n", "4", "--lambda", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["models"] == 1
    assert report["max_tv_distance"] == 0.0


def test_oracle_chain_rejects_infeasible(capsys):
    code, _, err = _run_cli(capsys, "oracle", "chain", "--n", "20")
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("n", ["0", "1"])
def test_oracle_chain_rejects_problem_sizes_below_two(capsys, n):
    code, out, err = _run_cli(capsys, "oracle", "chain", "--n", n)
    assert code == 2
    assert out == ""
    assert "problem size must be at least 2" in err


def test_oracle_maxlo_prints_value(capsys):
    code, out, _ = _run_cli(capsys, "oracle", "maxlo", "--n", "3", "--k", "2")
    assert code == 0
    assert "1.421875" in out
    report = json.loads(out)
    assert report["passed"] is True


def test_oracle_maxlo_rejects_sizes_beyond_the_enumeration_cap(capsys):
    # n * k = 18 bits: no brute-force comparison can run, so no pass may be reported
    code, out, err = _run_cli(capsys, "oracle", "maxlo", "--n", "9", "--k", "2")
    assert code == 2
    assert out == ""
    assert "infeasible" in err and "cap 16" in err


def test_oracle_noise_expectation_default_report_is_pinned(capsys):
    # any change to the noise stream or to the rows it scores moves these figures
    code, out, _ = _run_cli(capsys, "oracle", "noise-expectation")
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 200_000 and report["exact"] == 0.06
    assert report["monte_carlo_mean"] == 0.06032
    assert report["standard_error"] == 0.001090052030440357


def test_oracle_noise_expectation_report_with_a_long_prefix_is_pinned(capsys):
    # this seed's string has 6 leading ones, so flips of seven positions move its
    # score and an extra draw anywhere in the stream moves these figures
    code, out, _ = _run_cli(capsys, "oracle", "noise-expectation", "--seed", "25")
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 200_000 and report["exact"] == 5.699999999999999
    assert report["monte_carlo_mean"] == 5.698055
    assert report["standard_error"] == 0.002546233198548889


def test_oracle_noise_expectation_reads_one_copy_of_the_string(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, _ = _run_cli(capsys, "oracle", "noise-expectation", "--n", "200", "--samples", "100000",
                                "--p", "0.3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert peak < 20 * 2**20  # 100,000 tiled copies of 200 bits alone take 19 MiB


def test_oracle_noise_expectation(capsys):
    code, out, _ = _run_cli(capsys, "oracle", "noise-expectation", "--n", "15", "--p", "0.25",
                            "--samples", "100000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["abs_error"] <= 3 * report["standard_error"]


@pytest.mark.parametrize("samples", ["0", "1"])
def test_oracle_noise_expectation_rejects_too_few_samples(capsys, samples):
    code, out, err = _run_cli(capsys, "oracle", "noise-expectation", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "samples must be at least 2" in err


def test_oracle_noise_expectation_rejects_oversized_samples_before_allocating(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = _run_cli(capsys, "oracle", "noise-expectation", "--samples", "100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "infeasible" in err
    assert peak < 1_000_000  # the tiled copies alone would take 2 GB


def test_oracle_tailmarginal(capsys):
    code, out, _ = _run_cli(
        capsys, "oracle", "tailmarginal", "--n", "60", "--reps", "2", "--iterations", "800", "--seed", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert 0.45 <= report["mean"] <= 0.55


def test_oracle_tailmarginal_rejects_sizes_without_a_tail(capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run", lambda config: runs.append(config))
    code, out, err = _run_cli(capsys, "oracle", "tailmarginal", "--n", "12", "--reps", "2")
    assert code == 2
    assert out == ""
    assert "n=12" in err and "floor(beta + 2) = 12" in err
    assert runs == []  # rejected before any replication runs


@pytest.mark.parametrize("noise_p", ["0", "0.3"])
def test_oracle_transition_passes_for_both_engines(capsys, noise_p):
    code, out, _ = _run_cli(capsys, "oracle", "transition", "--p", noise_p, "--samples", "4000", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert set(report["engines"]) == {"levels", "bits"}
    assert all(engine["passed"] for engine in report["engines"].values())
    assert report["outcomes"] == 27


def test_oracle_transition_rejects_infeasible_before_allocating(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, err = _run_cli(capsys, "oracle", "transition", "--n", "1000000", "--lambda", "10")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "infeasible" in err
    assert peak < 1_000_000  # the 1e6-entry model alone would take 8 MB


def test_oracle_transition_rejects_an_invalid_run_before_enumerating(capsys, monkeypatch):
    # n=1 at lambda=10 fits the enumeration cap (2**20 outcomes) but is no valid run
    calls = []
    monkeypatch.setattr(cli.oracle, "exact_transition", lambda *args: calls.append(args))
    code, out, err = _run_cli(capsys, "oracle", "transition", "--n", "1", "--lambda", "10", "--p", "0.3")
    assert code == 2
    assert out == ""
    assert "problem size must be at least 2" in err
    assert calls == []


def test_run_engine_flag(tmp_path, capsys):
    outputs = {}
    for engine in ("levels", "bits"):
        code, out, _ = _run_cli(capsys, "run", "--n", "12", "--lambda", "8", "--mu", "4", "--seed", "9",
                                "--engine", engine, "--trace", "--out-dir", str(tmp_path / engine))
        assert code == 0 and "success=1" in out
        outputs[engine] = (tmp_path / engine / "trace.csv").read_bytes()
    assert outputs["levels"] != outputs["bits"]
    code, _, _ = _run_cli(capsys, "run", "--n", "12", "--lambda", "8", "--mu", "4", "--seed", "9",
                          "--trace", "--out-dir", str(tmp_path / "default"))
    assert code == 0
    assert (tmp_path / "default" / "trace.csv").read_bytes() == outputs["levels"]


def test_cli_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    code = "import sys, umda_lab.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", "")}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:  # the child writes no bytecode cache either
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"

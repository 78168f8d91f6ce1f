import json

import pytest

from umda_lab.cli import main
from umda_lab.reporting import RUNTIME_HEADER, TRACE_HEADER, read_csv


def _run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_summary_and_succeeds(capsys):
    code, out, _ = _run_cli(capsys, "run", "--n", "2", "--lambda", "10", "--mu", "5", "--seed", "1")
    assert code == 0
    assert "success=1" in out
    assert "n=2" in out and "evals=" in out


def test_run_rejects_equal_populations(capsys):
    code, _, err = _run_cli(capsys, "run", "--n", "10", "--lambda", "10", "--mu", "10")
    assert code == 2
    assert "mu" in err and "lambda" in err


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


def test_oracle_chain_rejects_infeasible(capsys):
    code, _, err = _run_cli(capsys, "oracle", "chain", "--n", "20")
    assert code == 2
    assert "infeasible" in err


def test_oracle_maxlo_prints_value(capsys):
    code, out, _ = _run_cli(capsys, "oracle", "maxlo", "--n", "3", "--k", "2")
    assert code == 0
    assert "1.421875" in out
    report = json.loads(out)
    assert report["passed"] is True


def test_oracle_noise_expectation(capsys):
    code, out, _ = _run_cli(capsys, "oracle", "noise-expectation", "--n", "15", "--p", "0.25",
                            "--samples", "100000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["abs_error"] <= 3 * report["standard_error"]


def test_oracle_tailmarginal(capsys):
    code, out, _ = _run_cli(
        capsys, "oracle", "tailmarginal", "--n", "60", "--reps", "2", "--iterations", "800", "--seed", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert 0.45 <= report["mean"] <= 0.55


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
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
        check=True,
    )
    assert out.stdout.strip() == "[]"

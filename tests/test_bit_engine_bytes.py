"""The bit engine keeps its output bytes: every file it wrote before the level engine existed.

The hashes were recorded with the bit engine as the only engine, from
``umda-lab run --trace`` and from each ``configs/`` scenario at reduced n and
replications.  Manifests now also carry ``config.engine``; it is removed and
the manifest re-serialized before hashing, so the rest of the manifest must
be unchanged too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from umda_lab.cli import main
from umda_lab.reporting import write_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUN_TRACE_SHA256 = {
    ("--n", "12", "--lambda", "8", "--mu", "4", "--seed", "9"):
        "0021272e97110fce8f5f5b6522f4efd3a8cdedde8973ac16c2f560bd34215ff2",
    ("--n", "20", "--lambda", "12", "--mu", "3", "--seed", "4", "--noise-p", "0.2"):
        "5f07a5c672462844f1214c46bef08a829e08a5dfa321f38b4db96597ec47ffef",
}

REDUCED = {
    "high_pressure": {"n_values": [20, 30], "replications": 2},
    "low_pressure": {"n_values": [30], "replications": 2, "iterations_cap": 1000},
    "noisy_scaling": {"n_values": [20, 40], "replications": 2},
    "runtime_scaling": {"n_values": [10, 20, 30], "replications": 2},
}

BUNDLE_SHA256 = {
    "high_pressure": {
        "manifest.json": "df94f7917b8a88416330906f7651fc5554eca4a19f8b5ddf901736e273fef33f",
        "plot.svg": "2eeb37528dcc3b60aa5c1d9310f5266b4cd512ddc42006158fff797d6863f809",
        "runtime.csv": "85ee2edc78ff79d59f6eae72bbf10cd9710268ad08cc72ec82a04c4ab83a1aaa",
        "trace.csv": "3cd9239006daf5177cffafc245a991329b024670d50af49e7b96cd8be665fe3f",
        "traces/trace_n20_r000.csv": "3cd9239006daf5177cffafc245a991329b024670d50af49e7b96cd8be665fe3f",
        "traces/trace_n20_r001.csv": "fe95dc127f49888c2a28e43d84895ce5f81a6272d7aba90edf6528abd96167e5",
        "traces/trace_n30_r000.csv": "afc1c65cb658d496cbed0e0b5f71a5cadaa9f016d1e32995cf2fb001e97b54a9",
        "traces/trace_n30_r001.csv": "ef0b9c7a5d0a4f57c6e3525e88b0e883b6e7040d64a0d936df701bc343d6736c",
    },
    "low_pressure": {
        "manifest.json": "7c8ec38e8b92db7abe560886156bcaa5735523eecb265076e8324a618d324408",
        "plot.svg": "a52dc4290506106bf40f48906796f7560e01281c467da6119a0ef5be710c99a6",
        "runtime.csv": "0d8c2d0d15c3bd1f48ff84fb29062d363f273f62877f3cefbca540dcfafc7720",
        "trace.csv": "3c59b0b93958ed68f1570904d1dd759c575d287e75ab64cf3abeae7445e55f10",
        "traces/trace_n30_r000.csv": "3c59b0b93958ed68f1570904d1dd759c575d287e75ab64cf3abeae7445e55f10",
        "traces/trace_n30_r001.csv": "6dc53e56d81ed54d767b41c9d02d07bbe3efe05be9a8edf91f33d19e5a600865",
    },
    "noisy_scaling": {
        "fit.json": "34b8eb6ed2dc26848b1f7d0e9ca185c1f95957cd0769fd71198c1681f11b5777",
        "manifest.json": "c0b0226351dab3c81bc12855b6d7b1078fef1de23572ecfedacd6893f098df82",
        "plot.svg": "fee57afbd900b69288d0d55789bf2bb00f356fce36aad60426df85a9e48f71f2",
        "runtime.csv": "9f19ff05ec202fdac6f28c2c2f48dcbf6434113a581b3d5615c2d10aa28c1556",
    },
    "runtime_scaling": {
        "fit.json": "cf782e0dfafe21f593b624debc8a1cc8ec97a831b1f56056a426c3bdf6e8e149",
        "manifest.json": "79a833828acabf98c55a507667384c4ca6b72d21d4107ef641ddf51a08818c16",
        "plot.svg": "67a2171426bb31f96be4375637b72c905f95cc145f67368c33c7d7aa14dbfe2f",
        "runtime.csv": "189ce2d80f723cfd1090d4b34f78b4de36f12c172c8a8cc5743040f44237335d",
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", sorted(RUN_TRACE_SHA256))
def test_bit_engine_run_trace_bytes(argv, tmp_path, capsys):
    assert main(["run", *argv, "--engine", "bits", "--trace", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "trace.csv") == RUN_TRACE_SHA256[argv]


@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_bit_engine_bundle_bytes(scenario, tmp_path, capsys):
    config = {**json.loads((CONFIGS / f"{scenario}.json").read_text()), **REDUCED[scenario], "engine": "bits"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    bundle = tmp_path / "bundle"
    assert main(["experiment", str(config_path), "--out-dir", str(bundle)]) == 0
    capsys.readouterr()
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["config"].pop("engine") == "bits"
    write_json(bundle / "manifest.json", manifest)
    got = {
        path.relative_to(bundle).as_posix(): _sha256(path)
        for path in sorted(bundle.rglob("*"))
        if path.is_file()
    }
    assert got == BUNDLE_SHA256[scenario]

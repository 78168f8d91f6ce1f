"""The level engine keeps its output bytes at a fixed seed.

The hashes pin every file of the reduced ``configs/`` bundles that
``test_bit_engine_bytes`` runs on the bit engine, here on the default level
engine with one and with two worker processes.  They were recorded before
the four scenario runners were folded into one table of scenarios.

The noisy pins cover the traced noisy ``levels`` rows: the ``umda-lab run
--trace`` argv of the noisy bit-engine pin, and the reduced
``high_pressure`` bundle with ``noise_p`` 0.2.  They were recorded before
``run`` appended every trace row as its iteration ends.
"""

import hashlib
import json

import pytest

from test_bit_engine_bytes import CONFIGS, REDUCED, RUN_TRACE_SHA256
from umda_lab.cli import main

LEVEL_BUNDLE_SHA256 = {
    "high_pressure": {
        "manifest.json": "1d92be71a2408017821e33985843a0badf943a667b55e357f4d5c8a9cce73dec",
        "plot.svg": "7d8ff1116599c1d0c8954cbb532d14ef4ce86ecd314ee74182f1b1475c65a301",
        "runtime.csv": "a9979c8875cb34f39cbbf4f91e5893c37ed8079ce7ab4b315e6a8ae5a5a49d64",
        "trace.csv": "81462b6d75802a4a292f94d96badd3405f692c65f347e9c768c267aa4fc50d66",
        "traces/trace_n20_r000.csv": "81462b6d75802a4a292f94d96badd3405f692c65f347e9c768c267aa4fc50d66",
        "traces/trace_n20_r001.csv": "1a8d8ad3cd39587656063fe05d712384c77fb3d8ffe0d6b71195091acd448131",
        "traces/trace_n30_r000.csv": "e53617d4a1007495c09ef11cf13223c6cefe73cc85ba1de571edf5d3c86124aa",
        "traces/trace_n30_r001.csv": "03bde7b4b6e32aa685e4f7955bbfad1d76d3fb039924e110977c749e21962956",
    },
    "low_pressure": {
        "manifest.json": "a90c0fe604f96108d6121c2382efd1fbca6fdfac21a761f06af7176d6befbf19",
        "plot.svg": "d6e5f699b57f2dd4395c85e7690bd9e687fbe7108424c681599ca547ecaf16d1",
        "runtime.csv": "4245e65db749e6dcc4e7af17457b4240adb2159d1f55c84956c15b01d9df4137",
        "trace.csv": "5b8bf5afda94f20acc7c2b54ddf98a98b77d7b3ab0c262624ec9e3098bb68b50",
        "traces/trace_n30_r000.csv": "5b8bf5afda94f20acc7c2b54ddf98a98b77d7b3ab0c262624ec9e3098bb68b50",
        "traces/trace_n30_r001.csv": "2f5e2bfb4814e647c86945991597f21fd2c7b1040ab49f9bc8fbb9d930dd8870",
    },
    "noisy_scaling": {
        "fit.json": "34b8eb6ed2dc26848b1f7d0e9ca185c1f95957cd0769fd71198c1681f11b5777",
        "manifest.json": "95c3893a1d5cf388c37a27f698a6035f9be657e55775399f05d01d83901876cd",
        "plot.svg": "666e1d7fd2d1ffa5d727a6e56dcc85e801ed1bc534c5b1ced3d3848336935154",
        "runtime.csv": "947ab3786f4adbb0e7906ee70fc5f967767e8d8319210470a3c631101c5e6d2e",
    },
    "runtime_scaling": {
        "fit.json": "bd2d6dc4459f600f510515fc523a506c2a10c99fb2f154f0157663f38d2ed8b6",
        "manifest.json": "1997787a3aebf9234e693936d3988b636832322932fd7e4836ee3cb44330cfb9",
        "plot.svg": "eed31830adece594e036deb7ecfaf3b9322c063b80281740343f464c3728614b",
        "runtime.csv": "caf6ac4946cb110918724841333936110ee95d328be4acb01d07d277415d3e10",
    },
}


NOISY_RUN_ARGV = ("--n", "20", "--lambda", "12", "--mu", "3", "--seed", "4", "--noise-p", "0.2")
NOISY_RUN_TRACE_SHA256 = "7640f8b9e9da889c5ab84bc9748485625202cf4164a92fb477b130fce284e925"

NOISY_HIGH_PRESSURE_SHA256 = {
    "manifest.json": "ea520f0d119ec82d4acb0b3b107298f28601a46ae4a48fc8eb0d452c76aad4d4",
    "plot.svg": "07d8f02ad1643abb4e36d5b276ca816917179c8636bda8fef68280325939a2b5",
    "runtime.csv": "810810eb4d898c25a89af0c49c7d73fc889d007a3e47246faca2f65ae06aa88e",
    "trace.csv": "495166e528a0ad3fc490489e060ea28bbeaae29f62d0c13d2e63738d51cb8148",
    "traces/trace_n20_r000.csv": "495166e528a0ad3fc490489e060ea28bbeaae29f62d0c13d2e63738d51cb8148",
    "traces/trace_n20_r001.csv": "40646d4c16170a7e6f519c7398030b5ea94fbd233d79544a32856d9149bfe782",
    "traces/trace_n30_r000.csv": "358279ceeeea4e85e138f16b748ce7e0a5f2e32f3745a9d726898dfa4b149868",
    "traces/trace_n30_r001.csv": "469d8a824d090cdd435a97abed766f6a6b1e9af57c4ca164c4df5d2223742333",
}


def _bundle_sha256(config, jobs, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    bundle = tmp_path / "bundle"
    assert main(["experiment", str(config_path), "--out-dir", str(bundle), "--jobs", str(jobs)]) == 0
    capsys.readouterr()
    return {
        path.relative_to(bundle).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(bundle.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_level_engine_bundle_bytes(scenario, jobs, tmp_path, capsys):
    config = {**json.loads((CONFIGS / f"{scenario}.json").read_text()), **REDUCED[scenario], "engine": "levels"}
    assert _bundle_sha256(config, jobs, tmp_path, capsys) == LEVEL_BUNDLE_SHA256[scenario]


def test_level_engine_noisy_run_trace_bytes(tmp_path, capsys):
    assert NOISY_RUN_ARGV in RUN_TRACE_SHA256  # the bit engine pins the same run
    assert main(["run", *NOISY_RUN_ARGV, "--trace", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == NOISY_RUN_TRACE_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_level_engine_noisy_bundle_bytes(jobs, tmp_path, capsys):
    config = {
        **json.loads((CONFIGS / "high_pressure.json").read_text()), **REDUCED["high_pressure"],
        "engine": "levels", "noise_p": 0.2,
    }
    assert _bundle_sha256(config, jobs, tmp_path, capsys) == NOISY_HIGH_PRESSURE_SHA256

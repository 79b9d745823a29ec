"""Cold start: numpy is the only runtime dependency, so `cilbench run`
and `cilbench verify` finish in an interpreter where scipy cannot be
imported, and a run does not import `numpy.ma` either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cilbench.data import pack_cifar_record
from cilbench.harness import config_to_dict

from helpers import small_config

SRC = Path(__file__).resolve().parents[1] / "src"

# Blocks scipy (a None entry in sys.modules makes its import raise
# ModuleNotFoundError), then runs the CLI in a fresh interpreter.
PROBE = """
import sys
sys.modules["scipy"] = None
import cilbench
from cilbench import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["run", "verify"])
def test_runs_without_scipy(tmp_path, command):
    argv = [command]
    if command == "run":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_to_dict(small_config(out_dir=str(tmp_path / "out")))))
        argv += ["--config", str(config)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if command == "run":
        assert (tmp_path / "out" / "exemplars.json").exists()


# Runs the CLI in a fresh interpreter and fails if numpy.ma was imported:
# np.unique and np.setdiff1d import it (2.3 MB of resident memory) only to
# ask whether an int array is masked.
MA_PROBE = """
import sys
from cilbench import cli
code = cli.main(sys.argv[1:])
sys.exit(code or ("numpy.ma" in sys.modules) * 10)
"""


@pytest.mark.parametrize("dataset", ["blobs", "cifar100"])
def test_run_does_not_import_numpy_ma(tmp_path, dataset):
    overrides = {"out_dir": str(tmp_path / "out")}
    if dataset == "cifar100":
        rng = np.random.default_rng(0)
        for split, n in (("train", 40), ("test", 16)):
            (tmp_path / f"{split}.bin").write_bytes(b"".join(
                pack_cifar_record(0, i % 4, rng.integers(0, 256, 3072, dtype=np.uint8))
                for i in range(n)
            ))
        overrides.update(dataset="cifar100", reducer="pca",
                         cifar_train_path=str(tmp_path / "train.bin"),
                         cifar_test_path=str(tmp_path / "test.bin"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(small_config(**overrides))))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", MA_PROBE, "run", "--config", str(config)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 10, "numpy.ma was imported"
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "exemplars.json").exists()

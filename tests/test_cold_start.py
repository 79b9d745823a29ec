"""numpy is the only runtime dependency: `cilbench run` and `cilbench
verify` finish in an interpreter where scipy cannot be imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

"""scipy stays off the import path of `cilbench run`; only the selection
oracle behind `cilbench verify` loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cilbench.harness import config_to_dict

from test_harness import small_config

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI in a fresh interpreter and reports whether scipy got loaded.
PROBE = """
import sys
import cilbench
from cilbench import cli
code = cli.main(sys.argv[1:])
print("scipy loaded:", "scipy" in sys.modules)
sys.exit(code)
"""


def run_probe(tmp_path, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()[-1]


def test_run_leaves_scipy_unloaded(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(small_config(out_dir=str(tmp_path / "out")))))
    assert run_probe(tmp_path, "run", "--config", str(config)) == (0, "scipy loaded: False")
    assert (tmp_path / "out" / "exemplars.json").exists()


def test_verify_loads_scipy_for_the_oracle(tmp_path):
    assert run_probe(tmp_path, "verify") == (0, "scipy loaded: True")

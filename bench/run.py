"""cilbench benchmark: one command for every workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each round of a workload (every experiment once) runs in a fresh child
process, bench/worker.py, with BLAS limited to BLAS_THREADS threads.
Rounds repeat while the next one is expected to end within --seconds;
there is at least one, and a traced run alternates untraced and traced
rounds, at least one of each.  Every child sets up (imports and input
generation) before its round; children that only set up are added until
there are MIN_SETUPS set-ups, and setup_s is their median.

The command prints every metric by name with its unit, then, as its
last line, one JSON object with correct, attempted, failed and metrics.
It exits 1 if any output check or any operation failed; if a child
cannot run at all (for instance when src/ is missing), it exits 1
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ["outlier-grid", "tsne-blobs", "cifar-fuzzy"]
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 120
# Within the nproc cap.  On the 2-core reference machine two threads ran
# cifar-fuzzy no faster than one (10.3-11.3 s against 10.9-11.2 s a round),
# and the other workloads multiply matrices of at most 160 rows.
BLAS_THREADS = 1


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def spawn(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"bench: {workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(spawn(workload, seed, bool(trace) and len(rounds) % 2 == 1))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and (
                not trace or len(rounds) >= 2):
            break
    setups = [r["setup_s"] for r in rounds]
    setups += [spawn(workload, seed, False, True)["setup_s"]
               for _ in range(MIN_SETUPS - len(setups))]

    first = rounds[0]
    plain = [r for r in rounds if r["layers"] is None]
    traced = [r["layers"] for r in rounds if r["layers"] is not None]
    wall = statistics.median(r["wall"] for r in plain)
    correct = all(r["correct"] for r in rounds)
    if any(r["digests"] != first["digests"] for r in rounds):
        print("bench: outputs differ between rounds of the same inputs", file=sys.stderr)
        correct = False
    if traced:
        # median_low keeps counts whole when there are two traced rounds
        metrics = {name: statistics.median_low(t[name] for t in traced) for name in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "train_samples_per_s": first["example_epochs"] / wall if wall else 0.0,
            "peak_rss_mb": statistics.median(r["peak_mb"] for r in plain),
            "avg_acc": statistics.mean(first["avg_acc"]) if first["avg_acc"] else 0.0,
        }
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "rounds": [r["wall"] for r in rounds],
        "exemplars_sha256": first["exemplars_sha256"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = load_spec()
    names = WORKLOADS if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = res
        rounds = ", ".join(f"{w:.3f}" for w in res["rounds"])
        print(f"{name}: seed {args.seed}, {len(res['rounds'])} rounds ({rounds} s), "
              f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, value in res["metrics"].items():
            print(f"  {metric:34s} {value:>16.6g} {units[metric]}")
        for label, digest in sorted(res["exemplars_sha256"].items()):
            print(f"  exemplars.json sha256 {label:18s} {digest}")

    if len(names) == 1:
        metrics = {m: {"value": v, "unit": units[m]} for m, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{m}": {"value": v, "unit": units[m]}
                   for w, r in results.items() for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

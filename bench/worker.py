"""Run one round of one workload in this process; print one JSON line.

Started by run.py in a fresh process for every round (and for every
set-up probe), so every round starts from the same interpreter and
allocator state, as a `cilbench run` process does.  The program is
imported from the checkout's own src/, never from an installed copy.

An operation is one experiment: load its JSON config, run_experiment,
emit_results.  Only operations are timed.  The output checks run after
the whole round: checks allocate and free arrays of their own, and a
freed block of a few MB changes glibc's malloc thresholds enough to
halve the time of the t-SNE experiment that follows (measured: 12.6 s
before, 6.6 s after freeing one 4 MB array), so they must not run
between operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
from probe import Probe, SpanStore

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench_out"


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cilbench.harness
    except ImportError as exc:
        sys.exit(f"bench: cannot import cilbench from {src}: {exc}")
    if src not in Path(cilbench.harness.__file__).resolve().parents:
        sys.exit(f"bench: cilbench imported from {cilbench.harness.__file__}, not {src}")
    return cilbench.harness


def read_metrics(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "task,accuracy,avg_accuracy,exemplars,seconds":
        raise checks.CheckError(f"{path}: unexpected header")
    rows = []
    for line in lines[1:]:
        task, acc, avg, ex, _ = line.split(",")
        rows.append({"task": int(task), "accuracy": float(acc), "avg_accuracy": float(avg),
                     "exemplars": int(ex)})
    return rows


def check_experiment(exp, inputs, cfg, result, probe) -> dict:
    """Every output check on one finished experiment; returns its figures."""
    sampler = Counter()
    for points, sp, selection in probe.selections:
        sampler.update(checks.replay_selection(
            points, sp.n, sp.r0, sp.delta_r, sp.max_adapt, sp.m, selection))
    for n_rows, emb in probe.embeddings:
        checks.check_embedding(emb.points, n_rows, cfg.reduce_dim, emb.kl_trace,
                               cfg.tsne.exaggeration_iters)

    out = Path(cfg.out_dir)
    rows = read_metrics(out / "metrics.csv")
    exemplars_bytes = (out / "exemplars.json").read_bytes()
    stored = {c["class"]: c["indices_into_train"] for c in json.loads(exemplars_bytes)["classes"]}

    if inputs.train_labels is not None:
        y_train = inputs.train_labels
        X_test = inputs.test_pixels.astype(np.float32) / 255.0
        y_test = inputs.test_labels
        planted = inputs.train_outlier
        X_train = None
    else:
        datasets = [ds for _, ds in probe.datasets]
        if len(datasets) != 1:
            raise checks.CheckError(f"expected one generated dataset, saw {len(datasets)}")
        ds = datasets[0]
        X_train = np.stack([ex.features for ex in ds.train])
        y_train = np.array([ex.label for ex in ds.train])
        X_test = np.stack([ex.features for ex in ds.test])
        y_test = np.array([ex.label for ex in ds.test])
        planted = checks.far_from_class_median(X_train, y_train, inputs.outlier_distance)

    total = checks.check_memory(stored, cfg.memory_budget, result.class_order_seen, y_train)
    if rows[-1]["exemplars"] != total:
        raise checks.CheckError(f"metrics.csv says {rows[-1]['exemplars']} exemplars, store holds {total}")

    pool = np.isin(y_test, result.class_order_seen)
    W, B = result.model.weights, result.model.biases
    if cfg.classifier == "nme":
        by_class = {c: X_train[np.asarray(idx, dtype=int)] for c, idx in stored.items()}
        acc = checks.nme_accuracy(W, B, X_test[pool], y_test[pool], by_class)
    else:
        acc = checks.softmax_accuracy(W, B, X_test[pool], y_test[pool], result.class_order_seen)
    checks.check_accuracy(acc, rows[-1]["accuracy"], int(pool.sum()))
    checks.check_metrics_rows(rows, exp.acc_floor)

    stored_idx = np.array([i for idx in stored.values() for i in idx], dtype=int)
    prev = [0] + [r["exemplars"] for r in rows[:-1]]
    masked_metrics = "\n".join(
        line.rsplit(",", 1)[0] for line in (out / "metrics.csv").read_text().splitlines())
    return {
        "avg_acc": rows[-1]["avg_accuracy"],
        "example_epochs": sum((inputs.task_rows + held) * inputs.epochs for held in prev),
        "stored": total,
        "stored_outliers": int(planted[stored_idx].sum()),
        "sampler": sampler,
        "digest": hashlib.sha256(exemplars_bytes + masked_metrics.encode()).hexdigest(),
        "exemplars_sha256": hashlib.sha256(exemplars_bytes).hexdigest(),
    }


def run_round(harness, inputs, trace: bool) -> dict:
    """Time every experiment of the workload once, then check them all.
    An operation the program fails counts in "failed"; an output that
    fails a check goes to "errors"."""
    wall = 0.0
    failed = 0
    done = []
    spans = SpanStore() if trace else None
    for exp in inputs.experiments:
        probe = Probe(spans, inputs.reduce_dim)
        try:
            with probe:
                t0 = time.perf_counter()
                cfg = harness.load_config(exp.config_path)
                result = harness.run_experiment(cfg)
                harness.emit_results(result, cfg, cfg.out_dir)
                wall += time.perf_counter() - t0
        except Exception as exc:  # counted as a failed operation, not fatal
            failed += 1
            print(f"bench: {exp.label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        done.append((exp, cfg, result, probe))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures, errors = {}, []
    for exp, cfg, result, probe in done:
        try:
            figures[exp.label] = check_experiment(exp, inputs, cfg, result, probe)
        except (checks.CheckError, ValueError, KeyError) as exc:  # unreadable output files too
            errors.append(f"{exp.label}: check failed: {exc}")
    if inputs.check_outlier_ordering:
        for group in sorted({e.group for e in inputs.experiments}):
            members = [e for e in inputs.experiments if e.group == group]
            if all(e.label in figures for e in members):
                try:
                    checks.check_outlier_ordering(
                        {e.kind: figures[e.label]["stored_outliers"] for e in members})
                except checks.CheckError as exc:
                    errors.append(f"group {group}: check failed: {exc}")
    return {"wall": wall, "failed": failed, "figures": figures, "errors": errors,
            "probes": [probe for *_, probe in done], "spans": spans, "peak_mb": peak_mb}


def uncalled(inputs, probes, trace: bool) -> list[str]:
    """Names of expected functions that were wrapped but never called."""
    wrapped = {f"{m}.{f}" for m, f, _, captured in Probe.TARGETS if trace or captured}
    made = Counter()
    for probe in probes:
        made.update(probe.calls)
    return [name for name in inputs.expected_calls if name in wrapped and made[name] == 0]


def layer_metrics(rnd: dict, inputs) -> dict:
    """Per-layer figures of one traced round: inclusive seconds, calls and
    counts per layer, self seconds per layer, and the traced wall time."""
    inclusive, calls, self_s, top = rnd["spans"].totals()
    inclusive, calls, self_s = Counter(inclusive), Counter(calls), Counter(self_s)
    counts = Counter()
    for probe in rnd["probes"]:
        counts.update(probe.counts)
    figures = rnd["figures"]
    sampler = Counter()
    for f in figures.values():
        sampler.update(f["sampler"])

    def outlier_share(kind=None):
        chosen = [figures[e.label] for e in inputs.experiments
                  if e.label in figures and kind in (None, e.kind)]
        stored = sum(f["stored"] for f in chosen)
        return sum(f["stored_outliers"] for f in chosen) / stored if stored else 0.0

    m = {
        "data.load_s": inclusive["data.load"],
        "data.stream_s": inclusive["data.stream"],
        "data.train_rows": counts["data.train_rows"],
        "data.bytes_read": counts["data.bytes_read"],
        "learner.train_s": inclusive["learner.train"],
        "learner.train_calls": calls["learner.train"],
        "learner.train_samples": counts["learner.train_samples"],
        "learner.forward_s": inclusive["learner.forward"],
        "learner.forward_rows": counts["learner.forward_rows"],
        "learner.teacher_forward_s": inclusive["learner.teacher_forward"],
        "learner.teacher_forward_rows": counts["learner.teacher_forward_rows"],
        "reduce.tsne_s": inclusive["reduce.tsne"],
        "reduce.tsne_calls": calls["reduce.tsne"],
        "reduce.affinities_s": inclusive["reduce.affinities"],
        "reduce.kl_grad_s": inclusive["reduce.kl_grad"],
        "reduce.kl_grad_calls": calls["reduce.kl_grad"],
        "reduce.pca_s": inclusive["reduce.pca"],
        "reduce.pca_calls": calls["reduce.pca"],
        "reduce.fallbacks": counts["reduce.fallbacks"],
        "sampler.select_s": inclusive["sampler.select"],
        "sampler.select_calls": calls["sampler.select"],
        "sampler.starved_calls": sampler["starved"],
        "sampler.radius_bumps": sampler["radius_bumps"],
        "sampler.n_relaxations": sampler["n_relaxations"],
        "sampler.exemplars_stored": sum(f["stored"] for f in figures.values()),
        "sampler.outlier_share": outlier_share(),
        "sampler.outlier_share.diverse_n5": outlier_share("diverse_n5"),
        "sampler.outlier_share.diverse_n0": outlier_share("diverse_n0"),
        "sampler.outlier_share.random": outlier_share("random"),
        "harness.run_s": inclusive["harness.run"],
        "harness.self_s": self_s["harness.run"],
        "harness.evaluate_s": inclusive["harness.evaluate"],
        "harness.evaluate_rows": counts["harness.evaluate_rows"],
        "harness.class_means_s": inclusive["harness.class_means"],
        "harness.emit_s": inclusive["harness.emit"],
        "harness.emit_bytes": counts["harness.emit_bytes"],
    }
    for layer in ("data", "learner", "reduce", "sampler", "harness"):
        m[f"self.{layer}_s"] = sum(sec for name, sec in self_s.items() if name.split(".")[0] == layer)
    m["trace.wall_s"] = rnd["wall"]
    m["trace.unaccounted_s"] = rnd["wall"] - top
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    harness = import_program()
    from workloads import WORKLOADS  # imports cilbench, so only after import_program

    inputs = WORKLOADS[args.workload](args.seed, str(OUT / args.workload))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rnd = run_round(harness, inputs, bool(args.trace))
    missing = uncalled(inputs, rnd["probes"], bool(args.trace)) if rnd["probes"] else []
    if missing:
        sys.exit(f"bench: expected calls never made on {args.workload}: {missing}")
    figures = rnd["figures"]
    example_epochs = sum(f["example_epochs"] for f in figures.values())
    layers = layer_metrics(rnd, inputs) if args.trace else None
    if layers and layers["learner.train_samples"] != example_epochs:
        rnd["errors"].append(f"train_task saw {layers['learner.train_samples']} example-epochs, "
                             f"inputs and metrics.csv give {example_epochs}")
    for e in rnd["errors"]:
        print("bench:", e, file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "wall": rnd["wall"],
        "peak_mb": rnd["peak_mb"],
        "attempted": len(inputs.experiments),
        "failed": rnd["failed"],
        "correct": not rnd["errors"],
        "example_epochs": example_epochs,
        "avg_acc": [f["avg_acc"] for f in figures.values()],
        "digests": {k: f["digest"] for k, f in figures.items()},
        "exemplars_sha256": {k: f["exemplars_sha256"] for k, f in figures.items()},
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

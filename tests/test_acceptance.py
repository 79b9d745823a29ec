"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import json
import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from cilbench.cli import main as cli_main
from cilbench.data import (
    CIFAR_RECORD_BYTES,
    BlobsSpec,
    StreamSpec,
    load_cifar100,
    make_blobs,
    make_stream,
    pack_cifar_record,
)
from cilbench.errors import DataError
from cilbench.harness import (
    RunConfig,
    config_to_dict,
    load_dataset,
    outlier_benchmark_config,
    run_and_emit,
    run_experiment,
)
from cilbench.learner import (
    LossConfig,
    TrainConfig,
    as_features,
    batch_loss_and_grads,
    init_mlp,
    snapshot_teacher,
    train_task,
)
from cilbench.sampler import (
    SamplerParams,
    diverse_sample,
    gonzalez_sample,
    verify_selection,
)
from oracles import covering_radius, distilled_softmax, kd_loss
from helpers import fd_gradient, planted_outlier_instance, small_config


def report(criterion, ok, t0, extra=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:28s} {status}  ({elapsed:.1f}s) {extra}")
    assert ok, criterion


FUZZY_RUNS = [(kind, n, seed) for seed in range(5)
              for kind, n in (("diverse", 5), ("diverse", 0), ("random", 0))]


@pytest.fixture(scope="module")
def fuzzy_benchmark():
    """The scaled benchmark on a fuzzy stream (10% of each task's rows from
    other tasks' classes): per (kind, n, seed), the final avg accuracy,
    the stored row count, and the planted outliers among the stored rows."""
    out = {}
    for kind, n, seed in FUZZY_RUNS:
        cfg = dataclasses.replace(outlier_benchmark_config(kind, n, seed),
                                  stream=StreamSpec("fuzzy", 2, 10))
        ds = load_dataset(cfg)
        result = run_experiment(cfg, ds)
        # planted outliers lie at least 10 spreads from their class centre,
        # inliers (2-D normal) within 5 spreads but for a 4e-6 tail
        far = np.zeros(len(ds.y_train), dtype=bool)
        for c in range(ds.num_classes):
            rows = ds.y_train == c
            centre = np.median(ds.X_train[rows], axis=0)
            far[rows] = np.linalg.norm(ds.X_train[rows] - centre, axis=1) > 5 * cfg.blobs.spread
        stored = [i for idx in result.store.train_indices.values() for i in idx]
        out[(kind, n, seed)] = (result.records[-1].avg_accuracy,
                                result.records[-1].exemplar_count, int(far[stored].sum()))
    return out


@pytest.fixture(scope="module")
def benchmark_aa():
    """Shared paired runs for the scaled benchmark (criteria 9 and 10)."""
    aa = {}
    for seed in range(5):
        for kind, n in (("diverse", 5), ("diverse", 0), ("random", 0)):
            cfg = outlier_benchmark_config(kind, n, seed)
            aa[(kind, n, seed)] = run_experiment(cfg).records[-1].avg_accuracy
    return aa


def test_01_filter_off_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n_pts = int(rng.integers(2, 201))
        pts = rng.normal(0, 2, size=(n_pts, 2))
        m = int(rng.integers(1, 21))
        ok &= diverse_sample(pts, SamplerParams(m=m, n=0)) == gonzalez_sample(pts, m)
    ok &= time.perf_counter() - t0 < 10
    report("1 filter-off equivalence", ok, t0)


def test_02_two_approximation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(200):
        pts = rng.normal(size=(int(rng.integers(2, 13)), 2))
        m = int(rng.integers(1, 4))
        greedy = covering_radius(pts, gonzalez_sample(pts, m))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        opt = min(
            dist[:, s].min(axis=1).max() for s in combinations(range(len(pts)), min(m, len(pts)))
        )
        ok &= greedy <= 2.0 * opt + 1e-12
    ok &= time.perf_counter() - t0 < 30
    report("2 k-center 2-approximation", ok, t0)


def test_03_outlier_exclusion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(50):
        pts, outliers = planted_outlier_instance(rng, n_outliers=int(rng.integers(1, 4)))
        for n in (1, 3):
            picked = diverse_sample(pts, SamplerParams(m=10, n=n, r0=0.5))
            ok &= not (set(picked) & outliers)
    ok &= time.perf_counter() - t0 < 10
    report("3 outlier exclusion", ok, t0)


def test_04_oracle_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for trial in range(1000):
        n_pts = int(rng.integers(4, 120))
        pts = rng.normal(0, 2, size=(n_pts, 2))
        # every third instance starts with a radius far too small, forcing
        # the adaptation schedule to fire
        r0 = 0.01 if trial % 3 == 0 else float(rng.uniform(0.1, 1.5))
        params = SamplerParams(
            m=int(rng.integers(1, 21)), n=int(rng.integers(0, 5)), r0=r0
        )
        ok &= bool(verify_selection(pts, params, diverse_sample(pts, params)))
    # classes with no more points than n: no radius passes the filter until
    # n has been relaxed below the point count
    for _ in range(100):
        n_pts = int(rng.integers(1, 6))
        pts = rng.normal(0, 2, size=(n_pts, 2))
        params = SamplerParams(
            m=int(rng.integers(1, 6)), n=int(rng.integers(n_pts, n_pts + 4)), r0=0.5
        )
        ok &= bool(verify_selection(pts, params, diverse_sample(pts, params)))
    ok &= time.perf_counter() - t0 < 60
    report("4 oracle round-trip x1000", ok, t0)


def test_05_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    for trial in range(20):
        ell = int(rng.integers(2, 5))
        q = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 6))
        model = init_mlp(dim, (int(rng.integers(4, 9)),), ell + q, seed=trial)
        teacher = snapshot_teacher(init_mlp(dim, (5,), ell, seed=trial + 1000))
        X = rng.normal(size=(6, dim))
        y = rng.integers(0, ell + q, size=6)
        for lcfg, use_teacher in (
            (LossConfig(beta=0.0), None),            # pure CE
            (LossConfig(beta=1.0), teacher),          # pure KD, T=2
            (LossConfig(beta=0.5), teacher),          # combined, beta=0.5
        ):
            _, grads = batch_loss_and_grads(model, X, y, use_teacher, lcfg)
            for k in range(len(model.weights)):
                W = model.weights[k]
                idx = (int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1])))
                fd = fd_gradient(model, k, idx, X, y, use_teacher, lcfg)
                ok &= abs(fd - grads[k][0][idx]) <= 1e-4 * max(1.0, abs(fd))
    ok &= time.perf_counter() - t0 < 30
    report("5 gradient correctness", ok, t0)


def test_06_kd_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        ell = int(rng.integers(1, 8))
        teacher = rng.normal(0, 4, size=ell)
        student = rng.normal(0, 4, size=ell + int(rng.integers(0, 4)))
        p = distilled_softmax(teacher, 2.0, ell)
        entropy = float(-np.sum(p * np.log(p)))
        ok &= kd_loss(teacher, student, 2.0) >= entropy - 1e-9
        # equality case: student's old-class logits equal the teacher's
        matched = np.concatenate([teacher, rng.normal(size=2)])
        ok &= abs(kd_loss(teacher, matched, 2.0) - entropy) <= 1e-9
    ok &= time.perf_counter() - t0 < 5
    report("6 KD lower bound", ok, t0)


def test_07_first_task_rule():
    t0 = time.perf_counter()
    ds = make_blobs(BlobsSpec(2, 30, dim=2, spread=0.4), 71)
    model = init_mlp(2, (8,), 2, seed=72)
    tcfg = TrainConfig(epochs=8, batch_size=8)
    X, y = ds.X_train, ds.y_train
    _, trace_beta = train_task(model, X, y, seed=73, lcfg=LossConfig(beta=0.5), tcfg=tcfg)
    _, trace_zero = train_task(model, X, y, seed=73, lcfg=LossConfig(beta=0.0), tcfg=tcfg)
    report("7 first-task rule (bitwise)", trace_beta == trace_zero, t0)


def test_08_stream_composition():
    t0 = time.perf_counter()
    ok = True
    ds = make_blobs(BlobsSpec(10, 50, dim=2), 81)  # 40 train per class
    fuzzy = make_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=10), 82)
    for task in fuzzy:
        labels = ds.y_train[task.example_indices]
        minor = sum(1 for c in labels if c not in task.major_classes)
        ok &= minor == round(0.10 * len(labels))
        ok &= len(labels) - minor == round(0.90 * len(labels))
    disjoint = make_stream(ds, StreamSpec("disjoint", 2), 83)
    for a in disjoint:
        for b in disjoint:
            if a.task_index != b.task_index:
                ok &= not (a.major_classes & b.major_classes)
    ok &= time.perf_counter() - t0 < 5
    report("8 fuzzy/disjoint composition", ok, t0)


def test_09_benchmark_diverse_vs_random(benchmark_aa):
    t0 = time.perf_counter()
    wins = sum(
        benchmark_aa[("diverse", 5, s)] >= benchmark_aa[("random", 0, s)] for s in range(5)
    )
    report("9 diverse >= random (paired)", wins >= 4, t0, extra=f"wins={wins}/5")


def test_10_neighbor_trend(benchmark_aa):
    t0 = time.perf_counter()
    med5 = statistics.median(benchmark_aa[("diverse", 5, s)] for s in range(5))
    med0 = statistics.median(benchmark_aa[("diverse", 0, s)] for s in range(5))
    report(
        "10 n-trend (median n=5 >= n=0)",
        med5 >= med0,
        t0,
        extra=f"median(n=5)={med5:.3f} median(n=0)={med0:.3f}",
    )


def test_11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = small_config(reducer="pca")
    for d in ("a", "b"):
        run_and_emit(dataclasses.replace(cfg, out_dir=str(tmp_path / d)))
    ok = (tmp_path / "a" / "exemplars.json").read_bytes() == (
        tmp_path / "b" / "exemplars.json").read_bytes()
    # config.json differs only in the out_dir it records
    configs = [(tmp_path / d / "config.json").read_text().replace(str(tmp_path / d), "")
               for d in ("a", "b")]
    ok &= configs[0] == configs[1]
    # metrics.csv compared with the wall-clock column masked: timing is
    # recorded but never asserted (see decisions ledger)
    strip = lambda p: [",".join(l.split(",")[:4]) for l in p.read_text().splitlines()]
    ok &= strip(tmp_path / "a" / "metrics.csv") == strip(tmp_path / "b" / "metrics.csv")
    report("11 run determinism", ok, t0)


def test_12_cifar_ingestion(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(121)
    ok = True

    def synth_file(path, n_records, num_fine):
        with open(path, "wb") as fh:
            for i in range(n_records):
                pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
                fh.write(pack_cifar_record(int(rng.integers(20)), i % num_fine, pixels))

    train_path = tmp_path / "train.bin"
    synth_file(train_path, 150, 5)
    ok &= train_path.stat().st_size == 150 * CIFAR_RECORD_BYTES

    # size gate: only multiples of the record size load
    bad = tmp_path / "bad.bin"
    bad.write_bytes(train_path.read_bytes()[:-1])
    try:
        load_cifar100(str(bad), "train")
        ok = False
    except DataError:
        pass

    # load -> reserialize is byte-identical for every record; the coarse
    # label is not kept, so it comes from the record
    raw = train_path.read_bytes()
    ds = load_cifar100(str(train_path), "train")
    pixels = ds.X_train
    ok &= bool(pixels.dtype == np.uint8)
    ok &= bool(np.array_equal(np.rint(as_features(pixels, np.float64) * 255.0), pixels))
    for i in range(150):
        rec = raw[i * CIFAR_RECORD_BYTES : (i + 1) * CIFAR_RECORD_BYTES]
        ok &= pack_cifar_record(rec[0], int(ds.y_train[i]), pixels[i]) == rec

    # smoke run of a 5-label file pair through the CLI (accuracy not asserted)
    test_path = tmp_path / "test.bin"
    synth_file(test_path, 50, 5)
    cfg = RunConfig(
        dataset="cifar100",
        cifar_train_path=str(train_path),
        cifar_test_path=str(test_path),
        stream=StreamSpec(mode="disjoint", classes_per_task=1),
        sampler_kind="diverse",
        sampler_params=SamplerParams(m=1, n=2, r0=0.5),
        reducer="tsne",
        memory_budget=25,
        train=TrainConfig(epochs=2, batch_size=32),
        out_dir=str(tmp_path / "out"),
        seed=5,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg)))
    ok &= cli_main(["run", "--config", str(config_path)]) == 0
    ok &= len((tmp_path / "out" / "metrics.csv").read_text().splitlines()) == 1 + 5
    report("12 CIFAR ingestion + smoke", ok, t0)


def test_13_fuzzy_memory_keeps_its_budget(fuzzy_benchmark):
    t0 = time.perf_counter()
    counts = {fuzzy_benchmark[run][1] for run in FUZZY_RUNS}
    report("13 fuzzy memory = budget", counts == {100}, t0, extra=f"stored={sorted(counts)}")


def test_14_fuzzy_outlier_share(fuzzy_benchmark):
    t0 = time.perf_counter()
    share = {}
    for kind, n in (("diverse", 5), ("diverse", 0), ("random", 0)):
        runs = [fuzzy_benchmark[(kind, n, s)] for s in range(5)]
        share[(kind, n)] = sum(r[2] for r in runs) / sum(r[1] for r in runs)
    dss, n0, rnd = share[("diverse", 5)], share[("diverse", 0)], share[("random", 0)]
    report("14 fuzzy outlier share", dss < n0 and dss < rnd, t0,
           extra=f"n=5 {dss:.3f} n=0 {n0:.3f} random {rnd:.3f}")


def test_15_fuzzy_diverse_vs_random(fuzzy_benchmark):
    t0 = time.perf_counter()
    dss = statistics.mean(fuzzy_benchmark[("diverse", 5, s)][0] for s in range(5))
    rnd = statistics.mean(fuzzy_benchmark[("random", 0, s)][0] for s in range(5))
    report("15 fuzzy diverse > random (mean)", dss > rnd, t0,
           extra=f"mean(n=5)={dss:.3f} mean(random)={rnd:.3f}")


# final avg_accuracy of outlier_benchmark_config("diverse", 5, seed), seeds
# 0-9, trained in float64: the output of commit b63b923, the last to train
# blob rows in float64
FLOAT64_DIVERSE_N5_AA = [
    0.8960833333333333, 0.9388333333333334, 0.92175, 0.9213333333333334, 0.8586666666666666,
    0.8637499999999999, 0.8933333333333333, 0.9096249999999999, 0.92125, 0.9338749999999999,
]


def test_16_float32_training_close_to_float64(benchmark_aa):
    """Blob rows train in float32; no seed's final accuracy moves by more than
    0.01 from float64 training (measured worst case 0.0059)."""
    t0 = time.perf_counter()
    got = [benchmark_aa[("diverse", 5, s)] if s < 5 else
           run_experiment(outlier_benchmark_config("diverse", 5, s)).records[-1].avg_accuracy
           for s in range(10)]
    worst = max(abs(a - b) for a, b in zip(got, FLOAT64_DIVERSE_N5_AA))
    report("16 float32 within 0.01 of float64", worst <= 0.01, t0, extra=f"worst={worst:.4f}")

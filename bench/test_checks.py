"""Each output check accepts the program's real output and rejects a
corrupted copy of it.  Fast; run with

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from probe import Probe  # noqa: E402
from cilbench.harness import outlier_benchmark_config, run_experiment  # noqa: E402
from cilbench.sampler import SamplerParams, diverse_sample  # noqa: E402


def _replay(pts, params, selection):
    return checks.replay_selection(
        pts, params.n, params.r0, params.delta_r, params.max_adapt, params.m, selection)


def test_replay_accepts_sampler_output_including_starved_classes():
    rng = np.random.default_rng(1)
    for trial in range(60):
        pts = rng.normal(0, 2, size=(int(rng.integers(2, 40)), 2))
        r0 = 0.01 if trial % 3 == 0 else float(rng.uniform(0.1, 1.5))
        params = SamplerParams(m=int(rng.integers(1, 15)), n=int(rng.integers(0, 6)), r0=r0)
        stats = _replay(pts, params, diverse_sample(pts, params))
        assert stats["starved"] == int(len(pts) <= params.n)
    # two points and n=5: four full levels of bumps, then the n=1 level
    stats = _replay(np.array([[0.0, 0.0], [3.0, 0.0]]), SamplerParams(m=2, n=5),
                    diverse_sample(np.array([[0.0, 0.0], [3.0, 0.0]]), SamplerParams(m=2, n=5)))
    assert stats == {"radius_bumps": 4 * 1000 + 25, "n_relaxations": 4, "starved": 1}


def test_replay_rejects_non_farthest_pick():
    rng = np.random.default_rng(2)
    pts = rng.normal(0, 1, size=(60, 2))
    params = SamplerParams(m=8, n=3, r0=0.3)
    selection = diverse_sample(pts, params)
    _replay(pts, params, selection)
    # swap the third pick for the qualifying unchosen point nearest to the chosen ones
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    d_sel = dist[selection[:2]].min(axis=0)
    d_sel[selection] = np.inf
    bad = selection[:2] + [int(np.argmin(d_sel))] + selection[3:]
    with pytest.raises(checks.CheckError, match="farthest|filter"):
        _replay(pts, params, bad)


def test_replay_rejects_planted_outlier_pick():
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(0, 0.3, size=(40, 2)), [[25.0, 25.0]]])
    params = SamplerParams(m=5, n=3, r0=0.5)
    selection = diverse_sample(pts, params)
    assert 40 not in selection
    with pytest.raises(checks.CheckError):
        _replay(pts, params, selection[:1] + [40] + selection[2:])


@pytest.fixture(scope="module")
def nme_run():
    cfg = outlier_benchmark_config("diverse", 5, 0)
    with Probe(spans=None, reduce_dim=cfg.reduce_dim) as probe:
        result = run_experiment(cfg)
    (_, ds), = probe.datasets
    X_train = np.stack([ex.features for ex in ds.train])
    y_train = np.array([ex.label for ex in ds.train])
    X_test = np.stack([ex.features for ex in ds.test])
    y_test = np.array([ex.label for ex in ds.test])
    return cfg, result, X_train, y_train, X_test, y_test


def test_memory_rejects_over_budget_and_planted_outlier(nme_run):
    cfg, result, X_train, y_train, _, _ = nme_run
    stored = {c: list(v) for c, v in result.store.train_indices.items()}
    assert checks.check_memory(stored, cfg.memory_budget, result.class_order_seen, y_train) == 100
    planted = checks.far_from_class_median(X_train, y_train, 9.0 * cfg.blobs.spread)
    assert planted.sum() > 0
    assert not any(planted[i] for idx in stored.values() for i in idx)

    cls = result.class_order_seen[0]
    spare = next(i for i in np.flatnonzero(y_train == cls) if i not in stored[cls])
    over = {**stored, cls: stored[cls] + [int(spare)]}
    with pytest.raises(checks.CheckError, match="budget|quota"):
        checks.check_memory(over, cfg.memory_budget, result.class_order_seen, y_train)

    # a planted outlier swapped into the store: n=5 must then fail the ordering check
    outlier = int(np.flatnonzero(planted & (y_train == cls))[0])
    swapped = {**stored, cls: [outlier] + stored[cls][1:]}
    checks.check_memory(swapped, cfg.memory_budget, result.class_order_seen, y_train)
    n5 = sum(planted[i] for idx in swapped.values() for i in idx)
    with pytest.raises(checks.CheckError, match="n=5 stored 1"):
        checks.check_outlier_ordering({"diverse_n5": n5, "diverse_n0": 40, "random": 10})

    wrong_label = {**stored, cls: [int(np.flatnonzero(y_train != cls)[0])] + stored[cls][1:]}
    with pytest.raises(checks.CheckError, match="another label"):
        checks.check_memory(wrong_label, cfg.memory_budget, result.class_order_seen, y_train)


def test_accuracy_rejects_more_than_one_row_off(nme_run):
    cfg, result, X_train, y_train, X_test, y_test = nme_run
    W, B = result.model.weights, result.model.biases
    by_class = {c: X_train[np.asarray(v)] for c, v in result.store.train_indices.items()}
    pool = np.isin(y_test, result.class_order_seen)
    acc = checks.nme_accuracy(W, B, X_test[pool], y_test[pool], by_class)
    reported = result.records[-1].accuracy
    rows = int(pool.sum())
    checks.check_accuracy(acc, reported, rows)
    checks.check_accuracy(acc, reported + 1.0 / rows, rows)
    with pytest.raises(checks.CheckError):
        checks.check_accuracy(acc, reported + 2.0 / rows, rows)


def test_metrics_rows_reject_wrong_running_mean_and_low_accuracy():
    rows = [{"accuracy": a, "avg_accuracy": m} for a, m in ((0.9, 0.9), (0.7, 0.8))]
    checks.check_metrics_rows(rows, 0.5)
    with pytest.raises(checks.CheckError, match="running mean"):
        checks.check_metrics_rows([rows[0], {"accuracy": 0.7, "avg_accuracy": 0.7}], 0.5)
    with pytest.raises(checks.CheckError, match="floor"):
        checks.check_metrics_rows(rows, 0.75)


def test_embedding_rejects_bad_shape_nan_and_rising_kl():
    pts = np.zeros((5, 2))
    checks.check_embedding(pts, 5, 2, [3.0, 2.0, 1.0], 2)
    with pytest.raises(checks.CheckError, match="shape"):
        checks.check_embedding(pts, 5, 3, None, 2)
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_embedding(np.full((5, 2), np.nan), 5, 2, None, 2)
    with pytest.raises(checks.CheckError, match="final KL"):
        checks.check_embedding(pts, 5, 2, [3.0, 2.0, 2.5], 2)

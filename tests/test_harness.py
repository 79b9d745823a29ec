import contextlib
import dataclasses
import errno
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench import harness, learner
from cilbench.cli import main as cli_main
from cilbench.data import StreamSpec, TaskBatch, make_blobs, make_stream, pack_cifar_record
from cilbench.errors import ConfigurationError, DataError, DivergenceError
from cilbench.harness import (
    BlobsSpec,
    RunConfig,
    _module_seed,
    ablate_n,
    average_accuracy,
    config_from_dict,
    config_to_dict,
    emit_results,
    evaluate,
    exemplar_class_means,
    load_config,
    load_dataset,
    outlier_benchmark_config,
    run_and_emit,
    run_experiment,
)
from cilbench.learner import MlpModel, TrainConfig, as_features, forward_batch, init_mlp
from cilbench.reduce import TsneConfig
from cilbench.sampler import ExemplarStore, SamplerParams, allocate_quota, random_sample
from helpers import small_config

SRC = Path(__file__).resolve().parents[1] / "src"


class TestAverageAccuracy:
    def test_mean(self):
        assert abs(average_accuracy([0.5, 0.6, 0.7]) - 0.6) < 1e-12

    def test_single(self):
        assert average_accuracy([0.42]) == 0.42

    def test_guards(self):
        with pytest.raises(ConfigurationError):
            average_accuracy([])
        with pytest.raises(ConfigurationError):
            average_accuracy([1.5])


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        ds = make_blobs(BlobsSpec(2, 20, dim=2, spread=0.1, center_box=20.0), 3)
        # constant predictor: all-zero network always yields class 0
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        assert evaluate(zero, ds.X_test, ds.y_test, [0, 1]) == 0.5

    def test_empty_pool(self):
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        with pytest.raises(ConfigurationError):
            evaluate(zero, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), [0, 1])

    def test_nme_requires_means(self):
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        ds = make_blobs(BlobsSpec(2, 10), 0)
        with pytest.raises(ConfigurationError):
            evaluate(zero, ds.X_test, ds.y_test, [0, 1], class_means={})

    # evaluate forwards TrainConfig.batch_size (128) rows at a time
    @pytest.mark.parametrize("n", [20, 128, 256, 257])
    @pytest.mark.parametrize("classifier", ["softmax_head", "nme"])
    def test_chunked_predictions_equal_whole_pool(self, pixel_rows, classifier, n):
        # labels = the predictions of one whole-pool forward, so accuracy 1.0
        # means every chunked prediction equals its whole-pool one
        pool = pixel_rows(n, seed=n)
        model = init_mlp(3072, (32, 16), 5, seed=1)
        logits, acts = forward_batch(model, as_features(pool, np.float64))
        slot_to_class = [7, 3, 9, 1, 4]
        means = {c: acts[-1][i::4].mean(axis=0) for i, c in enumerate([2, 5, 6, 8])}
        if classifier == "nme":
            dist = np.stack([np.linalg.norm(acts[-1] - means[c], axis=1) for c in sorted(means)],
                            axis=1)
            want = np.asarray(sorted(means))[np.argmin(dist, axis=1)]
        else:
            want = np.asarray(slot_to_class)[np.argmax(logits, axis=1)]
        assert len(np.unique(want)) > 1
        means = means if classifier == "nme" else None
        assert evaluate(model, pool, want, slot_to_class, means) == 1.0

    @staticmethod
    def _evaluate_peak(pool, classifier, hidden):
        """tracemalloc peak in bytes of evaluate on pool."""
        y = np.zeros(len(pool), dtype=np.int64)
        model = init_mlp(3072, hidden, 10, seed=2)
        width = model.weights[-1].shape[0]
        means = {c: np.full(width, c / 10) for c in range(10)} if classifier == "nme" else None
        evaluate(model, pool[:10], y[:10], list(range(10)), means)  # numpy's lazy imports
        tracemalloc.start()
        try:
            evaluate(model, pool, y, list(range(10)), means)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # without hidden layers the penultimate features are the scaled rows
    @pytest.mark.parametrize("classifier, hidden", [("softmax_head", (16,)), ("nme", (16,)),
                                                    ("softmax_head", ())],
                             ids=["softmax-hidden-16", "nme-hidden-16", "softmax-no-hidden"])
    def test_peak_memory_below_quarter_of_float64_pool(self, pixel_rows, classifier, hidden):
        # the pool stays bytes: one chunk of rows is scaled at a time
        pool = pixel_rows(1000, seed=0)
        peak = self._evaluate_peak(pool, classifier, hidden)
        limit = pool.size * np.dtype(np.float64).itemsize // 4
        assert peak < limit, f"peak {peak} bytes, a quarter of the float64 pool {limit} bytes"

    # NME without hidden layers takes its distances on scaled rows, which
    # holds three chunk-sized arrays at once: that peak does not grow with
    # the pool either
    @pytest.mark.parametrize("hidden", [(16,), ()], ids=["hidden-16", "no-hidden"])
    @pytest.mark.parametrize("classifier", ["softmax_head", "nme"])
    def test_peak_memory_does_not_grow_with_pool(self, pixel_rows, classifier, hidden):
        pool = pixel_rows(1500, seed=0)
        small = self._evaluate_peak(pool[:500], classifier, hidden)
        large = self._evaluate_peak(pool, classifier, hidden)
        # the predictions and their comparison with y are the only per-row arrays
        per_row = 2 * np.dtype(np.int64).itemsize + np.dtype(bool).itemsize
        assert large - small <= 1000 * per_row, f"peak {small} -> {large} bytes"


class TestRunExperiment:
    def test_record_count_matches_tasks(self):
        result = run_experiment(small_config())
        assert [r.task_index for r in result.records] == [0, 1]

    def test_ten_class_five_tasks(self):
        cfg = small_config(
            blobs=BlobsSpec(num_classes=10, per_class=20, dim=2, spread=0.3),
            stream=StreamSpec(mode="disjoint", classes_per_task=2),
            memory_budget=30,
        )
        result = run_experiment(cfg)
        assert len(result.records) == 5

    def test_budget_never_exceeded(self):
        cfg = small_config()
        result = run_experiment(cfg)
        for rec in result.records:
            assert rec.exemplar_count <= cfg.memory_budget
        assert result.store.total() <= cfg.memory_budget

    def test_stored_classes_track_tasks_in_disjoint_mode(self):
        result = run_experiment(small_config())
        assert set(result.store.train_indices) == set(result.class_order_seen)
        assert len(result.class_order_seen) == 4

    def test_avg_accuracy_column_consistency(self):
        result = run_experiment(small_config())
        accs = [r.accuracy for r in result.records]
        for i, rec in enumerate(result.records):
            assert abs(rec.avg_accuracy - np.mean(accs[: i + 1])) < 1e-9

    def test_determinism_of_records(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.records, b.records):
            assert (ra.task_index, ra.accuracy, ra.avg_accuracy, ra.exemplar_count) == (
                rb.task_index, rb.accuracy, rb.avg_accuracy, rb.exemplar_count
            )
        assert a.store.to_json() == b.store.to_json()

    def test_seed_roles(self, monkeypatch):
        """Each module seed is _module_seed(cfg.seed, role, ...) with the
        roles stream 0, sample 2, train 3 and model 4.  Random selection
        shows the stream and sample seeds in the stored rows."""
        cfg = small_config(sampler_kind="random")
        seeds = {}
        for name in ("init_mlp", "grow_head", "train_task"):
            def recording(*args, _fn=getattr(learner, name), _name=name, **kwargs):
                bound = inspect.signature(_fn).bind(*args, **kwargs)
                seeds.setdefault(_name, []).append(bound.arguments["seed"])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(learner, name, recording)
        result = run_experiment(cfg)

        ds = make_blobs(cfg.blobs, _module_seed(cfg.seed, 0))
        tasks = make_stream(ds, cfg.stream, _module_seed(cfg.seed, 0, 1))
        slots = result.class_order_seen
        final = allocate_quota(cfg.memory_budget, len(slots))
        seen = 0
        for task in tasks:
            labels = ds.y_train[task.example_indices]
            seen += len(np.unique(labels))  # disjoint: every class is new
            quotas = allocate_quota(cfg.memory_budget, seen)
            for cls in np.unique(labels).tolist():
                rows = task.example_indices[labels == cls]
                slot = slots.index(cls)
                picked = random_sample(
                    len(rows), min(quotas[slot], len(rows)),
                    _module_seed(cfg.seed, 2, task.task_index, cls),
                )
                stored = result.store.train_indices[cls].tolist()
                assert stored == rows[picked][: final[slot]].tolist()
        assert seeds == {
            "init_mlp": [_module_seed(cfg.seed, 4)],
            "grow_head": [_module_seed(cfg.seed, 4, t) for t in range(1, len(tasks))],
            "train_task": [_module_seed(cfg.seed, 3, t) for t in range(len(tasks))],
        }

    def test_nme_classifier_path(self):
        cfg = small_config(classifier="nme")
        result = run_experiment(cfg)
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.records)
        means = exemplar_class_means(result.model, load_dataset(cfg).X_train, result.store)
        assert set(means) == set(result.store.train_indices)

    def test_fuzzy_stream_path(self):
        cfg = small_config(
            stream=StreamSpec(mode="fuzzy", classes_per_task=2, fuzz_percent=20),
            train=TrainConfig(epochs=3, batch_size=16),
        )
        result = run_experiment(cfg)
        assert len(result.records) == 2

    @pytest.mark.parametrize("kind", ["diverse", "random"])
    def test_old_class_reappearing_with_one_row_keeps_its_quota(self, monkeypatch, kind):
        """A class that comes back with a single stray row is re-selected from
        that row and the exemplars it keeps, not from the row alone."""
        cfg = small_config(sampler_kind=kind)  # 4 classes of 32 train rows, budget 20
        ds = load_dataset(cfg)
        rows = [np.flatnonzero(ds.y_train == c) for c in range(4)]
        stray = rows[0][-1:]
        tasks = [
            TaskBatch(0, {0, 1}, np.concatenate([rows[0][:-1], rows[1]])),
            TaskBatch(1, {2, 3}, np.concatenate([rows[2], stray, rows[3]])),
        ]
        monkeypatch.setattr(harness, "make_stream", lambda *args: tasks)
        result = run_experiment(cfg, ds)
        held = [len(result.store.train_indices[c]) for c in result.class_order_seen]
        assert result.class_order_seen == [0, 1, 2, 3]
        assert held == allocate_quota(cfg.memory_budget, 4) == [5, 5, 5, 5]
        assert [r.exemplar_count for r in result.records] == [20, 20]
        assert set(result.store.train_indices[0]) <= set(rows[0].tolist())

    def test_row_a_fuzzy_task_drew_twice_is_stored_once(self):
        """A minor row a fuzzy task draws twice when its donors run dry
        enters its class's pool once, so no row is stored twice."""
        base = outlier_benchmark_config("diverse", 5, 2)
        cfg = dataclasses.replace(
            base,
            blobs=dataclasses.replace(base.blobs, num_classes=6, per_class=20),
            stream=StreamSpec("fuzzy", 2, 30),
            memory_budget=200,
            train=TrainConfig(epochs=1, batch_size=32),
        )
        result = run_experiment(cfg)
        assert result.records[2].warnings == [
            "task 2: minor pool exhausted, sampled 2 examples with replacement"
        ]
        stored = np.concatenate(list(result.store.train_indices.values())).tolist()
        assert len(set(stored)) == len(stored) == result.records[-1].exemplar_count == 94

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(sampler_kind="bogus"))
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(dataset="cifar100"))
        with pytest.raises(ConfigurationError):
            # high-dimensional input cannot skip the reducer
            cfg = small_config(
                blobs=BlobsSpec(num_classes=4, per_class=20, dim=8), reducer="none"
            )
            run_experiment(cfg)


class TestPixelBytes:
    """CIFAR rows stored as bytes and scaled per step give the results of
    the float32 matrices the loader used to store."""

    @pytest.fixture(scope="class")
    def cifar_pair(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cifar")
        rng = np.random.default_rng(3)
        # four classes around distinct grey levels
        for name, n in (("train.bin", 64), ("test.bin", 24)):
            (root / name).write_bytes(b"".join(
                pack_cifar_record(0, i % 4, np.clip(
                    rng.normal(40 + 50 * (i % 4), 30, 3072), 0, 255).astype(np.uint8))
                for i in range(n)
            ))
        return root

    @pytest.mark.parametrize("classifier,reducer", [("softmax_head", "pca"), ("nme", "tsne")])
    def test_same_results_as_float_matrices(self, cifar_pair, classifier, reducer):
        cfg = small_config(
            dataset="cifar100", cifar_train_path=str(cifar_pair / "train.bin"),
            cifar_test_path=str(cifar_pair / "test.bin"), classifier=classifier,
            reducer=reducer, hidden_sizes=(16,),
            stream=StreamSpec(mode="disjoint", classes_per_task=2),
        )
        ds = load_dataset(cfg)
        assert ds.X_train.dtype == ds.X_test.dtype == np.uint8
        old = dataclasses.replace(
            ds, X_train=ds.X_train.astype(np.float32) / 255.0,
            X_test=ds.X_test.astype(np.float32) / 255.0,
        )
        new_run, old_run = run_experiment(cfg, ds), run_experiment(cfg, old)

        def fields(records):
            return [dataclasses.replace(r, seconds=0.0) for r in records]

        assert fields(new_run.records) == fields(old_run.records)
        for a, b in zip(new_run.model.weights + new_run.model.biases,
                        old_run.model.weights + old_run.model.biases):
            assert np.array_equal(a, b)
        assert new_run.store.to_json() == old_run.store.to_json()

    @pytest.mark.parametrize("dataset,want", [("cifar100", np.float32), ("blobs", np.float32)])
    def test_every_forward_computes_in_the_features_dtype(
        self, cifar_pair, monkeypatch, dataset, want
    ):
        """Training, the teacher targets and NME evaluation run in float32 on
        both kinds of data: pixel bytes and float64 blob rows."""
        cfg = small_config(
            dataset=dataset, cifar_train_path=str(cifar_pair / "train.bin"),
            cifar_test_path=str(cifar_pair / "test.bin"), classifier="nme", reducer="pca",
            hidden_sizes=(16,),
        )
        calls = {"train": [], "teacher": [], "evaluate": []}
        stage = ["train"]
        forward = learner.forward_batch

        def recording(model, X):
            logits, acts = forward(model, X)
            arrays = [acts[0], *model.weights, *model.biases]
            calls[stage[-1]].append(tuple(a.dtype for a in arrays))
            return logits, acts

        def within(name, fn):
            def wrapped(*args, **kwargs):
                stage.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage.pop()
            return wrapped

        monkeypatch.setattr(learner, "forward_batch", recording)
        monkeypatch.setattr(learner, "teacher_targets", within("teacher", learner.teacher_targets))
        for name in ("evaluate", "exemplar_class_means"):
            monkeypatch.setattr(harness, name, within("evaluate", getattr(harness, name)))
        assert len(run_experiment(cfg).records) == 2
        for stage_calls in calls.values():
            assert stage_calls and set(stage_calls) == {(np.dtype(want),) * 5}


class TestResultFiles:
    def test_emit_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_and_emit(cfg)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "task,accuracy,avg_accuracy,exemplars,seconds"
        assert len(metrics) == 1 + len(result.records)
        cfg_dict = json.loads((tmp_path / "config.json").read_text())
        assert config_from_dict(cfg_dict) == cfg
        dump = json.loads((tmp_path / "exemplars.json").read_text())
        assert dump["budget"] == cfg.memory_budget

    def test_deterministic_outputs(self, tmp_path):
        cfg = small_config()
        for d in ("a", "b"):
            run_and_emit(dataclasses.replace(cfg, out_dir=str(tmp_path / d)))
        assert (tmp_path / "a" / "exemplars.json").read_bytes() == (
            tmp_path / "b" / "exemplars.json"
        ).read_bytes()
        # config.json differs only in the out_dir it records
        configs = [
            (tmp_path / d / "config.json").read_text().replace(str(tmp_path / d), "")
            for d in ("a", "b")
        ]
        assert configs[0] == configs[1]
        # wall-clock is never asserted: compare metrics with seconds masked
        strip = lambda p: [
            ",".join(line.split(",")[:4]) for line in p.read_text().splitlines()
        ]
        assert strip(tmp_path / "a" / "metrics.csv") == strip(
            tmp_path / "b" / "metrics.csv"
        )

    def test_failed_emit_leaves_earlier_files_intact(self, tmp_path, monkeypatch):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_and_emit(cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert "exemplars.json" in before

        def fail(*args, **kwargs):
            raise RuntimeError("emit failed")

        # a failure while building the content, then one while renaming
        for target, name in [(ExemplarStore, "to_json"), (os, "replace")]:
            with monkeypatch.context() as m:
                m.setattr(target, name, fail)
                with pytest.raises(RuntimeError):
                    emit_results(result, cfg, str(tmp_path))
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        fresh = tmp_path / "fresh"
        with monkeypatch.context() as m:
            m.setattr(ExemplarStore, "to_json", fail)
            with pytest.raises(RuntimeError):
                emit_results(result, cfg, str(fresh))
        assert not (fresh / "exemplars.json").exists()
        assert not fresh.exists() or not list(fresh.iterdir())

    def test_failed_write_changes_no_file(self, tmp_path, monkeypatch):
        run_and_emit(small_config(out_dir=str(tmp_path)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other = run_experiment(small_config(seed=1))
        opened = []

        def open_failing_third(path, *args, **kwargs):
            opened.append(path)
            if len(opened) == 3:  # config.json.tmp: the disk is full
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(harness, "open", open_failing_third, raising=False)
        with pytest.raises(OSError):
            emit_results(other, small_config(seed=1), str(tmp_path))
        assert [os.path.basename(p) for p in opened] == [
            "metrics.csv.tmp", "timings.csv.tmp", "config.json.tmp"
        ]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_ablation_rejects_a_repeated_value_or_seed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        cfg = small_config(out_dir=str(tmp_path / "abl"))
        for values, seeds in [([0, 0], [1]), ([0, 2], [1, 1])]:
            with pytest.raises(ConfigurationError, match="repeat"):
                ablate_n(cfg, values, seeds)
        assert not (tmp_path / "abl").exists()

    def test_failed_ablation_write_keeps_earlier_csv(self, tmp_path, monkeypatch):
        cfg = small_config(train=TrainConfig(epochs=2, batch_size=16), out_dir=str(tmp_path))
        ablate_n(cfg, [0], [1])
        before = (tmp_path / "ablation.csv").read_bytes()

        def fail(*args, **kwargs):
            raise RuntimeError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(RuntimeError):
            ablate_n(cfg, [0, 2], [1])
        assert (tmp_path / "ablation.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ablation.csv"]

    @pytest.mark.parametrize(
        "cfg",
        [
            small_config(classifier="nme", reducer="pca"),
            # every tuple field and every nullable field set
            small_config(
                dataset="cifar100", reducer="pca", hidden_sizes=(),
                cifar_train_path="train.bin", cifar_test_path="test.bin",
                blobs=BlobsSpec(num_classes=4, center_box=12.5, outlier_reach=(15.0, 30.0)),
                stream=StreamSpec(mode="fuzzy", classes_per_task=2, fuzz_percent=20,
                                  class_order=(3, 1, 0, 2)),
            ),
        ],
        ids=["defaults", "all-set"],
    )
    def test_config_round_trip(self, cfg):
        cfg.validate()
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_tsne_keys(self):
        # the descent's step rule is fixed in reduce.py, not configured
        assert sorted(config_to_dict(RunConfig())["tsne"]) == [
            "exaggeration_iters", "iterations", "perplexity",
        ]


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        code = cli_main(["run", "--config", self.write_config(tmp_path, cfg)])
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "task 1" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg = small_config()
        path = self.write_config(tmp_path, cfg)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["run", "--config", path, "--out", out_a, "--seed", "99"]) == 0
        assert cli_main(["run", "--config", path, "--out", out_b, "--seed", "100"]) == 0
        read = lambda d: (tmp_path / d / "exemplars.json").read_text()
        assert read("a") != read("b")

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        cfg_dict = config_to_dict(small_config())
        cfg_dict["sampler_kind"] = "bogus"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg_dict))
        assert cli_main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"blobs": {"bogus": 1}},
            {"sampler_params": {"m": 1, "n": "5"}},
            {"stream": {"mode": "disjoint", "classes_per_task": "2"}},
            {"memory_budget": 3},  # below the 4 classes of small_config
            {"seed": -1},
            {"seed": "x"},
            {"hidden_sizes": [0]},
            {"hidden_sizes": [-1]},
            {"blobs": {"spread": -1.0}},
            {"reduce_dim": "2"},
            {"reduce_dim": 0},
            {"blobs": {"dim": 0}},
            {"tsne": {"learning_rate": -200.0}},
            {"tsne": {"momentum_final": 5.0}},
            {"train": {"momentum": 1.0}},
            {"train": {"momentum": 5.0}},
            # seeds and the t-SNE dimension are derived, not configured
            {"stream": {"mode": "disjoint", "classes_per_task": 2, "seed": 3}},
            {"train": {"seed": 3}},
            {"tsne": {"seed": 3}},
            {"tsne": {"target_dim": 3}},
            {"tsne": {"init": "random"}},
            # the t-SNE step rule is fixed, even at its own values
            {"tsne": {"learning_rate": 200.0}},
            {"tsne": {"early_exaggeration": 12.0}},
            {"tsne": {"momentum_start": 0.5}},
            {"tsne": {"momentum_final": 0.8}},
            {"tsne": {"momentum_switch_iter": 250}},
            {"stream": {"mode": "fuzzy", "classes_per_task": 2, "fuzz_percent": 0}},
            # Gonzalez's k-center is sampler_kind "diverse" with n=0
            {"sampler_kind": "gonzalez"},
            {"blobs": {"num_classes": 1}},
            # the evaluation pool of a CIFAR run comes from its test file
            {"dataset": "cifar100", "cifar_train_path": "train.bin", "reducer": "pca"},
            # a spec is checked whether or not the dataset uses it
            {"dataset": "cifar100", "cifar_train_path": "train.bin",
             "cifar_test_path": "test.bin", "reducer": "pca", "blobs": {"spread": -1.0}},
            {"reducer": "umap"},
            # a reducer cannot add dimensions the 2-D blobs do not have
            {"reducer": "tsne", "reduce_dim": 3},
            {"reducer": "pca", "reduce_dim": 3},
        ],
        ids=["unknown-field", "wrong-type", "stream-wrong-type", "budget-below-classes",
             "negative-seed", "seed-wrong-type", "zero-hidden", "negative-hidden",
             "negative-spread", "reduce-dim-wrong-type", "zero-reduce-dim", "zero-dim",
             "tsne-negative-lr", "tsne-momentum-above-one", "train-momentum-one",
             "train-momentum-above-one", "stream-seed", "train-seed",
             "tsne-seed", "tsne-target-dim", "tsne-init", "tsne-learning-rate",
             "tsne-early-exaggeration", "tsne-momentum-start", "tsne-momentum-final",
             "tsne-momentum-switch-iter", "fuzzy-zero-fuzz",
             "sampler-gonzalez", "blobs-one-class", "cifar-without-test-path",
             "cifar-negative-blobs-spread", "reducer-umap", "tsne-dim-above-width",
             "pca-dim-above-width"],
    )
    def test_bad_config_exits_before_training(self, tmp_path, monkeypatch, override):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        cfg_dict = {**config_to_dict(small_config(out_dir=str(out))), **override}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg_dict))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("reducer", ["tsne", "pca"])
    def test_reduce_dim_up_to_the_input_width_accepted(self, reducer):
        small_config(reducer=reducer, reduce_dim=2).validate()
        cifar = small_config(dataset="cifar100", cifar_train_path="train.bin",
                             cifar_test_path="test.bin", reducer=reducer)
        dataclasses.replace(cifar, reduce_dim=3072).validate()
        with pytest.raises(ConfigurationError, match="3072"):
            dataclasses.replace(cifar, reduce_dim=3073).validate()
        # without a reducer reduce_dim is not used
        small_config(reducer="none", reduce_dim=3).validate()

    @pytest.mark.parametrize("content", [None, "dir", b"\xff\xfe", b"[" * 100_000],
                             ids=["missing", "directory", "not-utf8", "nested-too-deep"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content == "dir":
            path.mkdir()
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "ablate-n"])
    def test_missing_cifar_file_exits_3_before_training(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        missing = tmp_path / "train.bin"
        cfg = small_config(
            dataset="cifar100", reducer="pca", out_dir=str(out),
            cifar_train_path=str(missing), cifar_test_path=str(missing),
        )
        assert cli_main([command, "--config", self.write_config(tmp_path, cfg)]) == 3
        assert capsys.readouterr().err == f"data error: {missing}: No such file or directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate-n"])
    def test_uncreatable_out_dir_exits_2_before_training(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        path = self.write_config(tmp_path, small_config())
        assert cli_main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path, monkeypatch):
        monkeypatch.setattr(learner, "train_task", mock.Mock(side_effect=DivergenceError(0)))
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "new" / "deeper"
        path = self.write_config(tmp_path, small_config())
        assert cli_main(["run", "--config", path, "--out", str(out)]) == 4
        assert [p.name for p in (tmp_path / "kept").iterdir()] == []

    def test_divergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(
            out_dir=str(out),
            train=TrainConfig(epochs=6, batch_size=16, learning_rate=1e300, momentum=0.9),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["run", "--config", self.write_config(tmp_path, cfg)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("training diverged: non-finite loss at epoch")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_divergence_after_first_task_keeps_finished_tasks(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        cfg = small_config(out_dir=str(out))
        path = self.write_config(tmp_path, cfg)
        assert cli_main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
        full_rows = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        capsys.readouterr()

        train_task, calls = learner.train_task, []

        def diverge_on_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DivergenceError(3)
            return train_task(*args, **kwargs)

        monkeypatch.setattr(learner, "train_task", diverge_on_second_call)
        assert cli_main(["run", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err == "training diverged: non-finite loss at epoch 3\n"
        # the four result files and no .tmp left behind
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "exemplars.json", "metrics.csv", "timings.csv"
        ]
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 2
        masked = lambda row: row.rsplit(",", 1)[0]  # drop the seconds column
        assert masked(rows[1]) == masked(full_rows[1])
        assert len((out / "timings.csv").read_text().splitlines()) == 2
        assert config_from_dict(json.loads((out / "config.json").read_text())) == cfg
        # memory as it stood after task 0: its two classes only
        stored = json.loads((out / "exemplars.json").read_text())["classes"]
        assert len(stored) == 2
        assert sum(len(c["indices_into_train"]) for c in stored) == int(rows[1].split(",")[3])
        ds = load_dataset(cfg)
        tasks = harness._checked_stream(cfg, ds)
        with contextlib.closing(harness.memory_steps(cfg, ds, tasks)) as steps:
            next(steps)
            task_0_store, _warnings = next(steps)
        assert (out / "exemplars.json").read_bytes() == task_0_store.to_json().encode()

    def test_data_error_exit_code(self, tmp_path):
        truncated = tmp_path / "bad.bin"
        truncated.write_bytes(b"\x01\x02\x03")
        # 60 well-formed records labelled 0, 2 and 4: classes 1 and 3 are empty
        gaps = tmp_path / "gaps.bin"
        rng = np.random.default_rng(0)
        gaps.write_bytes(b"".join(
            pack_cifar_record(0, 2 * (i % 3), rng.integers(0, 256, 3072, dtype=np.uint8))
            for i in range(60)
        ))
        out = tmp_path / "out"
        for bad_bin in (truncated, gaps):
            cfg = dataclasses.replace(
                small_config(), dataset="cifar100", cifar_train_path=str(bad_bin),
                cifar_test_path=str(gaps), reducer="pca",
                stream=StreamSpec(mode="disjoint", classes_per_task=1), out_dir=str(out),
            )
            assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 3
            assert not out.exists()

    def test_distance_overflow_exits_3_before_training(self, tmp_path, monkeypatch, capsys):
        # rows with a common offset near 1e155 pass the centred PCA start but
        # overflow the t-SNE distances, which are set up before task 0 trains
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        cfg = small_config(
            out_dir=str(out), reducer="tsne", tsne=TsneConfig(iterations=20),
            blobs=BlobsSpec(num_classes=4, per_class=40, dim=2, spread=1e151, center_box=1e155),
        )
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 3
        assert "the t-SNE squared distances overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_test_split_without_first_task_classes_exits_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        rng = np.random.default_rng(0)

        def write(path, labels):
            path.write_bytes(b"".join(
                pack_cifar_record(0, c, rng.integers(0, 256, 3072, dtype=np.uint8))
                for c in labels
            ))
            return str(path)

        out = tmp_path / "out"
        cfg = dataclasses.replace(
            small_config(), dataset="cifar100", reducer="pca", out_dir=str(out),
            cifar_train_path=write(tmp_path / "train.bin", [0, 1, 2, 3] * 10),
            # the first task holds classes 0 and 1; the test file has neither
            cifar_test_path=write(tmp_path / "test.bin", [2, 3] * 5),
            stream=StreamSpec(mode="disjoint", classes_per_task=2, class_order=(0, 1, 2, 3)),
        )
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 3
        assert "no test rows of the first task's classes [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_checks_every_seeds_test_split_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        rng = np.random.default_rng(0)

        def write(path, labels):
            path.write_bytes(b"".join(
                pack_cifar_record(0, c, rng.integers(0, 256, 3072, dtype=np.uint8))
                for c in labels
            ))
            return str(path)

        out = tmp_path / "abl"
        cfg = dataclasses.replace(
            small_config(), dataset="cifar100", reducer="pca", out_dir=str(out),
            cifar_train_path=write(tmp_path / "train.bin", [0, 1, 2, 3] * 10),
            # seed 0's first task holds class 0, seed 1's does not
            cifar_test_path=write(tmp_path / "test.bin", [0] * 5),
            stream=StreamSpec(mode="disjoint", classes_per_task=2),
        )
        path = self.write_config(tmp_path, cfg)
        code = cli_main(["ablate-n", "--config", path, "--values", "0,2", "--seeds", "0,1"])
        assert code == 3
        assert "no test rows of the first task's classes [1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--values", "a,b"], ["--values", ""], ["--seeds", "x"],
         ["--values", "0,-1"], ["--seeds", "1,-1"], ["--values", "0,0"], ["--seeds", "1,1"]],
        ids=["values-not-ints", "values-empty", "seeds-not-ints", "negative-n",
             "negative-seed", "repeated-n", "repeated-seed"],
    )
    def test_bad_ablation_exits_2_before_training(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "abl"
        path = self.write_config(tmp_path, small_config(out_dir=str(out)))
        try:  # argparse exits on a malformed list; a bad value is returned
            code = cli_main(["ablate-n", "--config", path, *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate-n"])
    def test_one_task_fuzzy_stream_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # a single task has no other class to take its minor rows from
        monkeypatch.setattr(learner, "train_task", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        cfg = dataclasses.replace(
            outlier_benchmark_config(), stream=StreamSpec("fuzzy", 10, 10), out_dir=str(out)
        )
        assert cli_main([command, "--config", self.write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "two tasks" in err[0]
        assert not out.exists()

    def test_ablate_n(self, tmp_path, capsys):
        cfg = small_config(out_dir=str(tmp_path / "abl"))
        code = cli_main(
            ["ablate-n", "--config", self.write_config(tmp_path, cfg),
             "--values", "0,2", "--seeds", "1,2"]
        )
        assert code == 0
        rows = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
        assert rows[0] == "n,seed,avg_accuracy"
        assert len(rows) == 5

    def test_verify_command(self, capsys):
        assert cli_main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Under a multi-threaded BLAS the fork predicate is false; these tests force
# it, and Python >= 3.12 warns on a fork of a process with threads
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
class TestForkedDescent:
    """A task's t-SNE descents run in a forked child while it trains, with
    the results of descents run in this process."""

    @staticmethod
    def tsne_config(**overrides):
        return small_config(reducer="tsne", tsne=TsneConfig(iterations=60), **overrides)

    @staticmethod
    def run(monkeypatch, cfg, out_dir, fork, dataset=None):
        """run_experiment and emit_results with the fork predicate forced;
        returns the result, the embeddings tsne_reduce returned and the
        number of forks."""
        embeddings, forks = [], []
        tsne_reduce, real_fork = harness.tsne_reduce, os.fork

        def recording(*args, **kwargs):
            embeddings.append(tsne_reduce(*args, **kwargs))
            return embeddings[-1]

        def counting_fork():
            forks.append(None)
            return real_fork()

        with monkeypatch.context() as m:
            m.setattr(harness, "_fork_pays", lambda: fork)
            m.setattr(harness, "tsne_reduce", recording)
            m.setattr(os, "fork", counting_fork)
            result = run_experiment(cfg, dataset)
        emit_results(result, cfg, str(out_dir))
        return result, embeddings, len(forks)

    @staticmethod
    def files(out_dir):
        masked = [line.rsplit(",", 1)[0]
                  for line in (out_dir / "metrics.csv").read_text().splitlines()]
        return (out_dir / "exemplars.json").read_bytes(), masked

    def test_forked_equals_in_process(self, tmp_path, monkeypatch):
        cfg = self.tsne_config()
        _, here, here_forks = self.run(monkeypatch, cfg, tmp_path / "here", fork=False)
        _, child, child_forks = self.run(monkeypatch, cfg, tmp_path / "child", fork=True)
        _no_child_left()
        assert (here_forks, child_forks) == (0, 2)  # one child per task
        assert self.files(tmp_path / "here") == self.files(tmp_path / "child")
        assert len(here) == len(child) == 4
        for a, b in zip(here, child):
            assert a.pending is None and b.pending is None
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.kl_trace, b.kl_trace, equal_nan=True)

    def test_small_class_keeps_fallback_warning(self, tmp_path, monkeypatch):
        cfg = self.tsne_config()
        ds = load_dataset(cfg)
        # class 1, in task 0 with class 0 or in task 1, keeps 3 training rows
        keep = (ds.y_train != 1) | (np.cumsum(ds.y_train == 1) <= 3)
        ds = dataclasses.replace(ds, X_train=ds.X_train[keep], y_train=ds.y_train[keep])
        runs = [self.run(monkeypatch, cfg, tmp_path / str(fork), fork, ds)
                for fork in (False, True)]
        _no_child_left()
        assert runs[1][2] == 2
        for result, embeddings, _ in runs:
            warned = [w for r in result.records for w in r.warnings]
            assert warned == ["class 1: N=3 < 4: fell back to PCA"]
            assert sum(emb.kl_trace is None for emb in embeddings) == 1
        assert self.files(tmp_path / "False") == self.files(tmp_path / "True")

    def test_random_run_sets_up_no_embedding(self, tmp_path, monkeypatch):
        # the random sampler reads only a pool's length: no t-SNE, no fork
        cfg = self.tsne_config(sampler_kind="random")
        _, embeddings, forks = self.run(monkeypatch, cfg, tmp_path / "tsne", fork=True)
        assert (embeddings, forks) == ([], 0)
        none = dataclasses.replace(cfg, reducer="none")
        self.run(monkeypatch, none, tmp_path / "none", fork=True)
        assert self.files(tmp_path / "tsne") == self.files(tmp_path / "none")

    write_config = TestCli.write_config

    def test_divergence_in_task_1_kills_the_child_and_keeps_task_0(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        path = self.write_config(tmp_path, self.tsne_config(out_dir=str(out)))
        train_task, calls = learner.train_task, []

        def diverge_in_task_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DivergenceError(3)
            return train_task(*args, **kwargs)

        monkeypatch.setattr(learner, "train_task", diverge_in_task_1)
        monkeypatch.setattr(harness, "_fork_pays", lambda: True)
        assert cli_main(["run", "--config", path]) == 4
        _no_child_left()
        assert capsys.readouterr().err == "training diverged: non-finite loss at epoch 3\n"
        assert len((out / "metrics.csv").read_text().splitlines()) == 2
        assert len(json.loads((out / "exemplars.json").read_text())["classes"]) == 2

    def test_divergence_kills_the_child_while_its_traceback_lives(self, monkeypatch):
        # the traceback keeps run_experiment's frame, and with it the
        # suspended memory_steps, alive: the child must be gone regardless
        def diverge(*args, **kwargs):
            raise DivergenceError(3)

        monkeypatch.setattr(learner, "train_task", diverge)
        monkeypatch.setattr(harness, "_fork_pays", lambda: True)
        with pytest.raises(DivergenceError):
            run_experiment(self.tsne_config())
        _no_child_left()

    def test_data_error_in_the_child_exits_3(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        path = self.write_config(tmp_path, self.tsne_config(out_dir=str(out)))
        parent = os.getpid()

        def diverge(emb):
            assert os.getpid() != parent  # raised in the child, re-raised here
            raise DataError("t-SNE diverged to non-finite coordinates")

        monkeypatch.setattr(harness, "tsne_descent", diverge)
        monkeypatch.setattr(harness, "_fork_pays", lambda: True)
        assert cli_main(["run", "--config", path]) == 3
        _no_child_left()
        assert capsys.readouterr().err == "data error: t-SNE diverged to non-finite coordinates\n"
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="the descents fork only with two usable cores")
    def test_single_thread_blas_process_forks(self, tmp_path, monkeypatch):
        # with one BLAS thread the process has one thread, so the real
        # predicate forks; its files equal those of descents run in process
        cfg = self.tsne_config(out_dir=str(tmp_path / "child"))
        script = (
            "import os, sys\n"
            "from cilbench import cli\n"
            "forks, real_fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or real_fork()\n"
            "code = cli.main(['run', '--config', sys.argv[1]])\n"
            "sys.exit(code or (len(forks) != 2))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script, self.write_config(tmp_path, cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        self.run(monkeypatch, cfg, tmp_path / "here", fork=False)
        assert self.files(tmp_path / "here") == self.files(tmp_path / "child")


# ---------------------------------------------------------------------------
# Config fuzzing


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def _field_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


BASE_CONFIG = json.loads(json.dumps(config_to_dict(small_config())))
FIELD_PATHS = sorted(_field_paths(BASE_CONFIG))
# fields whose default is null, with the JSON kinds they take otherwise
NULLABLE = {
    ("cifar_train_path",): {"str"},
    ("cifar_test_path",): {"str"},
    ("blobs", "center_box"): {"int", "number"},
    ("stream", "class_order"): {"list"},
}


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "number" if math.isfinite(value) else "non-finite"
    return {type(None): "null", str: "str", list: "list", dict: "object"}[type(value)]


def _accepted_kinds(path) -> set[str]:
    """The JSON kinds a field takes, read off the kind of its default."""
    if path in NULLABLE:
        return {"null"} | NULLABLE[path]
    default = BASE_CONFIG
    for key in path:
        default = default[key]
    kind = _json_kind(default)
    return {"int", "number"} if kind == "number" else {kind}


def _with_override(path, value) -> dict:
    d = json.loads(json.dumps(BASE_CONFIG))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


class TestConfigFuzz:
    """Arbitrary JSON in a config reaches no training: config_from_dict and
    RunConfig.validate either accept it or raise ConfigurationError."""

    @given(path=st.sampled_from(FIELD_PATHS) | st.tuples(st.text(max_size=6)), value=JSON_VALUES)
    @example(path=("train", "learning_rate"), value=10**400)  # beyond float range
    @settings(max_examples=400, deadline=None)
    def test_only_configuration_error_escapes(self, path, value):
        with mock.patch.object(learner, "train_task", side_effect=AssertionError("trained")):
            try:
                config_from_dict(_with_override(path, value)).validate()
            except ConfigurationError:
                pass

    @given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_wrong_kind_exits_2_before_training(self, path, value):
        if _json_kind(value) in _accepted_kinds(path):
            return
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            d = _with_override(path, value)
            d["out_dir"] = out if path != ("out_dir",) else value
            cfg_path = os.path.join(tmp, "bad.json")
            with open(cfg_path, "w") as fh:
                json.dump(d, fh)
            with mock.patch.object(learner, "train_task", side_effect=AssertionError("trained")):
                assert cli_main(["run", "--config", cfg_path]) == 2
            assert not os.path.exists(out)

import dataclasses
import json

import numpy as np
import pytest

from cilbench.cli import main as cli_main
from cilbench.data import StreamSpec, make_blobs
from cilbench.errors import ConfigurationError
from cilbench.harness import (
    BlobsSpec,
    RunConfig,
    average_accuracy,
    config_from_dict,
    config_to_dict,
    emit_results,
    evaluate,
    exemplar_class_means,
    load_config,
    load_dataset,
    run_and_emit,
    run_experiment,
)
from cilbench.learner import MlpModel, TrainConfig
from cilbench.sampler import SamplerParams


def small_config(**overrides) -> RunConfig:
    base = dict(
        dataset="blobs",
        blobs=BlobsSpec(num_classes=4, per_class=40, dim=2, spread=0.3,
                        outlier_fraction=0.1),
        stream=StreamSpec(mode="disjoint", classes_per_task=2),
        sampler_kind="diverse",
        sampler_params=SamplerParams(m=1, n=2, r0=0.5),
        reducer="none",
        memory_budget=20,
        train=TrainConfig(epochs=6, batch_size=16, learning_rate=0.05, momentum=0.9),
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


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
        ds = make_blobs(2, 20, dim=2, spread=0.1, seed=3, center_box=20.0)
        # constant predictor: all-zero network always yields class 0
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        assert evaluate(zero, ds.X_test, ds.y_test) == 0.5

    def test_empty_pool(self):
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        with pytest.raises(ConfigurationError):
            evaluate(zero, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_nme_requires_means(self):
        zero = MlpModel(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        ds = make_blobs(2, 10, seed=0)
        with pytest.raises(ConfigurationError):
            evaluate(zero, ds.X_test, ds.y_test, classifier="nme")


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


class TestResultFiles:
    def test_emit_files(self, tmp_path):
        cfg = small_config()
        result = run_and_emit(cfg, str(tmp_path))
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "task,accuracy,avg_accuracy,exemplars,seconds"
        assert len(metrics) == 1 + len(result.records)
        cfg_dict = json.loads((tmp_path / "config.json").read_text())
        assert config_from_dict(cfg_dict) == cfg
        dump = json.loads((tmp_path / "exemplars.json").read_text())
        assert dump["budget"] == cfg.memory_budget

    def test_deterministic_outputs(self, tmp_path):
        cfg = small_config()
        run_and_emit(cfg, str(tmp_path / "a"))
        run_and_emit(cfg, str(tmp_path / "b"))
        for name in ("config.json", "exemplars.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        # wall-clock is never asserted: compare metrics with seconds masked
        strip = lambda p: [
            ",".join(line.split(",")[:4]) for line in p.read_text().splitlines()
        ]
        assert strip(tmp_path / "a" / "metrics.csv") == strip(
            tmp_path / "b" / "metrics.csv"
        )

    def test_config_round_trip(self):
        cfg = small_config(classifier="nme", reducer="pca")
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


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
        [{"blobs": {"bogus": 1}}, {"sampler_params": {"m": 1, "n": "5"}}],
        ids=["unknown-field", "wrong-type"],
    )
    def test_bad_config_exits_before_training(self, tmp_path, override):
        out = tmp_path / "out"
        cfg_dict = {**config_to_dict(small_config(out_dir=str(out))), **override}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg_dict))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        bad_bin = tmp_path / "bad.bin"
        bad_bin.write_bytes(b"\x01\x02\x03")
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg, dataset="cifar100", cifar_train_path=str(bad_bin), reducer="pca"
        )
        assert cli_main(["run", "--config", self.write_config(tmp_path, cfg)]) == 3

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
        assert out.count("PASS") == 3

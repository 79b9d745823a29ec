"""The benchmark's three workloads: inputs made from the workload seed.

Each workload writes its experiment configs as JSON (the form `cilbench
run --config` reads) and, for cifar-fuzzy, CIFAR-100-format binary
files, and describes what the checks need to know about them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from cilbench.data import StreamSpec, pack_cifar_record
from cilbench.harness import BlobsSpec, RunConfig, config_to_dict, outlier_benchmark_config
from cilbench.learner import TrainConfig
from cilbench.sampler import SamplerParams

# CIFAR-shaped input: all 100 fine labels, rows per class in each split
CIFAR_TRAIN_PER_CLASS = 25
CIFAR_TEST_PER_CLASS = 10
CIFAR_PIXEL_NOISE = 40.0  # std of per-pixel noise around the class prototype, in byte units
OUTLIER_SHARE = 0.1


@dataclass
class Experiment:
    label: str  # e.g. "diverse-n5-s3"
    config_path: str
    kind: str  # "diverse_n5", "diverse_n0" or "random": the outlier-ordering group key
    group: int  # experiments of one group are compared by check_outlier_ordering
    acc_floor: float | None  # None for the n=0 control


@dataclass
class Inputs:
    experiments: list[Experiment]
    # rows per task, counted from the inputs: every class has the same row count
    task_rows: int
    epochs: int
    reduce_dim: int
    expected_calls: list[str]
    check_outlier_ordering: bool = False
    # planted outliers of blobs sit >= 10 spreads from the class centre
    outlier_distance: float | None = None
    # cifar-fuzzy only: the bench's own copy of what it wrote
    train_labels: np.ndarray | None = None
    train_outlier: np.ndarray | None = None
    test_pixels: np.ndarray | None = None
    test_labels: np.ndarray | None = None


COMMON_CALLS = [
    "data.make_stream",
    "learner.train_task",
    "learner.forward_batch",
    "learner.snapshot_teacher",
    "sampler.diverse_sample",
    "harness.run_experiment",
    "harness.evaluate",
    "harness.emit_results",
]


def _write_config(cfg: RunConfig, root: str, label: str) -> str:
    path = os.path.join(root, "configs", label + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
    return path


def outlier_grid(seed: int, root: str) -> Inputs:
    """outlier_benchmark_config x {diverse n=5, diverse n=0, random} over
    five experiment seeds 5*seed .. 5*seed+4 (seed 0 gives seeds 0-4)."""
    experiments = []
    for rep in range(5):
        run_seed = 5 * seed + rep
        for kind, n in (("diverse", 5), ("diverse", 0), ("random", 0)):
            label = f"{kind}-n{n}-s{run_seed}"
            cfg = outlier_benchmark_config(kind, n, run_seed)
            cfg = dataclasses.replace(cfg, out_dir=os.path.join(root, "runs", label))
            key = "random" if kind == "random" else f"diverse_n{n}"
            floor = None if key == "diverse_n0" else 0.4
            experiments.append(Experiment(label, _write_config(cfg, root, label), key, rep, floor))
    b = cfg.blobs
    return Inputs(
        experiments=experiments,
        task_rows=int(b.per_class * 0.8) * cfg.stream.classes_per_task,
        epochs=cfg.train.epochs,
        reduce_dim=cfg.reduce_dim,
        expected_calls=COMMON_CALLS + [
            "data.make_blobs", "sampler.random_sample", "harness.exemplar_class_means",
        ],
        check_outlier_ordering=True,
        outlier_distance=9.0 * b.spread,
    )


def tsne_blobs(seed: int, root: str) -> Inputs:
    """One 32-D blob experiment through the default exact t-SNE reducer."""
    cfg = RunConfig(
        dataset="blobs",
        blobs=BlobsSpec(num_classes=10, per_class=200, dim=32, outlier_fraction=OUTLIER_SHARE),
        stream=StreamSpec(mode="disjoint", classes_per_task=2),
        sampler_kind="diverse",
        sampler_params=SamplerParams(m=1, n=5),
        reducer="tsne",
        classifier="softmax_head",
        out_dir=os.path.join(root, "runs", "tsne"),
        seed=seed,
    )
    b = cfg.blobs
    return Inputs(
        experiments=[Experiment("tsne", _write_config(cfg, root, "tsne"), "diverse_n5", 0, 0.5)],
        task_rows=int(b.per_class * 0.8) * cfg.stream.classes_per_task,
        epochs=cfg.train.epochs,
        reduce_dim=cfg.reduce_dim,
        expected_calls=COMMON_CALLS + [
            "data.make_blobs", "reduce.tsne_reduce", "reduce.joint_affinities",
            "reduce.kl_divergence_and_grad", "reduce.pca_reduce",
        ],
        outlier_distance=9.0 * b.spread,
    )


def _cifar_split(rng, prototypes: np.ndarray, per_class: int):
    """Prototype plus pixel noise per row; the first 10% of each class's rows
    are replaced by uniform-noise images (the planted outliers)."""
    n_classes, width = prototypes.shape
    n_out = int(round(OUTLIER_SHARE * per_class))
    pixels = np.empty((n_classes * per_class, width), dtype=np.uint8)
    for c in range(n_classes):
        rows = prototypes[c] + rng.normal(0.0, CIFAR_PIXEL_NOISE, size=(per_class, width))
        rows[:n_out] = rng.integers(0, 256, size=(n_out, width))
        pixels[c * per_class : (c + 1) * per_class] = np.clip(np.rint(rows), 0, 255)
    labels = np.arange(n_classes).repeat(per_class)
    outlier = np.tile(np.arange(per_class) < n_out, n_classes)
    return pixels, labels, outlier


def _write_cifar(path: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"".join(
            pack_cifar_record(int(c) // 5, int(c), row) for row, c in zip(pixels, labels)
        ))


def cifar_fuzzy(seed: int, root: str) -> Inputs:
    """CIFAR-100-format files from the workload seed, run as a fuzzy stream.

    Rows are written class by class, so the program's class layout (and
    with its fixed config seed, the stream it draws) is the same for every
    workload seed; only the pixels change.
    """
    rng = np.random.default_rng([seed, 0xC1FA])
    prototypes = rng.integers(0, 256, size=(100, 3072)).astype(np.float64)
    train_px, train_y, train_out = _cifar_split(rng, prototypes, CIFAR_TRAIN_PER_CLASS)
    test_px, test_y, _ = _cifar_split(rng, prototypes, CIFAR_TEST_PER_CLASS)
    os.makedirs(os.path.join(root, "inputs"), exist_ok=True)
    train_path = os.path.join(root, "inputs", "train.bin")
    test_path = os.path.join(root, "inputs", "test.bin")
    _write_cifar(train_path, train_px, train_y)
    _write_cifar(test_path, test_px, test_y)
    cfg = RunConfig(
        dataset="cifar100",
        cifar_train_path=train_path,
        cifar_test_path=test_path,
        stream=StreamSpec(mode="fuzzy", classes_per_task=10, fuzz_percent=10),
        sampler_kind="diverse",
        sampler_params=SamplerParams(m=1, n=5),
        reducer="pca",
        memory_budget=1000,
        train=TrainConfig(epochs=3, batch_size=64, learning_rate=0.05, momentum=0.9),
        classifier="softmax_head",
        out_dir=os.path.join(root, "runs", "cifar"),
        seed=0,
    )
    return Inputs(
        experiments=[Experiment("cifar", _write_config(cfg, root, "cifar"), "diverse_n5", 0, 0.5)],
        task_rows=CIFAR_TRAIN_PER_CLASS * cfg.stream.classes_per_task,
        epochs=cfg.train.epochs,
        reduce_dim=cfg.reduce_dim,
        expected_calls=COMMON_CALLS + ["data.load_cifar100", "reduce.pca_reduce"],
        train_labels=train_y,
        train_outlier=train_out,
        test_pixels=test_px,
        test_labels=test_y,
    )


WORKLOADS = {
    "outlier-grid": outlier_grid,
    "tsne-blobs": tsne_blobs,
    "cifar-fuzzy": cifar_fuzzy,
}

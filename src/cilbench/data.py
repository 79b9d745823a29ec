"""Datasets and class-incremental task streams.

Two data sources are supported: the CIFAR-100 binary format and seeded
synthetic Gaussian blobs (optionally with planted outliers).  A dataset
is partitioned into a sequence of tasks either with disjoint class sets
or in "fuzzy" mode, where a fixed percentage of each task's examples
comes from classes that define other tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

CIFAR_RECORD_BYTES = 3074
CIFAR_PIXELS = 3072
CIFAR_NUM_CLASSES = 100


@dataclass
class LabeledExample:
    features: np.ndarray
    label: int


@dataclass
class Dataset:
    """Features as (rows, dim) matrices and labels as int arrays, per split.

    Everything downstream of loading refers to training rows by their
    index into X_train.  CIFAR features are the file's pixel bytes
    (uint8); learner.as_features scales the rows of one forward pass.
    """

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    dim: int

    # Per-row views of the stored rows for readers that predate the arrays;
    # cilbench itself never builds them.
    @property
    def train(self) -> list[LabeledExample]:
        return [LabeledExample(x, int(c)) for x, c in zip(self.X_train, self.y_train)]

    @property
    def test(self) -> list[LabeledExample]:
        return [LabeledExample(x, int(c)) for x, c in zip(self.X_test, self.y_test)]


@dataclass(frozen=True)
class StreamSpec:
    mode: str  # "disjoint" or "fuzzy"
    classes_per_task: int
    fuzz_percent: int = 0
    class_order: tuple[int, ...] | None = None

    def validate(self, num_classes: int | None = None) -> None:
        """Check the fields; given the dataset's class count, also check
        the fields against it."""
        if self.mode not in ("disjoint", "fuzzy"):
            raise ConfigurationError(f"unknown stream mode {self.mode!r}")
        if self.classes_per_task < 1:
            raise ConfigurationError("classes_per_task must be >= 1")
        if self.mode == "disjoint" and self.fuzz_percent != 0:
            raise ConfigurationError("disjoint mode requires fuzz_percent == 0")
        if self.mode == "fuzzy" and not 0 < self.fuzz_percent < 100:
            raise ConfigurationError("fuzzy mode requires 0 < fuzz_percent < 100")
        if num_classes is not None and num_classes % self.classes_per_task != 0:
            raise ConfigurationError(
                f"{num_classes} classes not divisible by "
                f"classes_per_task={self.classes_per_task}"
            )
        if self.class_order is not None:
            n = len(self.class_order) if num_classes is None else num_classes
            if sorted(self.class_order) != list(range(n)):
                raise ConfigurationError("class_order must be a permutation of all classes")


@dataclass
class TaskBatch:
    task_index: int
    major_classes: set[int]
    example_indices: np.ndarray  # rows of Dataset.X_train
    warnings: list[str] = field(default_factory=list)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# CIFAR-100 binary format


def pack_cifar_record(coarse: int, fine: int, pixels: np.ndarray) -> bytes:
    """One record in the layout load_cifar100 reads; byte-exact round trip."""
    pix = np.asarray(pixels, dtype=np.uint8)
    if pix.size != CIFAR_PIXELS:
        raise DataError(f"expected {CIFAR_PIXELS} pixel bytes, got {pix.size}")
    return bytes([coarse & 0xFF, fine & 0xFF]) + pix.tobytes()


def load_cifar100(path: str, split: str = "train") -> Dataset:
    """Load a CIFAR-100 binary file (train.bin / test.bin layout).

    Each record is [coarse][fine][1024 R][1024 G][1024 B]; the features
    are the pixel bytes as read (uint8, a view of the records; see
    learner.as_features), the fine label is used as the class and the coarse
    label is not kept.  The class count is the largest fine label + 1, so
    a file holding a subset of the 100 labels runs as a smaller problem.
    A training file must hold every label below its largest: a class
    without rows would make an empty task.
    """
    if split not in ("train", "test"):
        raise ConfigurationError(f"split must be 'train' or 'test', got {split!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise DataError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(raw) // CIFAR_RECORD_BYTES
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    fine = arr[:, 1].astype(np.int64)
    if np.any(fine >= CIFAR_NUM_CLASSES):
        bad = int(np.argmax(fine >= CIFAR_NUM_CLASSES))
        raise DataError(f"{path}: record {bad} has fine label {fine[bad]} >= 100")
    if split == "train":
        # np.setdiff1d would import numpy.ma (through np.unique)
        missing = np.flatnonzero(np.bincount(fine) == 0)
        if missing.size:
            raise DataError(
                f"{path}: no records for fine labels {missing.tolist()} "
                f"below the largest label {fine.max()}"
            )
    pixels = arr[:, 2:]
    # the other split is empty
    ds = Dataset(
        pixels[:0], fine[:0], pixels[:0], fine[:0], int(fine.max()) + 1, CIFAR_PIXELS
    )
    if split == "train":
        ds.X_train, ds.y_train = pixels, fine
    else:
        ds.X_test, ds.y_test = pixels, fine
    return ds


# ---------------------------------------------------------------------------
# Synthetic blobs


@dataclass(frozen=True)
class BlobsSpec:
    num_classes: int = 10
    per_class: int = 200
    dim: int = 2
    spread: float = 1.0
    outlier_fraction: float = 0.0
    center_box: float | None = None
    outlier_reach: tuple[float, float] = (10.0, 20.0)

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.per_class < 2:
            raise ConfigurationError("per_class must be >= 2")
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if not self.spread > 0:
            raise ConfigurationError("spread must be > 0")
        if not 0.0 <= self.outlier_fraction < 0.5:
            raise ConfigurationError("outlier_fraction must be in [0, 0.5)")
        if self.outlier_reach[0] < 10.0 or self.outlier_reach[1] < self.outlier_reach[0]:
            raise ConfigurationError("outlier_reach must be an increasing range >= 10")


def make_blobs(spec: BlobsSpec, seed: int) -> Dataset:
    """Seeded Gaussian clusters, one per class, with optional planted outliers.

    Outliers are displaced by outlier_reach (in units of spread, lower bound
    at least 10) from their class center but keep the class label.  Each
    class is split 80/20 into train/test.
    """
    spec.validate()
    num_classes, per_class, dim = spec.num_classes, spec.per_class, spec.dim
    spread, center_box = spec.spread, spec.center_box
    rng = np.random.default_rng(seed)
    if center_box is None:
        # keep cluster density roughly constant as the class count grows
        center_box = 10.0 * spread * num_classes ** (1.0 / dim)
    centers = rng.uniform(0.0, center_box, size=(num_classes, dim))

    X_train, X_test = [], []
    n_out = _round_half_up(spec.outlier_fraction * per_class)
    n_train = int(per_class * 0.8)
    for c in range(num_classes):
        pts = centers[c] + rng.normal(0.0, spread, size=(per_class, dim))
        if n_out > 0:
            which = rng.choice(per_class, size=n_out, replace=False)
            direction = rng.normal(size=(n_out, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radius = rng.uniform(*spec.outlier_reach, size=(n_out, 1)) * spread
            pts[which] = centers[c] + direction * radius
        order = rng.permutation(per_class)
        X_train.append(pts[order[:n_train]])
        X_test.append(pts[order[n_train:]])
    classes = np.arange(num_classes, dtype=np.int64)
    return Dataset(
        np.concatenate(X_train),
        classes.repeat(n_train),
        np.concatenate(X_test),
        classes.repeat(per_class - n_train),
        num_classes,
        dim,
    )


# ---------------------------------------------------------------------------
# Task streams


def _class_order(spec: StreamSpec, num_classes: int, seed: int) -> list[int]:
    if spec.class_order is not None:
        return list(spec.class_order)
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(c) for c in rng.permutation(num_classes)]


def _rows_of(y: np.ndarray, classes) -> np.ndarray:
    """Rows with a label in classes, grouped by ascending class, each group
    in row order."""
    return np.concatenate([np.flatnonzero(y == c) for c in sorted(classes)])


def make_disjoint_stream(ds: Dataset, spec: StreamSpec, seed: int) -> list[TaskBatch]:
    """Partition training data into tasks with pairwise-disjoint class sets."""
    if spec.mode != "disjoint":
        raise ConfigurationError("make_disjoint_stream requires mode='disjoint'")
    spec.validate(ds.num_classes)
    order = _class_order(spec, ds.num_classes, seed)
    q = spec.classes_per_task
    tasks = []
    for t in range(ds.num_classes // q):
        majors = set(order[t * q : (t + 1) * q])
        idx = _rows_of(ds.y_train, majors)
        rng = np.random.default_rng([seed, 0x7A5C, t])
        tasks.append(TaskBatch(t, majors, idx[rng.permutation(len(idx))]))
    return tasks


def make_fuzzy_stream(ds: Dataset, spec: StreamSpec, seed: int) -> list[TaskBatch]:
    """Build a fuzzy stream: each task mixes majors with Z% minor examples.

    Task size equals the task's full major-class pool size; round(Z% of it)
    of the slots are filled with examples donated by other classes, and the
    same share of the task's own pool is donated onward.  Every training
    example lands in exactly one task unless a donor pool runs dry, in which
    case the shortfall is drawn with replacement and a warning is recorded.
    """
    if spec.mode != "fuzzy":
        raise ConfigurationError("make_fuzzy_stream requires mode='fuzzy'")
    spec.validate(ds.num_classes)
    order = _class_order(spec, ds.num_classes, seed)
    labels = ds.y_train
    q = spec.classes_per_task
    z = spec.fuzz_percent / 100.0
    num_tasks = ds.num_classes // q

    major_sets = [set(order[t * q : (t + 1) * q]) for t in range(num_tasks)]
    majors: list[np.ndarray] = []
    minor_counts: list[int] = []
    donor = np.zeros(len(labels), dtype=bool)
    # reserve each task's major portion first so later tasks keep full pools
    for t in range(num_tasks):
        pool = _rows_of(labels, major_sets[t])
        task_size = len(pool)
        n_minor = _round_half_up(z * task_size)
        n_major = task_size - n_minor
        rng = np.random.default_rng([seed, 0xFA22, t])
        picked = rng.permutation(len(pool))
        majors.append(pool[picked[:n_major]])
        donor[pool[picked[n_major:]]] = True
        minor_counts.append(n_minor)

    tasks = []
    for t in range(num_tasks):
        warnings: list[str] = []
        rng = np.random.default_rng([seed, 0x31B0, t])
        other = ~np.isin(labels, list(major_sets[t]))
        eligible = np.flatnonzero(donor & other)
        need = minor_counts[t]
        if len(eligible) >= need:
            minors = eligible[rng.choice(len(eligible), size=need, replace=False)]
        else:
            fallback = np.flatnonzero(other)
            extra = rng.choice(len(fallback), size=need - len(eligible), replace=True)
            minors = np.concatenate([eligible, fallback[extra]])
            warnings.append(
                f"task {t}: minor pool exhausted, sampled "
                f"{need - len(eligible)} examples with replacement"
            )
        donor[minors] = False
        idx = np.concatenate([majors[t], minors])
        tasks.append(TaskBatch(t, major_sets[t], idx[rng.permutation(len(idx))], warnings))
    return tasks


def make_stream(ds: Dataset, spec: StreamSpec, seed: int) -> list[TaskBatch]:
    if spec.mode == "disjoint":
        return make_disjoint_stream(ds, spec, seed)
    return make_fuzzy_stream(ds, spec, seed)

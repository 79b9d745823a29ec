"""Experiment orchestration: train -> reduce -> sample -> update memory ->
evaluate, with CSV/JSON result files and seed fan-out.

One experiment is sequential (each task depends on the previous model),
but independent replicate runs share no state and may run concurrently.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import learner, sampler
from .data import Dataset, StreamSpec, load_cifar100, make_blobs, make_stream
from .errors import ConfigurationError
from .learner import LossConfig, MlpModel, TrainConfig
from .reduce import Embedding, TsneConfig, pca_reduce, tsne_reduce
from .sampler import ExemplarStore, SamplerParams, allocate_quota

# role tags for deterministic per-module seed derivation
_SEED_STREAM, _SEED_REDUCE, _SEED_SAMPLE, _SEED_TRAIN, _SEED_MODEL = range(5)


@dataclass(frozen=True)
class BlobsSpec:
    num_classes: int = 10
    per_class: int = 200
    dim: int = 2
    spread: float = 1.0
    outlier_fraction: float = 0.0
    center_box: float | None = None
    outlier_reach: tuple[float, float] = (10.0, 20.0)


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "blobs"  # "blobs" or "cifar100"
    blobs: BlobsSpec = BlobsSpec()
    cifar_train_path: str | None = None
    cifar_test_path: str | None = None
    stream: StreamSpec = StreamSpec(mode="disjoint", classes_per_task=2)
    sampler_kind: str = "diverse"  # diverse | gonzalez | random
    sampler_params: SamplerParams = SamplerParams(m=1)  # m is set per class quota
    reducer: str = "tsne"  # tsne | pca | none
    reduce_dim: int = 2
    tsne: TsneConfig = TsneConfig()
    loss: LossConfig = LossConfig()
    train: TrainConfig = TrainConfig()
    memory_budget: int = 1000
    classifier: str = "softmax_head"  # softmax_head | nme
    hidden_sizes: tuple[int, ...] = (128, 64)
    out_dir: str = "results"
    seed: int = 0

    def validate(self) -> None:
        """Check every field, nested specs included, before any data is
        touched; a value of the wrong type is a ConfigurationError too."""
        if self.dataset not in ("blobs", "cifar100"):
            raise ConfigurationError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "cifar100" and not self.cifar_train_path:
            raise ConfigurationError("cifar100 dataset requires cifar_train_path")
        if self.sampler_kind not in ("diverse", "gonzalez", "random"):
            raise ConfigurationError(f"unknown sampler {self.sampler_kind!r}")
        if self.reducer not in ("tsne", "pca", "none"):
            raise ConfigurationError(f"unknown reducer {self.reducer!r}")
        if self.classifier not in ("softmax_head", "nme"):
            raise ConfigurationError(f"unknown classifier {self.classifier!r}")
        try:
            if self.memory_budget < 1:
                raise ConfigurationError("memory_budget must be >= 1")
            input_dim = self.blobs.dim if self.dataset == "blobs" else 3072
            if self.reducer == "none" and input_dim > 3:
                raise ConfigurationError("reducer 'none' only allowed for input dim <= 3")
            self.sampler_params.validate()
            self.tsne.validate()
            self.loss.validate()
            self.train.validate()
        except TypeError as exc:
            raise ConfigurationError(f"bad config: {exc}") from exc


@dataclass
class MetricsRecord:
    task_index: int
    accuracy: float
    avg_accuracy: float
    exemplar_count: int
    seconds: float
    warnings: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    records: list[MetricsRecord]
    store: ExemplarStore
    model: MlpModel
    class_order_seen: list[int]


def average_accuracy(per_task: list[float]) -> float:
    if not per_task:
        raise ConfigurationError("no per-task accuracies")
    if any(not 0.0 <= a <= 1.0 for a in per_task):
        raise ConfigurationError("accuracies must be in [0, 1]")
    return float(np.mean(per_task))


def _module_seed(global_seed: int, role: int, *extra: int) -> int:
    ss = np.random.SeedSequence([global_seed, role, *extra])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset == "blobs":
        b = cfg.blobs
        return make_blobs(
            num_classes=b.num_classes,
            per_class=b.per_class,
            dim=b.dim,
            spread=b.spread,
            outlier_fraction=b.outlier_fraction,
            seed=_module_seed(cfg.seed, _SEED_STREAM),
            center_box=b.center_box,
            outlier_reach=b.outlier_reach,
        )
    ds = load_cifar100(cfg.cifar_train_path, "train")
    if cfg.cifar_test_path:
        test = load_cifar100(cfg.cifar_test_path, "test")
        ds.X_test, ds.y_test, ds.test_coarse = test.X_test, test.y_test, test.test_coarse
    return ds


def _reduce_class(cfg: RunConfig, feats: np.ndarray, task: int, cls: int):
    if cfg.reducer == "none":
        return Embedding(points=feats)
    if cfg.reducer == "pca":
        return pca_reduce(feats, min(cfg.reduce_dim, min(feats.shape)))
    tsne_cfg = dataclasses.replace(
        cfg.tsne,
        target_dim=cfg.reduce_dim,
        seed=_module_seed(cfg.seed, _SEED_REDUCE, task, cls),
    )
    return tsne_reduce(feats, tsne_cfg)


def _select_exemplars(
    cfg: RunConfig, emb, quota: int, task: int, cls: int
) -> list[int]:
    quota = min(quota, emb.points.shape[0])
    if cfg.sampler_kind == "random":
        return sampler.random_sample(
            emb.points.shape[0], quota, _module_seed(cfg.seed, _SEED_SAMPLE, task, cls)
        )
    if cfg.sampler_kind == "gonzalez":
        return sampler.gonzalez_sample(emb, quota)
    params = dataclasses.replace(cfg.sampler_params, m=quota)
    return sampler.diverse_sample(emb, params)


def evaluate(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    classifier: str = "softmax_head",
    class_means: dict[int, np.ndarray] | None = None,
    slot_to_class: list[int] | None = None,
) -> float:
    """Accuracy on test rows X with labels y, by the softmax head or NME."""
    if len(y) == 0:
        raise ConfigurationError("empty evaluation pool")
    if classifier == "nme":
        if not class_means:
            raise ConfigurationError("nme classifier requires class means")
        _, acts = learner.forward_batch(model, X)
        pred = np.array([learner.nme_classify(f, class_means) for f in acts[-1]])
    else:
        logits, _ = learner.forward_batch(model, X)
        pred = np.argmax(logits, axis=1)
        if slot_to_class is not None:
            pred = np.asarray(slot_to_class)[pred]
    return float(np.mean(pred == y))


def run_experiment(cfg: RunConfig, dataset: Dataset | None = None) -> RunResult:
    """Run the full class-incremental loop over the configured stream."""
    cfg.validate()
    ds = dataset if dataset is not None else load_dataset(cfg)
    spec = dataclasses.replace(cfg.stream, seed=_module_seed(cfg.seed, _SEED_STREAM, 1))
    tasks = make_stream(ds, spec)

    store = ExemplarStore(budget=cfg.memory_budget)
    model: MlpModel | None = None
    teacher: learner.TeacherSnapshot | None = None
    slot_to_class: list[int] = []
    slot_of = np.full(ds.num_classes, -1, dtype=np.int64)  # class -> head slot
    records: list[MetricsRecord] = []
    accuracies: list[float] = []

    for task in tasks:
        t0 = time.perf_counter()
        warnings = list(task.warnings)
        task_rows = task.example_indices
        task_labels = ds.y_train[task_rows]

        labels_here = np.unique(task_labels).tolist()
        new_classes = [c for c in labels_here if slot_of[c] < 0]
        for c in new_classes:
            slot_of[c] = len(slot_to_class)
            slot_to_class.append(c)
        if model is None:
            model = learner.init_mlp(
                ds.dim,
                cfg.hidden_sizes,
                len(slot_to_class),
                _module_seed(cfg.seed, _SEED_MODEL),
            )
        elif new_classes:
            model = learner.grow_head(
                model, len(new_classes), _module_seed(cfg.seed, _SEED_MODEL, task.task_index)
            )

        stored = [i for c in sorted(store.train_indices) for i in store.train_indices[c]]
        rows = np.concatenate([task_rows, np.asarray(stored, dtype=np.int64)])
        tcfg = dataclasses.replace(
            cfg.train, seed=_module_seed(cfg.seed, _SEED_TRAIN, task.task_index)
        )
        model, _trace = learner.train_task(
            model, ds.X_train[rows], slot_of[ds.y_train[rows]], teacher, lcfg=cfg.loss, tcfg=tcfg
        )
        teacher = learner.snapshot_teacher(model)

        # memory update: re-select for classes present, shrink the rest
        quotas = allocate_quota(cfg.memory_budget, len(slot_to_class))
        for cls in list(store.train_indices):
            store.shrink_class(cls, quotas[slot_of[cls]])
        for cls in labels_here:
            class_rows = task_rows[task_labels == cls]
            feats = ds.X_train[class_rows].astype(np.float64)
            emb = _reduce_class(cfg, feats, task.task_index, cls)
            warnings += [f"class {cls}: {w}" for w in emb.warnings]
            quota = quotas[slot_of[cls]]
            picked = _select_exemplars(cfg, emb, quota, task.task_index, cls)
            store.set_class(cls, class_rows[picked], ds.y_train)

        seen = np.isin(ds.y_test, slot_to_class)
        class_means = None
        if cfg.classifier == "nme":
            class_means = exemplar_class_means(model, ds.X_train, store)
        acc = evaluate(
            model, ds.X_test[seen], ds.y_test[seen], cfg.classifier, class_means, slot_to_class
        )
        accuracies.append(acc)
        records.append(
            MetricsRecord(
                task_index=task.task_index,
                accuracy=acc,
                avg_accuracy=average_accuracy(accuracies),
                exemplar_count=store.total(),
                seconds=time.perf_counter() - t0,
                warnings=warnings,
            )
        )
    return RunResult(
        records=records, store=store, model=model, class_order_seen=slot_to_class
    )


def exemplar_class_means(
    model: MlpModel, X_train: np.ndarray, store: ExemplarStore
) -> dict[int, np.ndarray]:
    """Per-class mean of stored exemplars' penultimate features under model."""
    means: dict[int, np.ndarray] = {}
    for cls, rows in store.train_indices.items():
        if not rows:
            continue
        _, acts = learner.forward_batch(model, X_train[rows])
        means[cls] = acts[-1].mean(axis=0)
    return means


def outlier_benchmark_config(
    sampler_kind: str = "diverse", n: int = 5, seed: int = 0
) -> RunConfig:
    """Canonical scaled benchmark: 10 blob classes with 10% planted outliers,
    5 disjoint tasks of 2 classes, memory budget 100."""
    return RunConfig(
        dataset="blobs",
        blobs=BlobsSpec(
            num_classes=10,
            per_class=200,
            dim=2,
            spread=0.25,
            outlier_fraction=0.1,
            outlier_reach=(10.0, 80.0),
        ),
        stream=StreamSpec(mode="disjoint", classes_per_task=2),
        sampler_kind=sampler_kind,
        sampler_params=SamplerParams(m=1, n=n, r0=0.5),
        reducer="none",
        memory_budget=100,
        train=TrainConfig(epochs=40, batch_size=32, learning_rate=0.02, momentum=0.9),
        classifier="nme",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Result files


def config_to_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["stream"]["class_order"] = (
        list(cfg.stream.class_order) if cfg.stream.class_order else None
    )
    d["hidden_sizes"] = list(cfg.hidden_sizes)
    return d


def config_from_dict(d: dict) -> RunConfig:
    try:
        d = dict(d)
        if "blobs" in d:
            b = dict(d["blobs"])
            if "outlier_reach" in b:
                b["outlier_reach"] = tuple(b["outlier_reach"])
            d["blobs"] = BlobsSpec(**b)
        if "stream" in d:
            s = dict(d["stream"])
            if s.get("class_order") is not None:
                s["class_order"] = tuple(s["class_order"])
            d["stream"] = StreamSpec(**s)
        if "sampler_params" in d:
            d["sampler_params"] = SamplerParams(**d["sampler_params"])
        if "tsne" in d:
            d["tsne"] = TsneConfig(**d["tsne"])
        if "loss" in d:
            d["loss"] = LossConfig(**d["loss"])
        if "train" in d:
            d["train"] = TrainConfig(**d["train"])
        if "hidden_sizes" in d:
            d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return RunConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            return config_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


def emit_results(result: RunResult, cfg: RunConfig, out_dir: str) -> None:
    """Write metrics.csv, config.json and exemplars.json (plus timings.csv).

    Wall-clock goes to timings.csv only; the seconds column in metrics.csv
    is rounded to milliseconds and excluded from determinism guarantees.
    """
    os.makedirs(out_dir, exist_ok=True)
    lines = ["task,accuracy,avg_accuracy,exemplars,seconds"]
    timing = ["task,seconds"]
    for r in result.records:
        lines.append(
            f"{r.task_index},{r.accuracy!r},{r.avg_accuracy!r},"
            f"{r.exemplar_count},{r.seconds:.3f}"
        )
        timing.append(f"{r.task_index},{r.seconds!r}")
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "timings.csv"), "w") as fh:
        fh.write("\n".join(timing) + "\n")
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "exemplars.json"), "w") as fh:
        fh.write(result.store.to_json())


def run_and_emit(cfg: RunConfig, out_dir: str | None = None) -> RunResult:
    result = run_experiment(cfg)
    emit_results(result, cfg, out_dir or cfg.out_dir)
    return result


def ablate_n(
    cfg: RunConfig, values: list[int], seeds: list[int], out_dir: str
) -> dict[tuple[int, int], float]:
    """Run the neighbor-count ablation over shared seeds; one combined CSV."""
    rows = ["n,seed,avg_accuracy"]
    out: dict[tuple[int, int], float] = {}
    for n in values:
        for seed in seeds:
            run_cfg = dataclasses.replace(
                cfg,
                seed=seed,
                sampler_kind="diverse",
                sampler_params=dataclasses.replace(cfg.sampler_params, n=n),
            )
            result = run_experiment(run_cfg)
            aa = result.records[-1].avg_accuracy
            out[(n, seed)] = aa
            rows.append(f"{n},{seed},{aa!r}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ablation.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return out

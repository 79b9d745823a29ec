"""Experiment orchestration: reduce + train -> sample -> update memory ->
evaluate, with CSV/JSON result files and seed fan-out.

Each task depends on the previous model, so tasks run one after another.
Within a task, the class embeddings depend on the class's input rows
only, so they are set up before training, and where a core would
otherwise idle (see _fork_pays) the t-SNE descents run in one forked
child while the task trains.  Independent replicate runs share no state
and may run concurrently.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import pickle
import signal
import sys
import time
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import learner, sampler
from .data import (
    BlobsSpec, Dataset, StreamSpec, TaskBatch, load_cifar100, make_blobs, make_stream,
)
from .errors import ConfigurationError, DataError, DivergenceError
from .learner import LossConfig, MlpModel, TrainConfig, as_features
from .reduce import (
    Embedding, TsneConfig, finish_tsne, pca_reduce, tsne_descent, tsne_reduce,
)
from .sampler import ExemplarStore, SamplerParams, allocate_quota

# role tags for deterministic per-module seed derivation; 1 is retired, and
# the others keep their values because renumbering one changes every output
_SEED_STREAM, _SEED_SAMPLE, _SEED_TRAIN, _SEED_MODEL = 0, 2, 3, 4

# rows per forward in evaluate and exemplar_class_means: TrainConfig's
# default batch, so a pool of at most that many rows is one forward
_EVAL_ROWS = TrainConfig.batch_size


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "blobs"  # "blobs" or "cifar100"
    blobs: BlobsSpec = BlobsSpec()
    cifar_train_path: str | None = None
    cifar_test_path: str | None = None
    stream: StreamSpec = StreamSpec(mode="disjoint", classes_per_task=2)
    sampler_kind: str = "diverse"  # diverse | random; Gonzalez is diverse with n=0
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
        _check_types(self)
        if self.dataset not in ("blobs", "cifar100"):
            raise ConfigurationError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "cifar100" and not (self.cifar_train_path and self.cifar_test_path):
            raise ConfigurationError(
                "cifar100 dataset requires cifar_train_path and cifar_test_path"
            )
        if self.sampler_kind not in ("diverse", "random"):
            raise ConfigurationError(f"unknown sampler {self.sampler_kind!r}")
        if self.reducer not in ("tsne", "pca", "none"):
            raise ConfigurationError(f"unknown reducer {self.reducer!r}")
        if self.classifier not in ("softmax_head", "nme"):
            raise ConfigurationError(f"unknown classifier {self.classifier!r}")
        if self.memory_budget < 1:
            raise ConfigurationError("memory_budget must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.reduce_dim < 1:
            raise ConfigurationError("reduce_dim must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError("hidden_sizes must all be >= 1")
        input_dim = self.blobs.dim if self.dataset == "blobs" else 3072
        if self.reducer == "none" and input_dim > 3:
            raise ConfigurationError("reducer 'none' only allowed for input dim <= 3")
        if self.dataset == "blobs":
            self.blobs.validate()
        self.stream.validate()
        self.sampler_params.validate()
        self.tsne.validate()
        self.loss.validate()
        self.train.validate()


def _has_type(value, kind) -> bool:
    """isinstance for the annotations config fields use.  JSON has one
    number type, so an integer passes as a float; a bool is no number, and
    a float must be finite."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        return any(_has_type(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_has_type(v, args[0]) for v in value)
        return len(value) == len(args) and all(_has_type(v, k) for v, k in zip(value, args))
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind is float:  # the bound also rejects nan, inf and ints beyond float range
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _check_types(spec, where: str = "") -> None:
    """Raise ConfigurationError unless every field of the config dataclass
    spec, and of each spec nested in it, holds a value of its annotated type."""
    for name, kind in typing.get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if not _has_type(value, kind):
            expected = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigurationError(f"{where}{name} must be {expected}, got {value!r}")
        if dataclasses.is_dataclass(value):
            _check_types(value, f"{where}{name}.")


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
        return make_blobs(cfg.blobs, _module_seed(cfg.seed, _SEED_STREAM))
    ds = load_cifar100(cfg.cifar_train_path, "train")
    test = load_cifar100(cfg.cifar_test_path, "test")
    ds.X_test, ds.y_test = test.X_test, test.y_test
    return ds


def _reduce_class(cfg: RunConfig, feats: np.ndarray):
    if cfg.reducer == "none":
        return Embedding(points=feats)
    if cfg.reducer == "pca":
        return pca_reduce(feats, min(cfg.reduce_dim, min(feats.shape)))
    return tsne_reduce(feats, cfg.reduce_dim, cfg.tsne, descend=False)


def _fork_pays() -> bool:
    """Whether a task's t-SNE descents run in a forked child: only where a
    core would otherwise idle while the task trains.  That needs two
    usable cores and a process of one thread; a multi-threaded BLAS
    already uses every core, and forking a process with threads can
    deadlock the child on a lock some other thread held."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) == 1)


class _ForkedCall:
    """fn(), run in a forked child from construction when fork is true,
    else in this process when result() is called.  The child sends back
    only the pickled result, or the exception fn raised, which result()
    raises.  On leaving the with block a child still running is killed
    and reaped, so none outlives the block."""

    def __init__(self, fn, fork: bool):
        self.fn, self.pid = fn, None
        if not fork:
            return
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child never returns into the caller
            status = 1
            try:
                os.close(read_fd)
                try:
                    payload = (True, fn())
                except Exception as exc:
                    payload = (False, exc)
                with os.fdopen(write_fd, "wb") as fh:
                    pickle.dump(payload, fh)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pid, self.pipe = pid, os.fdopen(read_fd, "rb")

    def result(self):
        if self.pid is None:
            return self.fn()
        data = self.pipe.read()  # to EOF before waiting: the pipe buffer is finite
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0:
            raise RuntimeError(f"forked child failed with wait status {status}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _select_exemplars(
    cfg: RunConfig, emb, quota: int, task: int, cls: int
) -> list[int]:
    quota = min(quota, emb.points.shape[0])
    if cfg.sampler_kind == "random":
        return sampler.random_sample(
            emb.points.shape[0], quota, _module_seed(cfg.seed, _SEED_SAMPLE, task, cls)
        )
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
    """Accuracy on test rows X (floats or pixel bytes) with labels y, by the
    softmax head or NME, from forwards of _EVAL_ROWS rows (see
    learner.forward_chunked)."""
    if len(y) == 0:
        raise ConfigurationError("empty evaluation pool")
    if classifier == "nme":
        if not class_means:
            raise ConfigurationError("nme classifier requires class means")
        classes = sorted(class_means)

        def predict(_logits, feats):
            # one distance per (row, class); argmin takes the first of equal
            # distances, so ties go to the lower class id
            dist = np.stack(
                [np.linalg.norm(feats - class_means[c], axis=1) for c in classes], axis=1
            )
            return np.asarray(classes)[np.argmin(dist, axis=1)]
    else:
        def predict(logits, _feats):
            pred = np.argmax(logits, axis=1)
            return pred if slot_to_class is None else np.asarray(slot_to_class)[pred]

    pred = learner.forward_chunked(model, X, _EVAL_ROWS, predict)
    return float(np.mean(pred == y))


def _checked_stream(cfg: RunConfig, ds: Dataset) -> list[TaskBatch]:
    """The task stream of cfg over ds, after the checks that need the data
    and must pass before any training."""
    # every class gets a slot by the end of the stream, and each slot needs
    # at least one exemplar
    if cfg.memory_budget < ds.num_classes:
        raise ConfigurationError(
            f"memory_budget {cfg.memory_budget} below class count {ds.num_classes}"
        )
    tasks = make_stream(ds, cfg.stream, _module_seed(cfg.seed, _SEED_STREAM, 1))
    # each task evaluates on the test rows of every class seen so far, so
    # when the first task's pool has a row, every later pool has one too
    # a sorted unique of non-negative labels; np.unique would import numpy.ma
    first_classes = np.flatnonzero(np.bincount(ds.y_train[tasks[0].example_indices]))
    if not np.isin(ds.y_test, first_classes).any():
        raise DataError(
            f"no test rows of the first task's classes {first_classes.tolist()}"
        )
    return tasks


def run_experiment(cfg: RunConfig, dataset: Dataset | None = None) -> RunResult:
    """Run the full class-incremental loop over the configured stream."""
    cfg.validate()
    ds = dataset if dataset is not None else load_dataset(cfg)
    tasks = _checked_stream(cfg, ds)

    store = ExemplarStore(budget=cfg.memory_budget)
    model: MlpModel | None = None
    teacher: learner.TeacherSnapshot | None = None
    slot_to_class: list[int] = []
    slot_of = np.full(ds.num_classes, -1, dtype=np.int64)  # class -> head slot
    records: list[MetricsRecord] = []
    accuracies: list[float] = []
    finished: RunResult | None = None  # the state after the last finished task

    for task in tasks:
        t0 = time.perf_counter()
        warnings = list(task.warnings)
        task_rows = task.example_indices
        task_labels = ds.y_train[task_rows]

        labels_here = np.flatnonzero(np.bincount(task_labels)).tolist()
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

        # an embedding depends on its class's rows only, so it is set up
        # (bad rows fail) before training; the feature rows are freed here
        embeddings = [
            _reduce_class(cfg, as_features(ds.X_train[task_rows[task_labels == cls]], np.float64))
            for cls in labels_here
        ]
        pending = [emb for emb in embeddings if emb.pending is not None]
        stored = [i for c in sorted(store.train_indices) for i in store.train_indices[c]]
        rows = np.concatenate([task_rows, np.asarray(stored, dtype=np.int64)])
        with _ForkedCall(lambda: [tsne_descent(emb) for emb in pending],
                         fork=bool(pending) and _fork_pays()) as descents:
            try:
                model, _trace = learner.train_task(
                    model, ds.X_train[rows], slot_of[ds.y_train[rows]], teacher,
                    seed=_module_seed(cfg.seed, _SEED_TRAIN, task.task_index),
                    lcfg=cfg.loss, tcfg=cfg.train,
                )
            except DivergenceError as exc:
                # the store is updated after training, so it still holds the
                # memory of the finished tasks
                exc.partial = finished
                raise
            teacher = learner.snapshot_teacher(model)
            for emb, (points, kl_trace) in zip(pending, descents.result()):
                finish_tsne(emb, points, kl_trace)

        # memory update: re-select for classes present, shrink the rest
        quotas = allocate_quota(cfg.memory_budget, len(slot_to_class))
        for cls in list(store.train_indices):
            store.shrink_class(cls, quotas[slot_of[cls]])
        for cls, emb in zip(labels_here, embeddings):
            class_rows = task_rows[task_labels == cls]
            warnings += [f"class {cls}: {w}" for w in emb.warnings]
            quota = quotas[slot_of[cls]]
            picked = _select_exemplars(cfg, emb, quota, task.task_index, cls)
            store.set_class(cls, class_rows[picked], ds.y_train)

        seen = np.isin(ds.y_test, slot_to_class)
        class_means = None
        if cfg.classifier == "nme":
            class_means = exemplar_class_means(model, ds.X_train, store)
        acc = evaluate(
            model, ds.X_test[seen], ds.y_test[seen], cfg.classifier, class_means,
            slot_to_class,
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
        finished = RunResult(
            records=records, store=store, model=model, class_order_seen=list(slot_to_class)
        )
    return finished


def exemplar_class_means(
    model: MlpModel, X_train: np.ndarray, store: ExemplarStore
) -> dict[int, np.ndarray]:
    """Per-class mean of stored exemplars' penultimate features under model,
    from forwards of _EVAL_ROWS rows (see learner.forward_chunked)."""
    means: dict[int, np.ndarray] = {}
    for cls, rows in store.train_indices.items():
        if not rows:
            continue
        feats = learner.forward_chunked(model, X_train[rows], _EVAL_ROWS, lambda _, f: f)
        means[cls] = feats.mean(axis=0)
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


_SPECS = {
    "blobs": BlobsSpec, "stream": StreamSpec, "sampler_params": SamplerParams,
    "tsne": TsneConfig, "loss": LossConfig, "train": TrainConfig,
}


def _lists_to_tuples(d: dict, *keys: str) -> dict:
    return {k: tuple(v) if k in keys and isinstance(v, list) else v for k, v in d.items()}


def config_from_dict(d: dict) -> RunConfig:
    """RunConfig from parsed JSON: nested specs must be objects, and the
    tuple fields are JSON lists.  Types are checked by RunConfig.validate."""
    if not isinstance(d, dict):
        raise ConfigurationError("bad config: not a JSON object")
    d = _lists_to_tuples(d, "hidden_sizes")
    try:
        for key, spec in _SPECS.items():
            if key in d:
                if not isinstance(d[key], dict):
                    raise ConfigurationError(f"bad config: {key} must be a JSON object")
                d[key] = spec(**_lists_to_tuples(d[key], "outlier_reach", "class_order"))
        return RunConfig(**d)
    except TypeError as exc:
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
    Every file's content is built before any is written, and each is
    written to a temporary name and renamed into place, so a failed emit
    leaves no partial file and the files of an earlier run intact.
    """
    lines = ["task,accuracy,avg_accuracy,exemplars,seconds"]
    timing = ["task,seconds"]
    for r in result.records:
        lines.append(
            f"{r.task_index},{r.accuracy!r},{r.avg_accuracy!r},"
            f"{r.exemplar_count},{r.seconds:.3f}"
        )
        timing.append(f"{r.task_index},{r.seconds!r}")
    files = {
        "metrics.csv": "\n".join(lines) + "\n",
        "timings.csv": "\n".join(timing) + "\n",
        "config.json": json.dumps(config_to_dict(cfg), indent=2, sort_keys=True),
        "exemplars.json": result.store.to_json(),
    }
    _write_files(out_dir, files)


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    """Write each text to <name>.tmp in out_dir and rename it into place,
    so a failed write or rename leaves no partial file and the earlier
    file of that name intact."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # only when the write or rename failed
                os.remove(tmp)


def run_and_emit(cfg: RunConfig, out_dir: str | None = None) -> RunResult:
    """Run the experiment and write its result files.  A run that diverges
    after its first task writes the files of the tasks it finished, then
    re-raises the DivergenceError."""
    out_dir = out_dir or cfg.out_dir
    try:
        result = run_experiment(cfg)
    except DivergenceError as exc:
        if exc.partial is not None:
            emit_results(exc.partial, cfg, out_dir)
        raise
    emit_results(result, cfg, out_dir)
    return result


def ablate_n(
    cfg: RunConfig, values: list[int], seeds: list[int], out_dir: str
) -> dict[tuple[int, int], float]:
    """Run the neighbor-count ablation over shared seeds; one combined CSV.
    Every run's config, and every seed's data and stream, is checked before
    the first run trains."""
    runs = [
        (n, seed, dataclasses.replace(
            cfg,
            seed=seed,
            sampler_kind="diverse",
            sampler_params=dataclasses.replace(cfg.sampler_params, n=n),
        ))
        for n in values
        for seed in seeds
    ]
    for _, _, run_cfg in runs:
        run_cfg.validate()
    # the data and the stream depend on the seed, not on n; one dataset is
    # held at a time
    for seed in seeds:
        seed_cfg = dataclasses.replace(cfg, seed=seed)
        _checked_stream(seed_cfg, load_dataset(seed_cfg))
    rows = ["n,seed,avg_accuracy"]
    out: dict[tuple[int, int], float] = {}
    for n, seed, run_cfg in runs:
        aa = run_experiment(run_cfg).records[-1].avg_accuracy
        out[(n, seed)] = aa
        rows.append(f"{n},{seed},{aa!r}")
    _write_files(out_dir, {"ablation.csv": "\n".join(rows) + "\n"})
    return out

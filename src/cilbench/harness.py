"""Experiment orchestration: exemplar memory, training and evaluation over
a task stream, with CSV/JSON result files and seed fan-out.

The exemplar memory is a function of the stream, the data and the config,
never of the model: pools come from stream rows and stored rows,
embeddings from pool rows, quotas from slot counts, and the random
sampler draws from derived seeds.  So memory_steps owns it and reads no
model, and run_tasks trains and evaluates over it, reading the memory
only for the rows to train on and their head slots, the NME means and the
classes accuracy covers.  memory_steps yields twice per task: before
training, the head slots and the rows to train on, with the class
embeddings set up and their t-SNE descents running in a forked child
where a core would otherwise idle (see _fork_pays); after training, a new
store.  run_tasks yields a RunResult after each finished task, and no
store or RunResult changes once yielded.  Tasks run one after another, as
each trains the previous model; independent replicate runs share no state
and may run concurrently.
"""

from __future__ import annotations

import contextlib
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

from . import data, learner, sampler
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
    dataset: typing.Literal["blobs", "cifar100"] = "blobs"
    blobs: BlobsSpec = BlobsSpec()
    cifar_train_path: str | None = None
    cifar_test_path: str | None = None
    stream: StreamSpec = StreamSpec(mode="disjoint", classes_per_task=2)
    sampler_kind: typing.Literal["diverse", "random"] = "diverse"  # Gonzalez: diverse, n=0
    sampler_params: SamplerParams = SamplerParams(m=1)  # m is set per class quota
    reducer: typing.Literal["tsne", "pca", "none"] = "tsne"
    reduce_dim: int = 2
    tsne: TsneConfig = TsneConfig()
    loss: LossConfig = LossConfig()
    train: TrainConfig = TrainConfig()
    memory_budget: int = 1000
    classifier: typing.Literal["softmax_head", "nme"] = "softmax_head"
    hidden_sizes: tuple[int, ...] = (128, 64)
    out_dir: str = "results"
    seed: int = 0

    def validate(self) -> None:
        """Check every field, nested specs included, before any data is
        touched; a value of the wrong type is a ConfigurationError too."""
        _check_types(self)
        if self.dataset == "cifar100" and not (self.cifar_train_path and self.cifar_test_path):
            raise ConfigurationError(
                "cifar100 dataset requires cifar_train_path and cifar_test_path"
            )
        if self.memory_budget < 1:
            raise ConfigurationError("memory_budget must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.reduce_dim < 1:
            raise ConfigurationError("reduce_dim must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError("hidden_sizes must all be >= 1")
        input_dim = self.blobs.dim if self.dataset == "blobs" else data.CIFAR_PIXELS
        if self.reducer == "none" and input_dim > 3:
            raise ConfigurationError("reducer 'none' only allowed for input dim <= 3")
        if self.reducer != "none" and self.reduce_dim > input_dim:
            raise ConfigurationError(f"reduce_dim must be <= the input width {input_dim}")


def _has_type(value, kind) -> bool:
    """isinstance for the annotations config fields use.  JSON has one
    number type, so an integer passes as a float; a bool is no number, and
    a float must be finite.  A Literal takes only the values it lists."""
    if typing.get_origin(kind) is typing.Literal:
        return value in typing.get_args(kind)
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
    spec, and of each spec nested in it, holds a value of its annotated
    type; each nested spec's own validate() then checks its values."""
    for name, kind in typing.get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if not _has_type(value, kind):
            expected = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigurationError(f"{where}{name} must be {expected}, got {value!r}")
        if dataclasses.is_dataclass(value):
            _check_types(value, f"{where}{name}.")
            value.validate()


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
        payload = self.pipe.read()  # to EOF before waiting: the pipe buffer is finite
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0:
            raise RuntimeError(f"forked child failed with wait status {status}")
        ok, value = pickle.loads(payload)
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


def evaluate(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    slot_to_class: list[int],
    class_means: dict[int, np.ndarray] | None = None,
) -> float:
    """Accuracy on test rows X (floats or pixel bytes) with labels y, from
    forwards of _EVAL_ROWS rows (see learner.forward_chunked).  With
    class_means the rule is NME on penultimate features, else the softmax
    head's argmax slot mapped to its class by slot_to_class."""
    if len(y) == 0:
        raise ConfigurationError("empty evaluation pool")
    if class_means is None:
        def predict(logits, _feats):
            return np.asarray(slot_to_class)[np.argmax(logits, axis=1)]
    else:
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


def memory_steps(cfg: RunConfig, ds: Dataset, tasks: list[TaskBatch]):
    """The exemplar memory over tasks; it reads no model.  Per task it yields
    (1) once the task's embeddings are set up, so rows that cannot be
    embedded fail before the task trains: the classes by head slot, the
    class -> slot array, and the rows to train on (the task's rows and the
    previous store's), while the t-SNE descents run; and (2) when resumed
    after training: a new store, which no later task changes, and the
    task's warnings.  Only the diverse sampler embeds its pools."""
    store = ExemplarStore(budget=cfg.memory_budget)
    slot_to_class: list[int] = []
    slot_of = np.full(ds.num_classes, -1, dtype=np.int64)  # class -> head slot
    for task in tasks:
        task_rows = task.example_indices
        task_labels = ds.y_train[task_rows]
        labels_here = np.flatnonzero(np.bincount(task_labels)).tolist()
        for c in labels_here:
            if slot_of[c] < 0:
                slot_of[c] = len(slot_to_class)
                slot_to_class.append(c)

        # a class present here is re-selected from its rows in this task, in
        # stream order and each once (a fuzzy task may draw a row twice), then
        # the prefix of its quota it keeps from the previous store; so 1-3
        # stray rows of an old class in a fuzzy task do not replace its
        # quota, and a new class's pool is its task rows
        order = np.argsort(task_rows, kind="stable")
        repeat = np.zeros(len(task_rows), dtype=bool)
        repeat[order[1:]] = task_rows[order[1:]] == task_rows[order[:-1]]
        quotas = allocate_quota(cfg.memory_budget, len(slot_to_class))
        kept = {cls: rows[: quotas[slot_of[cls]]] for cls, rows in store.train_indices.items()}
        pools = []
        for cls in labels_here:
            rows_c = task_rows[(task_labels == cls) & ~repeat]
            prefix = kept.get(cls, np.zeros(0, np.int64))
            pools.append(np.concatenate([rows_c, prefix[~np.isin(prefix, rows_c)]]))
        # an embedding depends on its pool's rows only, so it is set up (bad
        # rows fail) before training; the feature rows are freed here
        embeddings = [
            _reduce_class(cfg, as_features(ds.X_train[pool], np.float64))
            if cfg.sampler_kind == "diverse" else None
            for pool in pools
        ]
        pending = [emb for emb in embeddings if emb is not None and emb.pending is not None]
        stored = [store.train_indices[c] for c in sorted(store.train_indices)]
        with _ForkedCall(lambda: [tsne_descent(emb) for emb in pending],
                         fork=bool(pending) and _fork_pays()) as descents:
            yield slot_to_class, slot_of, np.concatenate([task_rows, *stored])
            for emb, (points, kl_trace) in zip(pending, descents.result()):
                finish_tsne(emb, points, kl_trace)

        # every stored class keeps the prefix of its quota, then the classes
        # present are re-selected from their pools; training rehearsed the
        # previous store
        store = ExemplarStore(cfg.memory_budget, kept)
        warnings = list(task.warnings)
        for cls, pool, emb in zip(labels_here, pools, embeddings):
            quota = min(quotas[slot_of[cls]], len(pool))
            if emb is None:  # the random sampler
                picked = sampler.random_sample(
                    len(pool), quota, _module_seed(cfg.seed, _SEED_SAMPLE, task.task_index, cls)
                )
            else:
                warnings += [f"class {cls}: {w}" for w in emb.warnings]
                params = dataclasses.replace(cfg.sampler_params, m=quota)
                picked = sampler.diverse_sample(emb, params)
            store.set_class(cls, pool[picked], ds.y_train)
        yield store, warnings


def run_tasks(cfg: RunConfig, dataset: Dataset | None = None):
    """The class-incremental loop over the configured stream: train and
    evaluate each task on the memory memory_steps hands over, and yield a
    RunResult of the tasks so far after each one finishes.  A yielded
    RunResult holds its own records, and nothing changes it later."""
    cfg.validate()
    ds = dataset if dataset is not None else load_dataset(cfg)
    tasks = _checked_stream(cfg, ds)

    model: MlpModel | None = None
    teacher: learner.TeacherSnapshot | None = None
    records: list[MetricsRecord] = []
    accuracies: list[float] = []

    # closed on any exception, so a forked descent never outlives the run
    with contextlib.closing(memory_steps(cfg, ds, tasks)) as steps:
        for task in tasks:
            t0 = time.perf_counter()
            slot_to_class, slot_of, rows = next(steps)
            if model is None:
                model = learner.init_mlp(
                    ds.X_train.shape[1], cfg.hidden_sizes, len(slot_to_class),
                    _module_seed(cfg.seed, _SEED_MODEL),
                )
            elif len(slot_to_class) > model.num_classes:
                model = learner.grow_head(
                    model, len(slot_to_class) - model.num_classes,
                    _module_seed(cfg.seed, _SEED_MODEL, task.task_index),
                )
            X = ds.X_train[rows]  # float rows train in float32, as pixel bytes do
            X = X if X.dtype == np.uint8 else X.astype(np.float32, copy=False)
            model, _trace = learner.train_task(
                model, X, slot_of[ds.y_train[rows]], teacher,
                seed=_module_seed(cfg.seed, _SEED_TRAIN, task.task_index),
                lcfg=cfg.loss, tcfg=cfg.train,
            )
            teacher = learner.snapshot_teacher(model)
            store, warnings = next(steps)

            seen = np.isin(ds.y_test, slot_to_class)
            means = (exemplar_class_means(model, ds.X_train, store)
                     if cfg.classifier == "nme" else None)
            acc = evaluate(model, ds.X_test[seen], ds.y_test[seen], slot_to_class, means)
            accuracies.append(acc)
            records.append(MetricsRecord(
                task.task_index, acc, average_accuracy(accuracies), exemplar_count=store.total(),
                seconds=time.perf_counter() - t0, warnings=warnings,
            ))
            yield RunResult(list(records), store, model, class_order_seen=list(slot_to_class))


def run_experiment(cfg: RunConfig, dataset: Dataset | None = None) -> RunResult:
    """The RunResult of every task of the configured stream (see run_tasks)."""
    for result in run_tasks(cfg, dataset):
        pass
    return result


def exemplar_class_means(
    model: MlpModel, X_train: np.ndarray, store: ExemplarStore
) -> dict[int, np.ndarray]:
    """Per-class mean of stored exemplars' penultimate features under model,
    from forwards of _EVAL_ROWS rows (see learner.forward_chunked)."""
    return {
        cls: learner.forward_chunked(model, X_train[rows], _EVAL_ROWS, lambda _, f: f).mean(axis=0)
        for cls, rows in store.train_indices.items()
    }


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
    """cfg as plain data for json, which writes its tuples as lists."""
    return dataclasses.asdict(cfg)


def _from_json(kind, value):
    """The value parsed JSON gives for a field annotated kind: an object for
    a config dataclass becomes that spec, and a list becomes a tuple.
    Anything else is returned as is, for RunConfig.validate to judge."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict) and dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return kind(**{k: _from_json(hints.get(k), v) for k, v in value.items()})
    return value


def config_from_dict(d: dict) -> RunConfig:
    """RunConfig from parsed JSON (see _from_json); an unknown or missing
    field is a ConfigurationError.  Types are checked by RunConfig.validate."""
    if not isinstance(d, dict):
        raise ConfigurationError("bad config: not a JSON object")
    try:
        return _from_json(RunConfig, d)
    except TypeError as exc:
        raise ConfigurationError(f"bad config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """RunConfig from a JSON file; a file that cannot be read, or does not
    hold UTF-8 JSON, is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(d)


def emit_results(result: RunResult, cfg: RunConfig, out_dir: str) -> None:
    """Write metrics.csv, config.json and exemplars.json (plus timings.csv).

    Wall-clock goes to timings.csv only; the seconds column in metrics.csv
    is rounded to milliseconds and excluded from determinism guarantees.
    Every file's content is built before any is written, and every file
    is written to a temporary name before the first is renamed into
    place (see _write_files): a failed build or write leaves the files of
    an earlier run intact.
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


@contextlib.contextmanager
def _output_dir(out_dir: str):
    """Create out_dir and its missing parents before the body runs, so a
    directory that cannot be created is a ConfigurationError before any
    training.  If the body raises, the directories made here are removed
    again, deepest first, while they are empty: a run that fails before
    it writes a file leaves nothing behind."""
    made = []
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create output directory {out_dir}: {exc.strerror}"
            ) from exc
        yield
    except BaseException:
        for path in made:  # deepest first; one that holds a file stays
            try:
                os.rmdir(path)
            except OSError:
                break
        raise


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    """Write every text to <name>.tmp in out_dir, then rename each into
    place: a failed write changes no file, and only a failed rename can
    leave the files before it replaced.  No temporary file is left."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    try:
        for path, text in zip(paths, files.values()):
            with open(path + ".tmp", "w") as fh:
                fh.write(text)
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for path in paths:  # only when a write or rename failed
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")


def run_and_emit(cfg: RunConfig) -> RunResult:
    """Run the experiment and write its result files into cfg.out_dir,
    which is created before any training (see _output_dir).  A run that
    diverges after its first task writes the files of the tasks it
    finished, the last RunResult run_tasks yielded, then re-raises the
    DivergenceError."""
    cfg.validate()  # cfg.out_dir is a string from here on
    with _output_dir(cfg.out_dir):
        result = None
        try:
            for result in run_tasks(cfg):
                pass
        except DivergenceError:
            if result is not None:
                emit_results(result, cfg, cfg.out_dir)
            raise
        emit_results(result, cfg, cfg.out_dir)
    return result


def ablate_n(
    cfg: RunConfig, values: list[int], seeds: list[int]
) -> dict[tuple[int, int], float]:
    """Run the neighbor-count ablation over shared seeds; one combined CSV
    in cfg.out_dir.  Every run's config, and every seed's data and stream,
    is checked, and cfg.out_dir created, before the first run trains.  A
    value or seed listed twice is a ConfigurationError: it would repeat
    a run."""
    for name, items in (("value", values), ("seed", seeds)):
        if len(set(items)) < len(items):
            raise ConfigurationError(f"ablation {name}s repeat: {list(items)}")
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
    with _output_dir(cfg.out_dir):
        for n, seed, run_cfg in runs:
            aa = run_experiment(run_cfg).records[-1].avg_accuracy
            out[(n, seed)] = aa
            rows.append(f"{n},{seed},{aa!r}")
        _write_files(cfg.out_dir, {"ablation.csv": "\n".join(rows) + "\n"})
    return out

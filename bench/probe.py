"""Wrappers around cilbench's public functions, installed from outside.

A Probe always captures what the output checks need (the datasets the
program built or loaded, every diverse_sample call and every t-SNE
embedding), which costs a few microseconds per call.  Given a SpanStore
it also records a span for each call to every function in TARGETS: name,
start, end and the index of the enclosing span, plus per-call counts.

Wrappers replace every module attribute in the cilbench package that is
the original function object, because callers look functions up by
different names: harness imports tsne_reduce, pca_reduce, make_stream,
make_blobs and load_cifar100 by name, and reduce calls its own
kl_divergence_and_grad and pca_reduce as module globals.
"""

from __future__ import annotations

import os
import sys
import time
import weakref
from collections import Counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    return 1 if shape is not None and len(shape) == 1 else len(X)


class SpanStore:
    """The spans of one round, in arrays allocated and touched up front.

    Recording a span then allocates nothing from malloc.  That matters:
    tsne-blobs' page-fault count depends on the malloc heap's layout.
    Spans kept in a growing Python list cut it from 2.45 M faults a round
    to 1.2-1.5 M and made traced rounds faster than untraced ones; with
    this store a traced round still takes about 1.95 M.
    """

    def __init__(self, capacity: int = 250_000):
        self.names: list[str] = []
        self.name = np.full(capacity, -1, dtype=np.int64)
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.start = np.full(capacity, 0.0)
        self.end = np.full(capacity, 0.0)
        self.count = 0
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def totals(self) -> tuple[dict, dict, dict, float]:
        """Inclusive seconds, calls and self seconds per span name, and the
        summed duration of top-level spans."""
        n = self.count
        name, parent = self.name[:n], self.parent[:n]
        dur = self.end[:n] - self.start[:n]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return ({nm: float(inclusive[i]) for i, nm in enumerate(self.names)},
                {nm: int(calls[i]) for i, nm in enumerate(self.names)},
                {nm: float(self_s[i]) for i, nm in enumerate(self.names)},
                float(dur[~nested].sum()))


class Probe:
    # (module, function, span name, captured even with tracing off)
    TARGETS = [
        ("data", "make_blobs", "data.load", True),
        ("data", "load_cifar100", "data.load", True),
        ("data", "make_stream", "data.stream", False),
        ("learner", "train_task", "learner.train", False),
        ("learner", "forward_batch", "learner.forward", False),
        ("learner", "snapshot_teacher", "learner.snapshot", False),
        ("reduce", "tsne_reduce", "reduce.tsne", True),
        ("reduce", "joint_affinities", "reduce.affinities", False),
        ("reduce", "kl_divergence_and_grad", "reduce.kl_grad", False),
        ("reduce", "pca_reduce", "reduce.pca", False),
        ("sampler", "diverse_sample", "sampler.select", True),
        ("sampler", "gonzalez_sample", "sampler.select", False),
        ("sampler", "random_sample", "sampler.select", False),
        ("harness", "run_experiment", "harness.run", False),
        ("harness", "evaluate", "harness.evaluate", False),
        ("harness", "exemplar_class_means", "harness.class_means", False),
        ("harness", "emit_results", "harness.emit", False),
    ]

    def __init__(self, spans: SpanStore | None, reduce_dim: int):
        self.spans = spans
        self.trace = spans is not None
        self.reduce_dim = reduce_dim
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # by "module.function"
        self.datasets: list = []  # (split, Dataset)
        self.selections: list = []  # (points, SamplerParams, selection)
        self.embeddings: list = []  # (input rows, Embedding)
        self._teachers: dict[int, weakref.ref] = {}
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == "cilbench" or k.startswith("cilbench.")}
        for mod_name, fn_name, span, captured in self.TARGETS:
            if not (self.trace or captured):
                continue
            original = getattr(mods["cilbench." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", span, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, key: str, span: str, fn):
        hook = getattr(self, "_after_" + key.replace(".", "_"), None)
        store = self.spans
        if store is not None:
            span_id = store.name_id(span)
            teacher_id = store.name_id("learner.teacher_forward")

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if store is None:
                result = fn(*args, **kwargs)
            else:
                idx = store.count
                if idx == len(store.start):
                    raise RuntimeError("SpanStore capacity exceeded")
                store.count = idx + 1
                teacher = (key == "learner.forward_batch"
                           and self._is_teacher(_arg(args, kwargs, 0, "model")))
                store.name[idx] = teacher_id if teacher else span_id
                store.parent[idx] = store.stack[-1] if store.stack else -1
                store.stack.append(idx)
                store.start[idx] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    store.end[idx] = time.perf_counter()
                    store.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _is_teacher(self, model) -> bool:
        ref = self._teachers.get(id(model))
        return ref is not None and ref() is model

    # -- per-function hooks (run after the span has closed) -----------------

    def _after_data_make_blobs(self, args, kwargs, ds):
        self.datasets.append(("train+test", ds))
        self.counts["data.train_rows"] += len(ds.train)

    def _after_data_load_cifar100(self, args, kwargs, ds):
        split = args[1] if len(args) > 1 else kwargs.get("split", "train")
        self.datasets.append((split, ds))
        self.counts["data.train_rows"] += len(ds.train)
        self.counts["data.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_learner_train_task(self, args, kwargs, result):
        tcfg = _arg(args, kwargs, 4, "tcfg")
        self.counts["learner.train_samples"] += len(_arg(args, kwargs, 1, "data")) * tcfg.epochs

    def _after_learner_forward_batch(self, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        key = "learner.teacher_forward_rows" if self._is_teacher(model) else "learner.forward_rows"
        self.counts[key] += _rows(_arg(args, kwargs, 1, "X"))

    def _after_learner_snapshot_teacher(self, args, kwargs, snapshot):
        self._teachers[id(snapshot.model)] = weakref.ref(snapshot.model)

    def _after_reduce_tsne_reduce(self, args, kwargs, emb):
        self.embeddings.append((_rows(_arg(args, kwargs, 0, "X")), emb))
        if emb.warnings:
            self.counts["reduce.fallbacks"] += 1

    def _after_reduce_pca_reduce(self, args, kwargs, emb):
        if _arg(args, kwargs, 1, "d") < self.reduce_dim:
            self.counts["reduce.fallbacks"] += 1

    def _after_sampler_diverse_sample(self, args, kwargs, selection):
        E = _arg(args, kwargs, 0, "E")
        self.selections.append((getattr(E, "points", E), _arg(args, kwargs, 1, "p"), list(selection)))

    def _after_harness_evaluate(self, args, kwargs, acc):
        self.counts["harness.evaluate_rows"] += len(_arg(args, kwargs, 1, "pool"))

    def _after_harness_emit_results(self, args, kwargs, result):
        out_dir = _arg(args, kwargs, 2, "out_dir")
        self.counts["harness.emit_bytes"] += sum(
            e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
        )

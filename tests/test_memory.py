"""The exemplar memory as harness.memory_steps builds it with no training:
it equals the memory of runs that train, whatever the training set-up,
and the memory_reference oracle's at every task; and no store it yields,
or RunResult run_tasks yields, changes afterwards."""

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilbench import harness
from cilbench.data import BlobsSpec, StreamSpec, TaskBatch
from cilbench.harness import (
    RunConfig, load_dataset, memory_steps, outlier_benchmark_config, run_experiment,
)
from cilbench.learner import TrainConfig
from cilbench.sampler import SamplerParams
from helpers import small_config
from oracles import memory_reference


def memory_trajectory(cfg, ds, tasks) -> list[str]:
    """store.to_json() after each task, from memory_steps resumed twice per
    task with nothing trained in between."""
    after_each = []
    with contextlib.closing(memory_steps(cfg, ds, tasks)) as steps:
        for _ in tasks:
            next(steps)
            store, _warnings = next(steps)
            after_each.append(store.to_json())
    return after_each


def by_class(store_json: str) -> dict[int, list[int]]:
    return {c["class"]: c["indices_into_train"] for c in json.loads(store_json)["classes"]}


def assert_matches_reference(cfg, ds=None, tasks=None):
    ds = ds if ds is not None else load_dataset(cfg)
    tasks = tasks if tasks is not None else harness._checked_stream(cfg, ds)
    steps = [by_class(s) for s in memory_trajectory(cfg, ds, tasks)]
    assert steps == memory_reference(cfg, ds, tasks)


@pytest.mark.parametrize("stream", [None, StreamSpec("fuzzy", 2, 20)], ids=["disjoint", "fuzzy"])
@pytest.mark.parametrize("kind", ["diverse", "random"])
def test_memory_does_not_depend_on_training(kind, stream):
    cfg = outlier_benchmark_config(kind, 5, 3)
    if stream is not None:
        cfg = dataclasses.replace(cfg, stream=stream)
    other = dataclasses.replace(
        cfg, train=TrainConfig(epochs=1, batch_size=7, learning_rate=0.3),
        hidden_sizes=(5,), classifier="softmax_head",
    )
    ds = load_dataset(cfg)
    last = memory_trajectory(cfg, ds, harness._checked_stream(cfg, ds))[-1]
    assert run_experiment(cfg).store.to_json() == last
    assert run_experiment(other).store.to_json() == last


@pytest.mark.parametrize("stream", [None, StreamSpec("fuzzy", 2, 20)], ids=["disjoint", "fuzzy"])
def test_nothing_yielded_changes_afterwards(stream):
    cfg = small_config() if stream is None else small_config(stream=stream)
    ds = load_dataset(cfg)
    tasks = harness._checked_stream(cfg, ds)
    stores = []  # (store, its json when yielded)
    with contextlib.closing(memory_steps(cfg, ds, tasks)) as steps:
        for _ in tasks:
            next(steps)
            store, _warnings = next(steps)
            stores.append((store, store.to_json()))
    assert len(stores) == len(tasks) == 2
    assert [s.to_json() for s, _ in stores] == [when for _, when in stores]
    results = [(r, r.store.to_json(), len(r.records)) for r in harness.run_tasks(cfg, ds)]
    assert ([(r.store.to_json(), len(r.records)) for r, _, _ in results]
            == [(when, n) for _, when, n in results])
    assert [n for _, _, n in results] == [1, 2]


def _tsne_blobs_config(seed):
    """The benchmark's tsne-blobs run: 32-D blobs embedded by the default
    exact t-SNE, filtered and sampled by diverse n=5."""
    return RunConfig(
        blobs=BlobsSpec(num_classes=10, per_class=200, dim=32, outlier_fraction=0.1),
        stream=StreamSpec("disjoint", 2), sampler_params=SamplerParams(m=1, n=5),
        reducer="tsne", seed=seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tsne_memory_filters_planted_outliers(seed):
    # the benchmark's rule: a planted outlier lies more than 9 spreads from
    # its class's median (they are planted at least 10 spreads out); a tenth
    # of each class is planted, and 0.6-0.9% of the rows the benchmark's
    # traced runs stored (seeds 0-5) were planted ones
    cfg = _tsne_blobs_config(seed)
    ds = load_dataset(cfg)
    far = np.zeros(len(ds.y_train), dtype=bool)
    for c in range(ds.num_classes):
        rows = ds.y_train == c
        centre = np.median(ds.X_train[rows], axis=0)
        far[rows] = np.linalg.norm(ds.X_train[rows] - centre, axis=1) > 9 * cfg.blobs.spread
    last = memory_trajectory(cfg, ds, harness._checked_stream(cfg, ds))[-1]
    stored = [i for rows in by_class(last).values() for i in rows]
    assert len(stored) == cfg.memory_budget
    assert far[stored].mean() <= 0.02


def _shortfall_config(kind="diverse"):
    """Six classes of 16 training rows in a 30% fuzzy stream: the donors run
    2 rows short in task 2, which draws them with replacement."""
    base = outlier_benchmark_config(kind, 5, 2)
    return dataclasses.replace(
        base,
        blobs=dataclasses.replace(base.blobs, num_classes=6, per_class=20),
        stream=StreamSpec("fuzzy", 2, 30),
        memory_budget=200,
    )


@st.composite
def memory_configs(draw):
    num_classes = draw(st.integers(2, 6))
    mode = draw(st.sampled_from(["disjoint", "fuzzy"]))
    per_task = draw(st.sampled_from([
        q for q in range(1, num_classes + 1)
        if num_classes % q == 0 and (mode == "disjoint" or num_classes >= 2 * q)
    ]))
    return small_config(
        blobs=BlobsSpec(
            num_classes=num_classes, per_class=draw(st.integers(3, 15)), dim=2, spread=0.3,
            outlier_fraction=draw(st.sampled_from([0.0, 0.2])),
        ),
        stream=StreamSpec(
            mode, per_task,
            fuzz_percent=draw(st.integers(5, 60)) if mode == "fuzzy" else 0,
            class_order=draw(st.none() | st.permutations(range(num_classes)).map(tuple)),
        ),
        sampler_kind=draw(st.sampled_from(["diverse", "random"])),
        sampler_params=SamplerParams(
            m=1, n=draw(st.integers(0, 5)), r0=draw(st.sampled_from([0.05, 0.5])),
            max_adapt=draw(st.sampled_from([2, 1000])),
        ),
        memory_budget=num_classes + draw(st.integers(0, 3) | st.integers(0, 10 * num_classes)),
        seed=draw(st.integers(0, 1000)),
    )


class TestAgainstReference:
    """Each task's memory from memory_steps equals memory_reference's."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=memory_configs())
    @example(cfg=_shortfall_config("random"))
    @example(cfg=dataclasses.replace(_shortfall_config(), memory_budget=6))
    def test_every_task_equals_reference(self, cfg):
        assert_matches_reference(cfg)

    @pytest.mark.parametrize("kind", ["diverse", "random"])
    def test_old_class_back_with_one_row(self, kind):
        # a stray row of class 0 in task 1: the class is re-selected from it
        # and the exemplars it keeps, not from the row alone
        cfg = small_config(sampler_kind=kind)
        ds = load_dataset(cfg)
        rows = [np.flatnonzero(ds.y_train == c) for c in range(4)]
        tasks = [
            TaskBatch(0, {0, 1}, np.concatenate([rows[0][:-1], rows[1]])),
            TaskBatch(1, {2, 3}, np.concatenate([rows[2], rows[0][-1:], rows[3]])),
        ]
        assert_matches_reference(cfg, ds, tasks)

    def test_row_drawn_twice_in_a_fuzzy_task(self):
        cfg = _shortfall_config()
        ds = load_dataset(cfg)
        tasks = harness._checked_stream(cfg, ds)
        assert [t.warnings for t in tasks] == [
            [], [], ["task 2: minor pool exhausted, sampled 2 examples with replacement"]
        ]
        assert_matches_reference(cfg, ds, tasks)

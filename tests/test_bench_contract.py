"""What the benchmark under bench/ reads of the program, pinned here.

bench/probe.py wraps every function its Probe.TARGETS names, and its hooks
and bench/worker.py read fields of the objects those functions take and
return.  A change to the program that drops one of them breaks only the
benchmark's traced round, so these tests make the same calls and reads.
The bench modules are imported as they are, never changed.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from probe import Probe, SpanStore  # noqa: E402
from cilbench import harness  # noqa: E402
from cilbench.reduce import TsneConfig  # noqa: E402
from helpers import small_config  # noqa: E402


@pytest.mark.parametrize("module, name", [(m, f) for m, f, *_ in Probe.TARGETS],
                         ids=[f"{m}.{f}" for m, f, *_ in Probe.TARGETS])
def test_every_probe_target_is_a_function(module, name):
    assert callable(getattr(importlib.import_module("cilbench." + module), name, None))


def example_epochs(cfg, ds, result) -> int:
    """What bench/worker.py compares learner.train_samples with: every
    task's rows plus the store it rehearses, times the epochs."""
    held = [0] + [r.exemplar_count for r in result.records[:-1]]
    tasks = harness._checked_stream(cfg, ds)
    return sum((len(t.example_indices) + h) * cfg.train.epochs for t, h in zip(tasks, held))


@pytest.mark.parametrize("classifier, extra", [("softmax_head", []),
                                               ("nme", ["harness.exemplar_class_means"])])
def test_traced_run_makes_the_expected_calls_and_fields(tmp_path, classifier, extra):
    cfg = small_config(reducer="tsne", tsne=TsneConfig(iterations=60), classifier=classifier)
    expected = workloads.tsne_blobs(0, str(tmp_path / "tsne-blobs")).expected_calls + extra
    # as a traced benchmark round runs an experiment: through the harness
    # module's attributes, which the probe replaces
    probe = Probe(SpanStore(), cfg.reduce_dim)
    with probe:
        result = harness.run_experiment(cfg)
        harness.emit_results(result, cfg, str(tmp_path / "out"))
    assert not [name for name in expected if probe.calls[name] == 0]
    assert probe.spans.count > 0

    # the fields bench/worker.py reads of what the probe captured
    (_, ds), = probe.datasets
    assert probe.counts["learner.train_samples"] == example_epochs(cfg, ds, result)
    for split in (ds.train, ds.test):
        assert split and all(
            np.shape(ex.features) == (cfg.blobs.dim,) and isinstance(ex.label, (int, np.integer))
            for ex in split
        )
    assert probe.selections
    for _, sp, _ in probe.selections:
        assert all(isinstance(getattr(sp, f), (int, float))
                   for f in ("m", "n", "r0", "delta_r", "max_adapt"))
    assert probe.embeddings
    for n_rows, emb in probe.embeddings:
        assert emb.points.shape == (n_rows, cfg.reduce_dim)
        assert len(emb.kl_trace) == cfg.tsne.iterations
    assert sorted(result.class_order_seen) == list(range(cfg.blobs.num_classes))
    assert len(result.model.weights) == len(result.model.biases) == len(cfg.hidden_sizes) + 1


def test_traced_outlier_grid_shaped_runs_make_the_expected_calls(tmp_path):
    """A random and a diverse run with outlier-grid's classifier and reducer
    make every call a traced outlier-grid round requires, between them,
    and each hands train_task exactly its example-epochs."""
    expected = workloads.outlier_grid(0, str(tmp_path / "outlier-grid")).expected_calls
    calls = Counter()
    for kind in ("random", "diverse"):
        cfg = small_config(sampler_kind=kind, reducer="none", classifier="nme")
        probe = Probe(SpanStore(), cfg.reduce_dim)
        with probe:
            result = harness.run_experiment(cfg)
            harness.emit_results(result, cfg, str(tmp_path / kind))
        calls.update(probe.calls)
        (_, ds), = probe.datasets
        assert probe.counts["learner.train_samples"] == example_epochs(cfg, ds, result)
    assert not [name for name in expected if calls[name] == 0]


def test_every_workload_config_is_valid(tmp_path):
    """Each workload's configs pass the program's own validation, so a new
    config rule cannot fail a benchmark round that this suite never runs."""
    for name, build in workloads.WORKLOADS.items():
        inputs = build(0, str(tmp_path / name))
        for exp in inputs.experiments:
            cfg = harness.load_config(exp.config_path)
            cfg.validate()
            assert cfg.reduce_dim == inputs.reduce_dim

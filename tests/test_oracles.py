"""The batched code the pipeline runs, checked against the single-example
definitions in oracles.py, and a guard that keeps those definitions
independent of cilbench."""

import ast
from pathlib import Path

import numpy as np
import pytest

import oracles
from cilbench.harness import evaluate
from cilbench.learner import (
    LossConfig,
    MlpModel,
    batch_loss_and_grads,
    forward_batch,
    init_mlp,
    snapshot_teacher,
)


def test_oracles_import_nothing_from_cilbench_but_errors():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.level, node.module or ""))
    assert imported, "no imports found: the guard would pass vacuously"
    for level, name in imported:
        root = name.split(".")[0]
        assert level == 0, f"relative import of {name!r}"
        # a test module could pass cilbench code through
        assert not root.startswith(("test_", "conftest")), name
        assert root != "cilbench" or name == "cilbench.errors", name


@pytest.mark.parametrize("with_teacher", [False, True], ids=["no-teacher", "teacher"])
def test_batch_loss_is_mean_of_example_losses(with_teacher):
    rng = np.random.default_rng(41 if with_teacher else 40)
    for trial in range(100):
        ell, q, dim = (int(v) for v in rng.integers(1, 5, size=3))
        model = init_mlp(dim, (int(rng.integers(2, 9)),), ell + q, seed=trial)
        # a wide range of logit scales, up to saturating the probability floor
        model.weights[-1] *= rng.uniform(1.0, 40.0)
        teacher = None
        if with_teacher:
            teacher = snapshot_teacher(init_mlp(dim, (int(rng.integers(2, 9)),), ell, seed=trial + 500))
            teacher.model.weights[-1] *= rng.uniform(1.0, 40.0)
        n = int(rng.integers(1, 25))
        X = rng.normal(0.0, 3.0, size=(n, dim))
        y = rng.integers(0, ell + q, size=n)
        T, beta = float(rng.uniform(1.05, 10.0)), float(rng.uniform(0.0, 1.0))

        loss, _ = batch_loss_and_grads(model, X, y, teacher, LossConfig(T, beta))

        logits, _ = forward_batch(model, X)
        t_logits = forward_batch(teacher.model, X)[0] if with_teacher else [None] * n
        per_row = [oracles.example_loss(logits[i], int(y[i]), t_logits[i], T, beta) for i in range(n)]
        assert abs(loss - float(np.mean(per_row))) <= 1e-12


def _identity_model(dim: int) -> MlpModel:
    """Two identity layers: the penultimate features of a row of
    non-negative inputs are the row itself, exactly."""
    return MlpModel(weights=[np.eye(dim), np.eye(dim)], biases=[np.zeros(dim), np.zeros(dim)])


def test_batched_nme_matches_per_row_oracle():
    rng = np.random.default_rng(42)
    tied_rows = 0
    for trial in range(300):
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 30))
        class_ids = rng.choice(50, size=k, replace=False)
        if trial % 2:
            # small integers: distances are exact in any summation order,
            # so equal distances are real ties
            X = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
            means = rng.integers(-1, 3, size=(k, dim)).astype(np.float64)
        else:
            X = rng.uniform(0.0, 3.0, size=(n, dim))
            means = rng.normal(1.0, 1.0, size=(k, dim))
        if k > 1 and trial % 3 == 0:
            means[-1] = means[0]  # duplicate means: a tie on every row
        class_means = {int(c): m for c, m in zip(class_ids, means)}

        expected = np.array([oracles.nme_classify(x, class_means) for x in X])
        acc = evaluate(_identity_model(dim), X, expected, list(class_means), class_means)
        assert acc == 1.0, f"trial {trial}: batched NME disagrees on {1 - acc:.0%} of rows"

        d = np.linalg.norm(X[:, None, :] - means[None, :, :], axis=2)
        tied_rows += int(np.sum((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1))
    assert tied_rows > 100  # the instances do exercise tie-breaking

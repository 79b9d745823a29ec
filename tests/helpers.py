"""Builders shared by several test modules: a small runnable config, a
finite-difference gradient and a planted-outlier point set."""

import copy

import numpy as np

from cilbench.data import BlobsSpec, StreamSpec
from cilbench.harness import RunConfig
from cilbench.learner import TrainConfig, batch_loss_and_grads
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


def fd_gradient(model, k, idx, X, y, teacher, lcfg, eps=1e-6):
    plus, minus = copy.deepcopy(model), copy.deepcopy(model)
    plus.weights[k][idx] += eps
    minus.weights[k][idx] -= eps
    lp, _ = batch_loss_and_grads(plus, X, y, teacher, lcfg)
    lm, _ = batch_loss_and_grads(minus, X, y, teacher, lcfg)
    return (lp - lm) / (2 * eps)


def planted_outlier_instance(rng, n_outliers=2):
    """Tight clusters plus isolated far points; returns (pts, outlier idx set)."""
    clusters = []
    centers = rng.uniform(-2, 2, size=(3, 2))
    for c in centers:
        clusters.append(c + rng.normal(0, 0.1, size=(rng.integers(15, 30), 2)))
    pts = np.vstack(clusters)
    outliers = []
    for _ in range(n_outliers):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        outliers.append(direction * rng.uniform(20, 40))
    start = len(pts)
    pts = np.vstack([pts, np.array(outliers)])
    perm = rng.permutation(len(pts))
    inverse = np.argsort(perm)
    return pts[perm], {int(inverse[start + k]) for k in range(n_outliers)}

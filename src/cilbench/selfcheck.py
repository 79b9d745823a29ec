"""Built-in property and oracle battery behind the `verify` CLI command.

A fast subset of the test suite that needs no pytest: sampler equivalence
and oracle round-trips on random instances, plus finite-difference checks
of the training loss gradient and the t-SNE KL gradient, and the float32
t-SNE gradient against the float64 one.
"""

from __future__ import annotations

import copy

import numpy as np

from . import learner, reduce, sampler
from .learner import LossConfig


def _random_instance(rng) -> np.ndarray:
    n = int(rng.integers(4, 60))
    return rng.normal(0.0, 2.0, size=(n, 2))


def check_filter_off_equivalence(seed: int = 0, trials: int = 50) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        pts = _random_instance(rng)
        m = int(rng.integers(1, min(10, len(pts)) + 1))
        params = sampler.SamplerParams(m=m, n=0)
        if sampler.diverse_sample(pts, params) != sampler.gonzalez_sample(pts, m):
            return False
    return True


def check_oracle_roundtrip(seed: int = 1, trials: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        pts = _random_instance(rng)
        m = int(rng.integers(1, min(12, len(pts)) + 1))
        n = int(rng.integers(0, 4))
        params = sampler.SamplerParams(m=m, n=n, r0=float(rng.uniform(0.05, 1.0)))
        picked = sampler.diverse_sample(pts, params)
        if not sampler.verify_selection(pts, params, picked):
            return False
    return True


def check_gradients(seed: int = 2, trials: int = 5, tol: float = 1e-4) -> bool:
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        ell, q = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        model = learner.init_mlp(3, (6,), ell + q, seed=trial)
        teacher = learner.snapshot_teacher(learner.init_mlp(3, (6,), ell, seed=trial + 99))
        X = rng.normal(size=(4, 3))
        y = rng.integers(0, ell + q, size=4)
        lcfg = LossConfig(temperature=2.0, beta=0.5)
        _, grads = learner.batch_loss_and_grads(model, X, y, teacher, lcfg)
        for k in range(len(model.weights)):
            W = model.weights[k]
            idx = (int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1])))
            eps = 1e-6
            plus = _perturbed_loss(model, k, idx, eps, X, y, teacher, lcfg)
            minus = _perturbed_loss(model, k, idx, -eps, X, y, teacher, lcfg)
            fd = (plus - minus) / (2 * eps)
            an = grads[k][0][idx]
            if abs(fd - an) > tol * max(1.0, abs(fd)):
                return False
    return True


def _perturbed_loss(model, k, idx, eps, X, y, teacher, lcfg) -> float:
    m2 = copy.deepcopy(model)
    m2.weights[k][idx] += eps
    loss, _ = learner.batch_loss_and_grads(m2, X, y, teacher, lcfg)
    return loss


def check_tsne_gradient(seed: int = 3, trials: int = 3, tol: float = 1e-4) -> bool:
    """Central differences of the t-SNE kernel's KL against its gradient, and
    the gradient without the KL value equal to the one with it."""
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for _ in range(trials):
        n = int(rng.integers(10, 15))
        P = reduce.joint_affinities(rng.normal(size=(n, 4)), perplexity=3.0)
        Y = rng.normal(size=(n, 2))
        _, grad = reduce.kl_divergence_and_grad(P, Y)
        if not np.array_equal(grad, reduce.kl_divergence_and_grad(P, Y, with_kl=False)[1]):
            return False
        for i in range(n):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += eps
                Ym[i, j] -= eps
                fd = (reduce.kl_divergence_and_grad(P, Yp)[0]
                      - reduce.kl_divergence_and_grad(P, Ym)[0]) / (2 * eps)
                if abs(fd - grad[i, j]) > tol * max(1.0, abs(fd)):
                    return False
    return True


def check_tsne_float32(seed: int = 4, trials: int = 3, tol: float = 1e-4) -> bool:
    """The float32 t-SNE gradient the descent runs, within tol of the largest
    entry of the float64 gradient on the same inputs."""
    rng = np.random.default_rng(seed)
    for n in rng.integers(10, 160, size=trials):
        P = reduce.joint_affinities(rng.normal(size=(n, 4)), 3.0).astype(np.float32)
        Y = rng.normal(size=(n, 2)).astype(np.float32)
        grad = reduce.kl_divergence_and_grad(P, Y, with_kl=False)[1]
        ref = reduce.kl_divergence_and_grad(P.astype(np.float64), Y.astype(np.float64))[1]
        if np.abs(grad - ref).max() > tol * np.abs(ref).max():
            return False
    return True


def run_selfcheck(seed: int = 0) -> list[tuple[str, bool]]:
    return [
        ("filter_off_equivalence", check_filter_off_equivalence(seed)),
        ("oracle_roundtrip", check_oracle_roundtrip(seed + 1)),
        ("gradient_finite_difference", check_gradients(seed + 2)),
        ("tsne_gradient_finite_difference", check_tsne_gradient(seed + 3)),
        ("tsne_float32_gradient", check_tsne_float32(seed + 4)),
    ]

"""Dimensionality reduction: PCA and an exact O(N^2) t-SNE.

The t-SNE here is the plain, non-tree-accelerated variant: Gaussian
input affinities with per-point bandwidths found by bisection to hit a
target perplexity, Student-t output affinities, and momentum gradient
descent on KL(P||Q) with an early-exaggeration phase.  Class sample
counts at this scale make the quadratic cost irrelevant, and the exact
gradient is easy to validate against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

_EPS = 1e-12


@dataclass
class Embedding:
    points: np.ndarray  # (N, d), row i embeds input row i
    warnings: list[str] = field(default_factory=list)
    kl_trace: list[float] | None = None


@dataclass(frozen=True)
class TsneConfig:
    target_dim: int = 2
    perplexity: float = 30.0
    iterations: int = 500
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 100
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0
    init: str = "pca"

    def validate(self) -> None:
        if self.target_dim < 1:
            raise ConfigurationError("target_dim must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.perplexity < 2:
            raise ConfigurationError("perplexity must be >= 2")
        if self.init not in ("pca", "random"):
            raise ConfigurationError(f"unknown init {self.init!r}")


def _as_matrix(X) -> np.ndarray:
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1:
        raise ConfigurationError("input must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(M)):
        raise DataError("non-finite values in feature matrix")
    return M


def pca_reduce(X, d: int) -> Embedding:
    """Mean-centered projection onto the top-d principal directions.

    Component signs follow the convention that the largest-magnitude
    loading of each direction is positive, so output is deterministic.
    """
    M = _as_matrix(X)
    n, dim = M.shape
    if not 1 <= d <= min(n, dim):
        raise ConfigurationError(f"d={d} out of range for {n}x{dim} input")
    centered = M - M.mean(axis=0)
    # economy SVD instead of a DxD eigendecomposition: rows may be far
    # shorter than the feature dimension (e.g. pixel data)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comp = vt[:d].T
    for j in range(comp.shape[1]):
        k = np.argmax(np.abs(comp[:, j]))
        if comp[k, j] < 0:
            comp[:, j] = -comp[:, j]
    return Embedding(points=centered @ comp)


def pairwise_sq_dists(Y: np.ndarray) -> np.ndarray:
    sq = np.sum(Y * Y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _row_affinities(d2_row: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Gaussian affinities for one row at precision beta; returns (p, entropy in nats)."""
    w = np.exp(-d2_row * beta)
    s = w.sum()
    if s <= 0:
        p = np.zeros_like(w)
        return p, 0.0
    p = w / s
    # H = ln(sum w) + beta * <d2>_p
    h = np.log(s) + beta * float(np.dot(d2_row, p))
    return p, h


def conditional_affinities(
    d2: np.ndarray, perplexity: float, tol: float = 1e-5, max_steps: int = 50
) -> np.ndarray:
    """Per-row Gaussian affinities with bandwidths bisected to the target
    perplexity (entropy target log(perplexity), self excluded)."""
    n = d2.shape[0]
    target = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        p, h = _row_affinities(row, beta)
        for _ in range(max_steps):
            if abs(h - target) < tol:
                break
            if h > target:  # too smooth: raise precision
                lo = beta
                beta = beta * 2.0 if np.isinf(hi) else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (beta + lo) / 2.0
            p, h = _row_affinities(row, beta)
        P[i, np.arange(n) != i] = p
    return P


def joint_affinities(X: np.ndarray, perplexity: float) -> np.ndarray:
    cond = conditional_affinities(pairwise_sq_dists(X), perplexity)
    P = (cond + cond.T) / (2.0 * X.shape[0])
    return np.maximum(P, _EPS)


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P||Q) under the Student-t output kernel and its gradient in Y."""
    num = 1.0 / (1.0 + pairwise_sq_dists(Y))
    np.fill_diagonal(num, 0.0)
    Q = np.maximum(num / num.sum(), _EPS)
    kl = float(np.sum(P * np.log(P / Q)))
    W = (P - Q) * num
    grad = 4.0 * ((np.diag(W.sum(axis=1)) - W) @ Y)
    return kl, grad


def tsne_reduce(X, cfg: TsneConfig = TsneConfig()) -> Embedding:
    """Exact t-SNE; falls back to PCA for tiny or degenerate inputs."""
    cfg.validate()
    M = _as_matrix(X)
    n, dim = M.shape
    d = cfg.target_dim
    if n < 4:
        emb = pca_reduce(M, min(d, min(n, dim)))
        emb = _pad_dims(emb, d)
        emb.warnings.append(f"N={n} < 4: fell back to PCA")
        return emb
    if np.allclose(M, M[0]):
        emb = Embedding(points=np.zeros((n, d)))
        emb.warnings.append("duplicate-only input: fell back to PCA")
        return emb

    perplexity = min(cfg.perplexity, (n - 1) / 3.0)
    perplexity = max(perplexity, 2.0)
    P = joint_affinities(M, perplexity)

    rng = np.random.default_rng(cfg.seed)
    if cfg.init == "pca":
        Y = _pad_dims(pca_reduce(M, min(d, min(n, dim))), d).points.copy()
        std = Y[:, 0].std()
        Y = Y / std * 1e-4 if std > 0 else rng.normal(0.0, 1e-4, size=(n, d))
    else:
        Y = rng.normal(0.0, 1e-4, size=(n, d))

    velocity = np.zeros_like(Y)
    trace: list[float] = []
    for it in range(cfg.iterations):
        exag = cfg.early_exaggeration if it < cfg.exaggeration_iters else 1.0
        mom = cfg.momentum_start if it < cfg.momentum_switch_iter else cfg.momentum_final
        _, grad = kl_divergence_and_grad(np.maximum(P * exag, _EPS), Y)
        velocity = mom * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        kl, _ = kl_divergence_and_grad(P, Y)
        trace.append(kl)
    if not np.all(np.isfinite(Y)):
        raise DataError("t-SNE diverged to non-finite coordinates")
    return Embedding(points=Y, kl_trace=trace)


def _pad_dims(emb: Embedding, d: int) -> Embedding:
    if emb.points.shape[1] < d:
        pad = np.zeros((emb.points.shape[0], d - emb.points.shape[1]))
        emb.points = np.hstack([emb.points, pad])
    return emb


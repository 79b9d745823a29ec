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
# tsne_reduce computes the KL value every KL_EVERY-th step (see
# kl_trace_steps), as scikit-learn's TSNE checks its error every 50 steps
KL_EVERY = 50


@dataclass
class Embedding:
    points: np.ndarray  # (N, d), row i embeds input row i; the start while pending
    warnings: list[str] = field(default_factory=list)
    kl_trace: list[float] | None = None
    # a t-SNE descent not yet run: its joint affinities P and its settings
    pending: tuple[np.ndarray, TsneConfig] | None = None


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 500
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 100
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.perplexity < 2:
            raise ConfigurationError("perplexity must be >= 2")
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be > 0")
        if not self.early_exaggeration >= 1:
            raise ConfigurationError("early_exaggeration must be >= 1")
        if min(self.exaggeration_iters, self.momentum_switch_iter) < 0:
            raise ConfigurationError("exaggeration_iters and momentum_switch_iter must be >= 0")
        if not (0 <= self.momentum_start < 1 and 0 <= self.momentum_final < 1):
            raise ConfigurationError("momentum_start and momentum_final must be in [0, 1)")


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
    # eigenvectors of the smaller Gram matrix: rows may be far fewer than
    # features (pixel data) or far more (low-dimensional embeddings)
    wide = n <= dim
    with np.errstate(over="ignore", invalid="ignore"):
        centered = M - M.mean(axis=0)
        gram = centered @ centered.T if wide else centered.T @ centered
    if not np.all(np.isfinite(gram)):
        raise DataError("feature values too large: the PCA Gram matrix overflows")
    evals, evecs = np.linalg.eigh(gram)
    evals, evecs = evals[::-1][:d], evecs[:, ::-1][:, :d]
    # a component at the rounding level of the largest carries no variance
    # and gets zero coordinates instead of a direction made of noise
    live = evals > evals[0] * max(n, dim) * np.finfo(np.float64).eps
    comp = evecs[:, live]
    if wide:  # unit row-space eigenvectors to unit feature directions
        comp = centered.T @ (comp / np.sqrt(evals[live]))
    k = np.argmax(np.abs(comp), axis=0)
    comp *= np.where(comp[k, np.arange(comp.shape[1])] < 0, -1.0, 1.0)
    points = np.zeros((n, d))
    points[:, live] = centered @ comp
    return Embedding(points=points)


def pairwise_sq_dists(Y: np.ndarray) -> np.ndarray:
    sq = np.sum(Y * Y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _row_affinities(rows: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian affinities of each row at its precision; returns (p, entropy in nats)."""
    w = np.exp(-rows * beta[:, None])
    s = w.sum(axis=1)
    ok = s > 0
    p = np.divide(w, s[:, None], out=np.zeros_like(w), where=ok[:, None])
    # H = ln(sum w) + beta * <d2>_p; a stack of row-by-column matmuls is one
    # dot product per row, so each row's entropy is what np.dot gives it
    dots = np.matmul(rows[:, None, :], p[:, :, None])[:, 0, 0]
    h = np.zeros_like(s)
    np.log(s, out=h, where=ok)
    h[ok] += beta[ok] * dots[ok]
    return p, h


def conditional_affinities(
    d2: np.ndarray, perplexity: float, tol: float = 1e-5, max_steps: int = 50
) -> np.ndarray:
    """Per-row Gaussian affinities with bandwidths bisected to the target
    perplexity (entropy target log(perplexity), self excluded).  All rows
    bisect together; a row stops once its entropy is within tol."""
    n = d2.shape[0]
    target = np.log(perplexity)
    off_diag = ~np.eye(n, dtype=bool)
    rows = d2[off_diag].reshape(n, n - 1)
    beta, lo, hi = np.ones(n), np.zeros(n), np.full(n, np.inf)
    p, h = _row_affinities(rows, beta)
    active = np.arange(n)
    for _ in range(max_steps):
        active = active[~(np.abs(h[active] - target) < tol)]
        if active.size == 0:
            break
        b, low, high = beta[active], lo[active], hi[active]
        smooth = h[active] > target  # too smooth: raise precision
        lo[active] = np.where(smooth, b, low)
        hi[active] = np.where(smooth, high, b)
        beta[active] = np.where(
            smooth, np.where(np.isinf(high), b * 2.0, (b + high) / 2.0), (b + low) / 2.0
        )
        p[active], h[active] = _row_affinities(rows[active], beta[active])
    P = np.zeros((n, n))
    P[off_diag] = p.ravel()
    return P


def joint_affinities(X: np.ndarray, perplexity: float) -> np.ndarray:
    # distances of the rows as given, not centred: rows with a large common
    # offset can overflow here although pca_reduce, which centres, does not
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_dists(X)
    if not np.all(np.isfinite(d2)):
        raise DataError("feature values too large: the t-SNE squared distances overflow")
    cond = conditional_affinities(d2, perplexity)
    P = (cond + cond.T) / (2.0 * X.shape[0])
    return np.maximum(P, _EPS)


def kl_divergence_and_grad(
    P: np.ndarray,
    Y: np.ndarray,
    P_grad: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    with_kl: bool = True,
) -> tuple[float, np.ndarray]:
    """KL(P||Q) under the Student-t output kernel and the gradient in Y of
    KL(P_grad||Q) (P_grad defaults to P), from one pass over Q.

    With with_kl false the four N x N passes of the KL value are skipped
    and the value is NaN; the gradient is the same to the bit.  work is a
    tuple of three (N, N) float64 arrays that receive every N x N
    intermediate; without it they are allocated here.  The operation order
    is fixed, so results do not depend on whether work is given.
    """
    if P_grad is None:
        P_grad = P
    n = Y.shape[0]
    if work is None:
        work = tuple(np.empty((n, n)) for _ in range(3))
    a, num, c = work
    # num = 1 / (1 + pairwise_sq_dists(Y)), zero diagonal; Y @ Y.T stays a
    # one-operand product (numpy's syrk), which rounds unlike a general gemm
    sq = np.sum(Y * Y, axis=1)
    np.matmul(Y, Y.T, out=a)
    np.multiply(a, 2.0, out=a)
    np.add(sq[:, None], sq[None, :], out=num)
    np.subtract(num, a, out=num)
    np.fill_diagonal(num, 0.0)
    np.maximum(num, 0.0, out=num)
    np.add(num, 1.0, out=num)
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    Q = np.divide(num, num.sum(), out=a)
    np.maximum(Q, _EPS, out=Q)
    kl = np.nan
    if with_kl:
        np.divide(P, Q, out=c)
        np.log(c, out=c)
        np.multiply(P, c, out=c)
        kl = float(np.sum(c))
    # L = (Q - P_grad) * num is -W for W = (P_grad - Q) * num, exactly;
    # grad = 4 (diag(rowsum W) - W) @ Y = 4 (L - diag(rowsum L)) @ Y
    L = np.subtract(Q, P_grad, out=a)
    np.multiply(L, num, out=L)
    L.flat[:: n + 1] -= L.sum(axis=1)
    grad = 4.0 * (L @ Y)
    return kl, grad


def kl_trace_steps(iterations: int, exaggeration_iters: int) -> list[int]:
    """The kl_trace entries tsne_reduce computes: every KL_EVERY-th, the
    last step of early exaggeration and the last step."""
    steps = set(range(KL_EVERY - 1, iterations, KL_EVERY)) | {iterations - 1}
    if 0 < exaggeration_iters <= iterations:
        steps.add(exaggeration_iters - 1)
    return sorted(steps)


def tsne_reduce(X, d: int, cfg: TsneConfig = TsneConfig(), descend: bool = True) -> Embedding:
    """Exact t-SNE of X to d dimensions, started from its PCA; falls back
    to PCA for tiny or degenerate inputs.

    kl_trace[t] is KL(P||Q) after step t at the steps kl_trace_steps names
    and NaN at the others: the value costs four of a step's N x N passes,
    and only the end of exaggeration and the last step are read.

    With descend false only the set-up runs (checks, fallbacks, the PCA
    start and the affinities) and a t-SNE result is pending: its points
    are the start until finish_tsne(emb, *tsne_descent(emb)) completes it."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    cfg.validate()
    M = _as_matrix(X)
    n, dim = M.shape
    if n < 4:
        emb = pca_reduce(M, min(d, min(n, dim)))
        emb = _pad_dims(emb, d)
        emb.warnings.append(f"N={n} < 4: fell back to PCA")
        return emb
    if np.allclose(M, M[0]):
        emb = Embedding(points=np.zeros((n, d)))
        emb.warnings.append("duplicate-only input: fell back to PCA")
        return emb

    # rows not all close give the first component spread (pca_reduce rejects overflow)
    Y = _pad_dims(pca_reduce(M, min(d, min(n, dim))), d).points
    Y = Y / Y[:, 0].std() * 1e-4
    perplexity = min(cfg.perplexity, (n - 1) / 3.0)
    perplexity = max(perplexity, 2.0)
    emb = Embedding(points=Y, pending=(joint_affinities(M, perplexity), cfg))
    if descend:
        finish_tsne(emb, *tsne_descent(emb))
    return emb


def tsne_descent(emb: Embedding) -> tuple[np.ndarray, list[float]]:
    """The descent of a pending embedding from its start: the final points
    and kl_trace, whose last entry stays NaN for finish_tsne.  It reads
    emb and changes nothing, so it can run in another process."""
    P, cfg = emb.pending
    Y = emb.points
    n = Y.shape[0]
    # one kernel call per step: call t+1 can also yield KL(P||Q) at the Y
    # that step t produced, so the trace needs a single call after the loop
    work = tuple(np.empty((n, n)) for _ in range(3))
    P_exag = np.maximum(P * cfg.early_exaggeration, _EPS)
    velocity = np.zeros_like(Y)
    trace = [np.nan] * cfg.iterations
    steps = set(kl_trace_steps(cfg.iterations, cfg.exaggeration_iters))
    for it in range(cfg.iterations):
        P_grad = P_exag if it < cfg.exaggeration_iters else P
        mom = cfg.momentum_start if it < cfg.momentum_switch_iter else cfg.momentum_final
        kl, grad = kl_divergence_and_grad(P, Y, P_grad, work, with_kl=it - 1 in steps)
        if it > 0:
            trace[it - 1] = kl
        velocity = mom * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    if not np.all(np.isfinite(Y)):
        raise DataError("t-SNE diverged to non-finite coordinates")
    return Y, trace


def finish_tsne(emb: Embedding, points: np.ndarray, kl_trace: list[float]) -> None:
    """Complete a pending embedding with the result of tsne_descent: the
    last kl_trace entry, KL(P||Q) at the final points, is computed here."""
    P = emb.pending[0]
    kl_trace[-1] = kl_divergence_and_grad(P, points)[0]
    emb.points, emb.kl_trace, emb.pending = points, kl_trace, None


def _pad_dims(emb: Embedding, d: int) -> Embedding:
    if emb.points.shape[1] < d:
        pad = np.zeros((emb.points.shape[0], d - emb.points.shape[1]))
        emb.points = np.hstack([emb.points, pad])
    return emb


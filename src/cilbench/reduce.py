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
# the step rule of van der Maaten's reference t-SNE (arXiv:1301.3342); P is
# exaggerated for TsneConfig.exaggeration_iters steps
LEARNING_RATE = 200.0
EARLY_EXAGGERATION = 12.0
MOMENTUM_START = 0.5
MOMENTUM_FINAL = 0.8
MOMENTUM_SWITCH_ITER = 250


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
    exaggeration_iters: int = 100

    def validate(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not self.perplexity >= 2:
            raise ConfigurationError("perplexity must be >= 2")
        if self.exaggeration_iters < 0:
            raise ConfigurationError("exaggeration_iters must be >= 0")


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
    KL(P_grad||Q) (P_grad defaults to P), from two thin matrix products.

    With with_kl false the KL value's N x N passes are skipped and it is
    NaN; the gradient is the same to the bit.  Everything is computed in
    P's dtype, which Y (and P_grad) share.  work is a tuple of three (N, N)
    arrays of that dtype that receive every N x N intermediate; without it
    they are allocated here.  The operation order is fixed, so results do
    not depend on whether work is given.
    """
    if P_grad is None:
        P_grad = P
    n = Y.shape[0]
    if work is None:
        work = tuple(np.empty((n, n), dtype=P.dtype) for _ in range(3))
    a, num, c = work
    # num = 1 / (1 + d2) with zero diagonal: 1 + d2_ij is the product
    # [sq_i, 1, 1, -2 y_i] . [1, sq_j, 1, y_j], clamped at 1 as d2 < 0 is
    # rounding (max(1 + d2, 1) = 1 + max(d2, 0)); Q's 1e-12 floor is the KL's only
    sq = np.einsum("ij,ij->i", Y, Y)[:, None]
    one = np.ones_like(sq)
    G = np.concatenate([one, sq, one, Y], axis=1)
    np.matmul(np.concatenate([sq, one, one, -2.0 * Y], axis=1), G.T, out=num)
    np.maximum(num, 1.0, out=num)
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    z = num.sum()
    kl = np.nan
    if with_kl:
        Q = np.divide(num, z, out=c)
        np.maximum(Q, _EPS, out=Q)
        np.divide(P, Q, out=c)
        np.log(c, out=c)
        np.multiply(P, c, out=c)
        kl = float(np.sum(c))
    # W = (P_grad - Q) * num has grad = 4 (diag(rowsum W) - W) @ Y; with
    # L = -W, L @ [1, Y] holds rowsum L and L @ Y, so grad = 4 (L @ Y - rowsum L * Y)
    L = np.divide(num, z, out=a)
    np.subtract(L, P_grad, out=L)
    np.multiply(L, num, out=L)
    S = L @ G[:, 2:]
    return kl, 4.0 * (S[:, 1:] - S[:, :1] * Y)


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
    and NaN at the others: the value costs six N x N passes, and only the
    end of exaggeration and the last step are read.

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
    (float64) and kl_trace, whose last entry stays NaN for finish_tsne.  It
    reads emb and changes nothing, so it can run in another process.

    The descent computes in float32: P, the points, the velocity, every
    kernel call and the scheduled kl_trace entries, updating its own
    points and velocity in place.  Its steps agree with the two-call loop
    in tests/oracles.py to rounding, not bit for bit."""
    P, cfg = emb.pending
    P = P.astype(np.float32)
    Y = emb.points.astype(np.float32)
    n = Y.shape[0]
    # one kernel call per step: call t+1 can also yield KL(P||Q) at the Y
    # that step t produced, so the trace needs a single call after the loop
    work = tuple(np.empty((n, n), dtype=np.float32) for _ in range(3))
    P_exag = np.maximum(P * EARLY_EXAGGERATION, _EPS)
    velocity = np.zeros_like(Y)
    trace = [np.nan] * cfg.iterations
    steps = set(kl_trace_steps(cfg.iterations, cfg.exaggeration_iters))
    for it in range(cfg.iterations):
        P_grad = P_exag if it < cfg.exaggeration_iters else P
        mom = MOMENTUM_START if it < MOMENTUM_SWITCH_ITER else MOMENTUM_FINAL
        kl, grad = kl_divergence_and_grad(P, Y, P_grad, work, with_kl=it - 1 in steps)
        if it > 0:
            trace[it - 1] = kl
        velocity *= mom
        velocity -= LEARNING_RATE * grad
        Y += velocity
        Y -= Y.mean(axis=0)
    if not np.all(np.isfinite(Y)):
        raise DataError("t-SNE diverged to non-finite coordinates")
    return Y.astype(np.float64), trace


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


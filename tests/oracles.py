"""Single-example reference definitions that the batched code in cilbench
is checked against.

Each function here is the textbook one-row form of a computation that
cilbench runs only in batched form: the distilled softmax, the
cross-entropy and distillation losses and their beta mix, the
nearest-mean-of-exemplars classifier, and the k-center covering radius.
It also keeps earlier code as references for the code that replaced it.
Bit-exact: the unfused t-SNE descent, which evaluates its kernel twice
per step; the training loop that ran the teacher on every mini-batch and
built fresh momentum arrays at every step; the sampler loop that
recounted every row's neighbours at each radius bump; and the
row-by-row perplexity bisection.  To a tolerance: the economy-SVD PCA.
memory_reference restates the exemplar memory's rules over a whole task
stream, without a model.
The module imports nothing from cilbench except its error types, so an
oracle never shares code with what it checks.
"""

from __future__ import annotations

import numpy as np

from cilbench.errors import ConfigurationError, DivergenceError, ShapeError

_PROB_FLOOR = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def distilled_softmax(logits, T: float, k: int) -> np.ndarray:
    """Temperature-smoothed softmax over the first k logit components."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    logits = np.asarray(logits, dtype=np.float64)
    if k > logits.shape[-1]:
        raise ConfigurationError(f"k={k} exceeds logit length {logits.shape[-1]}")
    if T <= 1.0:
        raise ConfigurationError("temperature must be > 1")
    return softmax(logits[..., :k] / T)


def ce_loss(probs, target: int) -> float:
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= target < probs.shape[-1]:
        raise ShapeError(f"target {target} out of range for {probs.shape[-1]} classes")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise ConfigurationError("probs must sum to 1")
    return float(-np.log(max(float(probs[target]), _PROB_FLOOR)))


def kd_loss(teacher_logits, student_logits, T: float) -> float:
    """Cross-entropy between teacher and student distilled distributions,
    restricted to the teacher's (old) classes."""
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    student_logits = np.asarray(student_logits, dtype=np.float64)
    ell = teacher_logits.shape[-1]
    if ell < 1:
        raise ConfigurationError("teacher must cover at least one class")
    if student_logits.shape[-1] < ell:
        raise ShapeError("student logits shorter than teacher logits")
    p_teacher = distilled_softmax(teacher_logits, T, ell)
    p_student = distilled_softmax(student_logits, T, ell)
    return float(-np.sum(p_teacher * np.log(np.maximum(p_student, _PROB_FLOOR))))


def cross_distilled_loss(kd: float, ce: float, beta: float) -> float:
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError("beta must be in [0, 1]")
    return beta * kd + (1.0 - beta) * ce


def example_loss(logits, target: int, teacher_logits, T: float, beta: float) -> float:
    """Training loss of one row: plain cross-entropy without a teacher,
    otherwise beta * kd + (1 - beta) * ce."""
    ce = ce_loss(softmax(np.asarray(logits, dtype=np.float64)), target)
    if teacher_logits is None:
        return ce
    return cross_distilled_loss(kd_loss(teacher_logits, logits, T), ce, beta)


def nme_classify(x_features, class_means: dict[int, np.ndarray]) -> int:
    """Nearest class mean in feature space; ties break to the lower class id."""
    if not class_means:
        raise ConfigurationError("class_means is empty")
    x = np.asarray(x_features, dtype=np.float64)
    best_cls, best_d = -1, np.inf
    for cls in sorted(class_means):
        d = float(np.linalg.norm(x - np.asarray(class_means[cls], dtype=np.float64)))
        if d < best_d:
            best_cls, best_d = cls, d
    return best_cls


def covering_radius(pts, selection: list[int]) -> float:
    """Largest distance from any point to its nearest selected point."""
    pts = np.asarray(pts, dtype=np.float64)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return float(dist[:, selection].min(axis=1).max())


def tsne_kl_and_grad(P, Y) -> tuple[float, np.ndarray]:
    """KL(P||Q) under the Student-t output kernel and its gradient in Y."""
    sq = np.sum(Y * Y, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.fill_diagonal(d2, 0.0)
    num = 1.0 / (1.0 + np.maximum(d2, 0.0))
    np.fill_diagonal(num, 0.0)
    Q = np.maximum(num / num.sum(), _PROB_FLOOR)
    kl = float(np.sum(P * np.log(P / Q)))
    W = (P - Q) * num
    grad = 4.0 * ((np.diag(W.sum(axis=1)) - W) @ Y)
    return kl, grad


def tsne_descent(
    P, Y, *, iterations: int, learning_rate: float, early_exaggeration: float,
    exaggeration_iters: int, momentum_start: float, momentum_final: float,
    momentum_switch_iter: int, with_trace: bool = True,
) -> tuple[np.ndarray, list[float]]:
    """Momentum descent from Y, in the dtype of P and Y; one kernel call for
    the step's gradient under the exaggerated P, a second for KL(P||Q) at
    the Y the step produced.  With with_trace false the second call is
    skipped and the trace is empty."""
    velocity = np.zeros_like(Y)
    trace: list[float] = []
    for it in range(iterations):
        exag = early_exaggeration if it < exaggeration_iters else 1.0
        mom = momentum_start if it < momentum_switch_iter else momentum_final
        _, grad = tsne_kl_and_grad(np.maximum(P * exag, _PROB_FLOOR), Y)
        velocity = mom * velocity - learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        if with_trace:
            trace.append(tsne_kl_and_grad(P, Y)[0])
    return Y, trace


def _mlp_forward(weights, biases, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of a ReLU MLP with a linear head, and the input of each layer,
    computed in the dtype of the first layer's weights."""
    h = np.asarray(X, dtype=np.asarray(weights[0]).dtype)
    acts = [h]
    for k, (W, b) in enumerate(zip(weights, biases)):
        h = h @ W + b
        if k != len(weights) - 1:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, acts


def _mlp_backprop(weights, acts, dlogits) -> list[tuple[np.ndarray, np.ndarray]]:
    grads = []
    delta = dlogits
    for k in range(len(weights) - 1, -1, -1):
        grads.append((acts[k].T @ delta, delta.sum(axis=0)))
        if k > 0:
            delta = (delta @ weights[k].T) * (acts[k] > 0)
    grads.reverse()
    return grads


def train_task_reference(
    weights, biases, X, y, teacher=None, *, temperature: float, beta: float,
    epochs: int, batch_size: int, learning_rate: float, momentum: float, seed: int,
) -> tuple[list[np.ndarray], list[np.ndarray], list[float]]:
    """Mini-batch momentum descent on beta * kd + (1 - beta) * ce (ce alone
    without a teacher), one teacher forward per mini-batch; teacher is a
    (weights, biases) pair.  Computes in X's dtype widened to at least
    float32, with the teacher's targets cast to it.  Returns the weights,
    biases and per-epoch loss."""
    dtype = np.promote_types(X.dtype, np.float32)
    weights = [np.array(W, dtype=dtype) for W in weights]
    biases = [np.array(b, dtype=dtype) for b in biases]
    vel = [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(weights, biases)]
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(y))
        losses = []
        for start in range(0, len(y), batch_size):
            batch = order[start : start + batch_size]
            Xb, yb = X[batch], y[batch]
            logits, acts = _mlp_forward(weights, biases, Xb)
            n = len(yb)
            probs = softmax(logits)
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), yb] = 1.0
            ce = -np.log(np.maximum(probs[np.arange(n), yb], _PROB_FLOOR))
            dlogits = probs - onehot
            if teacher is None:
                loss = float(ce.mean())
                dlogits /= n
            else:
                t_logits, _ = _mlp_forward(*teacher, Xb)
                ell = t_logits.shape[1]
                p_t = softmax(t_logits / temperature).astype(dtype)
                p_s = softmax(logits[:, :ell] / temperature)
                kd = -np.sum(p_t * np.log(np.maximum(p_s, _PROB_FLOOR)), axis=1)
                loss = float((beta * kd + (1.0 - beta) * ce).mean())
                dlogits *= 1.0 - beta
                dlogits[:, :ell] += beta * (p_s - p_t) / temperature
                dlogits /= n
            losses.append(loss * n)
            for k, (gW, gb) in enumerate(_mlp_backprop(weights, acts, dlogits)):
                vW, vb = vel[k]
                vW = momentum * vW + gW
                vb = momentum * vb + gb
                vel[k] = (vW, vb)
                weights[k] -= learning_rate * vW
                biases[k] -= learning_rate * vb
        epoch_loss = float(np.sum(losses) / len(y))
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        trace.append(epoch_loss)
    return weights, biases, trace


def diverse_sample_reference(pts, *, m: int, n: int, r0: float, delta_r: float,
                             max_adapt: int) -> list[int]:
    """Outlier-filtered farthest-point selection as one pass per radius
    bump: recount the neighbours of every row within r at each bump, sort
    the unselected rows by decreasing distance to the selection (ties to
    the lowest index) and take the first that has at least n_req others
    within r.  With none, r grows by delta_r; after max_adapt bumps n_req
    drops by 1 and r resets to r0."""
    pts = np.asarray(pts, dtype=np.float64)
    n_pts = pts.shape[0]
    m = min(m, n_pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    selected = [int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))]
    d_sel = dist[selected[0]].copy()
    n_req, radius = min(n, n_pts - 1), r0
    bumps = 0
    counts = np.sum(dist <= radius, axis=1) - 1
    while len(selected) < m:
        remaining = np.setdiff1d(np.arange(n_pts), selected, assume_unique=False)
        order = remaining[np.lexsort((remaining, -d_sel[remaining]))]
        qualifying = order[counts[order] >= n_req]
        if qualifying.size == 0:
            if bumps < max_adapt:
                radius += delta_r
                bumps += 1
            else:
                n_req -= 1
                radius = r0
                bumps = 0
            counts = np.sum(dist <= radius, axis=1) - 1
            continue
        pick = int(qualifying[0])
        selected.append(pick)
        d_sel = np.minimum(d_sel, dist[pick])
    return selected


def pca_svd(X, d: int) -> np.ndarray:
    """Mean-centred projection onto the top-d right singular vectors of an
    economy SVD, each signed so that its largest-magnitude loading is
    positive."""
    centered = np.asarray(X, dtype=np.float64)
    centered = centered - centered.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comp = vt[:d].T
    for j in range(comp.shape[1]):
        k = np.argmax(np.abs(comp[:, j]))
        if comp[k, j] < 0:
            comp[:, j] = -comp[:, j]
    return centered @ comp


def _row_affinities(d2_row: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    w = np.exp(-d2_row * beta)
    s = w.sum()
    if s <= 0:
        return np.zeros_like(w), 0.0
    p = w / s
    return p, np.log(s) + beta * float(np.dot(d2_row, p))


def conditional_affinities_per_row(
    d2: np.ndarray, perplexity: float, tol: float = 1e-5, max_steps: int = 50
) -> np.ndarray:
    """Gaussian affinities row by row, each row's precision bisected until
    its entropy (self excluded) is within tol of log(perplexity)."""
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
            if h > target:
                lo = beta
                beta = beta * 2.0 if np.isinf(hi) else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (beta + lo) / 2.0
            p, h = _row_affinities(row, beta)
        P[i, np.arange(n) != i] = p
    return P


def memory_reference(cfg, ds, tasks) -> list[dict[int, list[int]]]:
    """The exemplar memory after each task of tasks, as {class: training
    rows in selection order}, by the documented rules, for a config with
    reducer "none" (a class's embedding is its training rows):

    - a class takes the next head slot when it first appears; classes new
      in the same task take theirs in ascending order;
    - with k slots a budget of M rows gives each slot M // k, and one more
      to each of the first M % k slots;
    - every stored class keeps the prefix of its quota;
    - a class present in a task is selected anew from its pool: its rows in
      the task, each once in stream order, then the rows it kept that are
      not among them;
    - the selection takes min(quota, pool size) rows, by
      diverse_sample_reference, or for sampler_kind "random" by a
      rng.choice without replacement seeded from
      SeedSequence([seed, 2, task, class]).
    """
    if cfg.reducer != "none":
        raise ConfigurationError("memory_reference restates reducer 'none' only")
    X = np.asarray(ds.X_train, dtype=np.float64)
    labels = [int(c) for c in ds.y_train]
    slots: list[int] = []
    store: dict[int, list[int]] = {}
    after_each = []
    for task in tasks:
        pools: dict[int, list[int]] = {}
        for row in (int(i) for i in task.example_indices):
            pool = pools.setdefault(labels[row], [])
            if row not in pool:
                pool.append(row)
        slots += sorted(c for c in pools if c not in slots)
        base, extra = divmod(cfg.memory_budget, len(slots))
        quota = {c: base + (s < extra) for s, c in enumerate(slots)}
        store = {c: rows[: quota[c]] for c, rows in store.items()}
        for c, pool in pools.items():
            pool = pool + [row for row in store.get(c, []) if row not in pool]
            m = min(quota[c], len(pool))
            if cfg.sampler_kind == "random":
                ss = np.random.SeedSequence([cfg.seed, 2, task.task_index, c])
                seed = int(ss.generate_state(1, dtype=np.uint64)[0] % 2**63)
                picked = np.random.default_rng(seed).choice(len(pool), size=m, replace=False)
            else:
                p = cfg.sampler_params
                picked = diverse_sample_reference(X[pool], m=m, n=p.n, r0=p.r0,
                                                  delta_r=p.delta_r, max_adapt=p.max_adapt)
            store[c] = [pool[k] for k in picked]
        after_each.append(dict(store))
    return after_each

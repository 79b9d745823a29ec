"""Single-example reference definitions that the batched code in cilbench
is checked against.

Each function here is the textbook one-row form of a computation that
cilbench runs only in batched form: the distilled softmax, the
cross-entropy and distillation losses and their beta mix, the
nearest-mean-of-exemplars classifier, and the k-center covering radius.
It also keeps the earlier unfused t-SNE descent loop, which evaluates its
kernel twice per step, as the bit-exact reference for the fused one.
The module imports nothing from cilbench except its error types, so an
oracle never shares code with what it checks.
"""

from __future__ import annotations

import numpy as np

from cilbench.errors import ConfigurationError, ShapeError

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
    momentum_switch_iter: int,
) -> tuple[np.ndarray, list[float]]:
    """Momentum descent from Y; one kernel call for the step's gradient under
    the exaggerated P, a second for KL(P||Q) at the Y the step produced."""
    velocity = np.zeros_like(Y)
    trace: list[float] = []
    for it in range(iterations):
        exag = early_exaggeration if it < exaggeration_iters else 1.0
        mom = momentum_start if it < momentum_switch_iter else momentum_final
        _, grad = tsne_kl_and_grad(np.maximum(P * exag, _PROB_FLOOR), Y)
        velocity = mom * velocity - learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
        trace.append(tsne_kl_and_grad(P, Y)[0])
    return Y, trace

"""Feedforward classifier with a growable single head and rehearsal losses.

Training combines plain cross-entropy over all current classes with a
temperature-smoothed distillation term against a frozen teacher taken at
the previous task boundary: loss = beta * distill + (1 - beta) * ce.
On the first task there is no teacher and only cross-entropy is used.
Everything is plain numpy with analytic gradients, so the whole chain
can be validated against finite differences.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, ShapeError

_PROB_FLOOR = 1e-12


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # weights[k]: (fan_in, fan_out)
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class TeacherSnapshot:
    model: MlpModel
    num_classes: int


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 2.0
    beta: float = 0.5

    def validate(self) -> None:
        if self.temperature <= 1.0:
            raise ConfigurationError("temperature must be > 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError("beta must be in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 70
    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        if min(self.epochs, self.batch_size) < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.momentum < 0:
            raise ConfigurationError("learning_rate must be > 0, momentum >= 0")


def init_mlp(
    input_dim: int, hidden: tuple[int, ...], num_classes: int, seed: int
) -> MlpModel:
    """Fan-in-scaled uniform init for every layer; ReLU hiddens, linear head."""
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, num_classes]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(a)
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
        biases.append(np.zeros(b))
    return MlpModel(weights=weights, biases=biases)


def snapshot_teacher(model: MlpModel) -> TeacherSnapshot:
    return TeacherSnapshot(model=copy.deepcopy(model), num_classes=model.num_classes)


def grow_head(model: MlpModel, q_new: int, seed: int) -> MlpModel:
    """Widen the output layer by q_new units; old weights kept bit-exactly,
    new columns drawn from fan-in-scaled uniform noise, new biases zero."""
    if q_new < 1:
        raise ConfigurationError("q_new must be >= 1")
    rng = np.random.default_rng(seed)
    grown = copy.deepcopy(model)
    fan_in = grown.weights[-1].shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    new_cols = rng.uniform(-bound, bound, size=(fan_in, q_new))
    grown.weights[-1] = np.hstack([grown.weights[-1], new_cols])
    grown.biases[-1] = np.concatenate([grown.biases[-1], np.zeros(q_new)])
    return grown


# ---------------------------------------------------------------------------
# Forward / backward


def forward_batch(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (logits, activations); activations[k] is the input to layer k."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(f"input shape {X.shape} != (rows, {model.input_dim})")
    acts = [X]
    h = X
    last = len(model.weights) - 1
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W + b
        if k != last:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, acts


def backprop(
    model: MlpModel, acts: list[np.ndarray], dlogits: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of sum(dlogits * logits) w.r.t. each (W, b)."""
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    delta = dlogits
    for k in range(len(model.weights) - 1, -1, -1):
        grads.append((acts[k].T @ delta, delta.sum(axis=0)))
        if k > 0:
            delta = (delta @ model.weights[k].T) * (acts[k] > 0)
    grads.reverse()
    return grads


# ---------------------------------------------------------------------------
# Losses


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def batch_loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    teacher: TeacherSnapshot | None,
    lcfg: LossConfig,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean per-example loss over the batch and its analytic gradients."""
    logits, acts = forward_batch(model, X)
    n, width = logits.shape
    y = np.asarray(y)
    if np.any(y >= width):
        raise ShapeError("label outside model head")
    probs = softmax(logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    ce = -np.log(np.maximum(probs[np.arange(n), y], _PROB_FLOOR))
    dlogits = probs - onehot

    if teacher is None:
        loss = float(ce.mean())
        dlogits /= n
    else:
        T = lcfg.temperature
        ell = teacher.num_classes
        t_logits, _ = forward_batch(teacher.model, X)
        p_t = softmax(t_logits / T)
        p_s = softmax(logits[:, :ell] / T)
        kd = -np.sum(p_t * np.log(np.maximum(p_s, _PROB_FLOOR)), axis=1)
        loss = float((lcfg.beta * kd + (1.0 - lcfg.beta) * ce).mean())
        dlogits *= 1.0 - lcfg.beta
        dlogits[:, :ell] += lcfg.beta * (p_s - p_t) / T
        dlogits /= n
    return loss, backprop(model, acts, dlogits)


# ---------------------------------------------------------------------------
# Training


def train_task(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    teacher: TeacherSnapshot | None = None,
    *,
    lcfg: LossConfig = LossConfig(),
    tcfg: TrainConfig = TrainConfig(),
) -> tuple[MlpModel, list[float]]:
    """Mini-batch gradient descent with momentum on rows X with head-slot
    labels y; returns the trained model and the per-epoch mean loss trace.
    Deterministic given tcfg.seed."""
    lcfg.validate()
    tcfg.validate()
    y = np.asarray(y)
    if len(y) == 0:
        raise ConfigurationError("empty training data")
    if len(X) != len(y):
        raise ShapeError(f"{len(X)} feature rows but {len(y)} labels")
    if np.any((y < 0) | (y >= model.num_classes)):
        raise ShapeError("label outside model head")
    if teacher is not None and teacher.num_classes > model.num_classes:
        raise ShapeError(
            f"teacher head {teacher.num_classes} wider than student head {model.num_classes}"
        )

    model = copy.deepcopy(model)
    vel = [
        (np.zeros_like(W), np.zeros_like(b))
        for W, b in zip(model.weights, model.biases)
    ]
    rng = np.random.default_rng(tcfg.seed)
    trace: list[float] = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(len(y))
        losses = []
        for start in range(0, len(y), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            loss, grads = batch_loss_and_grads(model, X[batch], y[batch], teacher, lcfg)
            losses.append(loss * len(batch))
            for k, (gW, gb) in enumerate(grads):
                vW, vb = vel[k]
                vW = tcfg.momentum * vW + gW
                vb = tcfg.momentum * vb + gb
                vel[k] = (vW, vb)
                model.weights[k] -= tcfg.learning_rate * vW
                model.biases[k] -= tcfg.learning_rate * vb
        epoch_loss = float(np.sum(losses) / len(y))
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        trace.append(epoch_loss)
    return model, trace

"""Output checks for the benchmark that share no code with cilbench.

Every function takes plain numpy arrays or Python values and raises
CheckError with a reason when an output is wrong.  Nothing here imports
the program: the selection oracle, the forward pass, the nearest-mean
classifier, the quota rule and the outlier test are written out anew, so
that a fault in the program cannot hide behind the same fault in its
check.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class CheckError(Exception):
    """An experiment's output failed one of the benchmark's checks."""


def _points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[:, None] if pts.ndim == 1 else pts


def pairwise_distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@functools.lru_cache(maxsize=8)
def radius_schedule(r0: float, delta_r: float, max_adapt: int) -> np.ndarray:
    """radii[b] is the radius after b bumps, accumulated one addition at a
    time exactly as a running `radius += delta_r` would."""
    radii = [r0]
    for _ in range(max_adapt):
        radii.append(radii[-1] + delta_r)
    return np.array(radii)


def replay_selection(
    points, n: int, r0: float, delta_r: float, max_adapt: int, m: int,
    selection: list[int], tol: float = 1e-9,
) -> dict[str, int]:
    """Replay one diverse_sample call against the filter-and-farthest-point rule.

    "At least k other points within r" holds exactly when the k-th
    smallest distance to another point is <= r, so each radius level is
    a lookup in the sorted distance rows rather than a recount.  Ties
    within tol (relative to the largest distance) are accepted either
    way.  Returns the schedule's demanded work: radius bumps, n
    relaxations, and whether the class was starved (no more than n
    points, so no radius can satisfy the filter at the requested n).
    """
    pts = _points(points)
    n_pts = pts.shape[0]
    if len(selection) != min(m, n_pts):
        raise CheckError(f"selected {len(selection)} of {n_pts} points, want {min(m, n_pts)}")
    if len(set(selection)) != len(selection):
        raise CheckError("duplicate index in selection")
    if any(not 0 <= i < n_pts for i in selection):
        raise CheckError("selection index out of range")
    dist = pairwise_distances(pts)
    eps = tol * max(1.0, float(dist.max()))
    to_mean = np.sqrt(((pts - pts.mean(axis=0)) ** 2).sum(axis=1))
    if to_mean[selection[0]] > to_mean.min() + eps:
        raise CheckError(f"seed {selection[0]} is not the point closest to the mean")

    kth_sorted = np.sort(dist, axis=1)  # column k: k-th nearest other point (column 0 is self)
    radii = radius_schedule(float(r0), float(delta_r), int(max_adapt))
    chosen = np.zeros(n_pts, dtype=bool)
    chosen[selection[0]] = True
    d_sel = dist[selection[0]].copy()
    n_req, b = n, 0
    bumps = relaxations = 0
    for step, pick in enumerate(selection[1:], start=1):
        free = ~chosen
        if chosen[pick]:
            raise CheckError(f"step {step}: pick {pick} already chosen")
        while True:
            kth = kth_sorted[:, n_req] if n_req < n_pts else np.full(n_pts, np.inf)
            # first bump at which the pick passes (loosely) / anyone passes (strictly)
            b_pick = max(b, int(np.searchsorted(radii, kth[pick] - eps, "left")))
            b_any = max(b, int(np.searchsorted(radii, kth[free].min() + eps, "left")))
            if b_pick <= max_adapt:
                break
            if b_any <= max_adapt:
                raise CheckError(f"step {step}: pick {pick} fails the neighbour filter")
            bumps += max_adapt - b
            relaxations += 1
            n_req, b = n_req - 1, 0
        if b_pick > b_any:
            raise CheckError(
                f"step {step}: pick {pick} passes the filter only after other points did"
            )
        bumps += b_pick - b
        b = b_pick
        strict = free & (kth <= radii[b] - eps)
        if strict.any() and d_sel[pick] < d_sel[strict].max() - eps:
            raise CheckError(f"step {step}: pick {pick} is not farthest among qualifying points")
        chosen[pick] = True
        d_sel = np.minimum(d_sel, dist[pick])
    return {"radius_bumps": bumps, "n_relaxations": relaxations, "starved": int(n_pts <= n)}


def class_quotas(budget: int, slot_order: list[int]) -> dict[int, int]:
    """Equal split of the budget; the earliest-seen classes take the remainder."""
    base, rem = divmod(budget, len(slot_order))
    return {cls: base + (1 if i < rem else 0) for i, cls in enumerate(slot_order)}


def check_memory(
    stored: dict[int, list[int]], budget: int, slot_order: list[int], train_labels: np.ndarray
) -> int:
    """Budget, per-class quota, unique indices, and labels of the stored rows."""
    total = sum(len(v) for v in stored.values())
    if total > budget:
        raise CheckError(f"memory holds {total} rows, budget {budget}")
    quotas = class_quotas(budget, slot_order)
    everything = [i for idx in stored.values() for i in idx]
    if len(set(everything)) != len(everything):
        raise CheckError("a train row is stored twice")
    for cls, idx in stored.items():
        if cls not in quotas:
            raise CheckError(f"class {cls} stored but never seen")
        if len(idx) > quotas[cls]:
            raise CheckError(f"class {cls} holds {len(idx)} rows, quota {quotas[cls]}")
        if idx and np.any(train_labels[np.asarray(idx)] != cls):
            raise CheckError(f"class {cls} stores a row of another label")
    return total


def mlp_forward(weights, biases, X) -> tuple[np.ndarray, np.ndarray]:
    """(logits, penultimate features) of a ReLU MLP with a linear head."""
    h = np.asarray(X, dtype=np.float64)
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
    return h @ weights[-1] + biases[-1], h


def softmax_accuracy(weights, biases, X, y, slot_to_class: list[int]) -> float:
    logits, _ = mlp_forward(weights, biases, X)
    pred = np.asarray(slot_to_class)[np.argmax(logits, axis=1)]
    return float(np.mean(pred == y))


def nme_accuracy(weights, biases, X, y, exemplars_by_class: dict[int, np.ndarray]) -> float:
    """Nearest mean of stored exemplars in feature space, ties to the lower class."""
    classes = sorted(c for c, rows in exemplars_by_class.items() if len(rows))
    means = np.stack([mlp_forward(weights, biases, exemplars_by_class[c])[1].mean(axis=0)
                      for c in classes])
    _, feats = mlp_forward(weights, biases, X)
    d2 = ((feats[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = np.asarray(classes)[np.argmin(d2, axis=1)]
    return float(np.mean(pred == y))


def check_accuracy(recomputed: float, reported: float, rows: int) -> None:
    """Reported accuracy agrees with the recomputation to within one test row."""
    if abs(recomputed - reported) * rows > 1.0 + 1e-9:
        raise CheckError(
            f"reported accuracy {reported:.6f} != recomputed {recomputed:.6f} over {rows} rows"
        )


def check_metrics_rows(rows: list[dict], floor: float | None) -> None:
    """avg_accuracy is the running mean of accuracy; the last task clears the floor."""
    if not rows:
        raise CheckError("metrics.csv has no task rows")
    running = 0.0
    for t, row in enumerate(rows):
        running += row["accuracy"]
        if not math.isclose(row["avg_accuracy"], running / (t + 1), rel_tol=1e-12, abs_tol=1e-12):
            raise CheckError(f"task {t}: avg_accuracy is not the running mean of accuracy")
    if floor is not None and rows[-1]["accuracy"] < floor:
        raise CheckError(f"final accuracy {rows[-1]['accuracy']:.4f} below floor {floor}")


def check_embedding(points, n_rows: int, dim: int, kl_trace, exaggeration_iters: int) -> None:
    """t-SNE output: finite, (N, dim), final KL no higher than after exaggeration."""
    pts = np.asarray(points)
    if pts.shape != (n_rows, dim):
        raise CheckError(f"embedding shape {pts.shape}, want {(n_rows, dim)}")
    if not np.all(np.isfinite(pts)):
        raise CheckError("embedding has non-finite coordinates")
    if kl_trace and len(kl_trace) >= exaggeration_iters:
        if kl_trace[-1] > kl_trace[exaggeration_iters - 1]:
            raise CheckError(
                f"final KL {kl_trace[-1]:.4f} above KL after exaggeration "
                f"{kl_trace[exaggeration_iters - 1]:.4f}"
            )


def far_from_class_median(X, y, threshold: float) -> np.ndarray:
    """Rows farther than threshold from their class's coordinate-wise median."""
    X = np.asarray(X, dtype=np.float64)
    far = np.zeros(len(y), dtype=bool)
    for cls in np.unique(y):
        rows = np.flatnonzero(y == cls)
        center = np.median(X[rows], axis=0)
        far[rows] = np.sqrt(((X[rows] - center) ** 2).sum(axis=1)) > threshold
    return far


def check_outlier_ordering(stored_outliers: dict[str, int]) -> None:
    """On one seed: n=5 stores no planted outlier; n=0 stores more than n=5 and random."""
    n5, n0, rnd = (stored_outliers[k] for k in ("diverse_n5", "diverse_n0", "random"))
    if n5 != 0:
        raise CheckError(f"diverse n=5 stored {n5} planted outliers")
    if not (n0 > n5 and n0 > rnd):
        raise CheckError(f"diverse n=0 stored {n0} outliers, n=5 {n5}, random {rnd}")

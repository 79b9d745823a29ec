"""Exemplar selection and the bounded rehearsal memory.

The core sampler is a farthest-point (greedy k-center) traversal with a
density filter: a candidate is only accepted if it has at least n other
points within distance r, which keeps isolated outliers out of the
exemplar set.  When no remaining candidate passes the filter, r grows by
delta_r; after max_adapt radius bumps, n is relaxed by 1 and r resets.
With n=0 the filter is vacuous and the output is exactly the greedy
2-approximation to k-center seeded at the point closest to the mean.

verify_selection replays the same schedule with an independent
exhaustive scan and shares no code with diverse_sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class SamplerParams:
    m: int
    n: int = 0
    r0: float = 0.5
    delta_r: float = 0.1
    max_adapt: int = 1000

    def validate(self) -> None:
        if self.m < 1:
            raise ConfigurationError("m must be >= 1")
        if self.n < 0:
            raise ConfigurationError("n must be >= 0")
        if not (self.r0 > 0 and self.delta_r > 0):  # NaN fails too
            raise ConfigurationError("r0 and delta_r must be positive")
        if self.max_adapt < 1:
            raise ConfigurationError("max_adapt must be >= 1")


def _points(E) -> np.ndarray:
    pts = np.asarray(getattr(E, "points", E), dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 1:
        raise ConfigurationError("empty point set")
    if not np.all(np.isfinite(pts)):
        raise DataError("non-finite values in embedding")
    return pts


def _seed_index(pts: np.ndarray) -> int:
    """Row closest to the arithmetic mean; ties break to the lowest index."""
    dist = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    return int(np.argmin(dist))


def diverse_sample(E, p: SamplerParams) -> list[int]:
    """Outlier-filtered farthest-point selection of min(m, N) indices."""
    p.validate()
    pts = _points(E)
    n_pts = pts.shape[0]
    m = min(p.m, n_pts)

    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    # a row has at least k others within r exactly when entry k of its
    # sorted distance row (entry 0 is the row itself, at 0) is <= r
    ranked = np.sort(dist, axis=1)
    selected = [_seed_index(pts)]
    taken = np.zeros(n_pts, dtype=bool)
    taken[selected[0]] = True
    d_sel = dist[selected[0]].copy()

    # with fewer than n other points no radius passes the filter, and the
    # levels above N - 1 would each end where this one starts
    n_req, radius = min(p.n, n_pts - 1), p.r0
    bumps = 0
    kth = ranked[:, n_req]
    while len(selected) < m:
        # replay the bump/relax schedule up to the first radius at which an
        # untaken row qualifies; radius accumulates in floats as it always has
        need = kth[~taken].min()
        while need > radius:
            if bumps < p.max_adapt:
                radius += p.delta_r
                bumps += 1
            else:
                n_req -= 1
                radius = p.r0
                bumps = 0
                kth = ranked[:, n_req]
                need = kth[~taken].min()
        # farthest qualifying row; argmax breaks ties toward the lowest index
        pick = int(np.argmax(np.where(taken | (kth > radius), -np.inf, d_sel)))
        selected.append(pick)
        taken[pick] = True
        np.minimum(d_sel, dist[pick], out=d_sel)
    return selected


def gonzalez_sample(E, m: int) -> list[int]:
    """Greedy farthest-point k-center (Gonzalez 1985), seeded closest to the
    mean.  No run selects with it: it is the reference that `verify` and the
    tests hold diverse_sample with n=0 to."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    pts = _points(E)
    n_pts = pts.shape[0]
    selected = [_seed_index(pts)]
    d_sel = np.linalg.norm(pts - pts[selected[0]], axis=1)
    while len(selected) < min(m, n_pts):
        d_masked = d_sel.copy()
        d_masked[selected] = -np.inf
        pick = int(np.argmax(d_masked))
        selected.append(pick)
        d_sel = np.minimum(d_sel, np.linalg.norm(pts - pts[pick], axis=1))
    return selected


def random_sample(N: int, m: int, seed: int) -> list[int]:
    """Uniform selection without replacement, deterministic given seed."""
    if not 1 <= m <= N:
        raise ConfigurationError(f"need 1 <= m <= N, got m={m} N={N}")
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(N, size=m, replace=False)]


@dataclass
class VerifyResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_selection(E, p: SamplerParams, selection: list[int]) -> VerifyResult:
    """Independent oracle for diverse_sample: exhaustive pure-Python replay.

    Checks that the first pick is mean-closest and that each later pick
    maximizes the distance-to-selected among points passing the neighbor
    filter under the radius/n schedule in force at that step.
    """
    if not selection:
        return VerifyResult(False, "empty selection")
    pts = np.asarray(getattr(E, "points", E), dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_pts = pts.shape[0]
    if len(set(selection)) != len(selection):
        return VerifyResult(False, "duplicate indices in selection")
    if any(not 0 <= i < n_pts for i in selection):
        return VerifyResult(False, "index out of range")

    # Imported here: scipy takes 0.5 s and ~37 MB to import; only this oracle needs it.
    from scipy.spatial.distance import cdist

    dist = cdist(pts, pts)
    d_mean = cdist(pts, pts.mean(axis=0, keepdims=True))[:, 0]
    if d_mean[selection[0]] > d_mean.min() + 1e-12:
        return VerifyResult(False, f"first pick {selection[0]} is not mean-closest")

    count_cache: dict[float, np.ndarray] = {}

    def counts_at(radius: float) -> np.ndarray:
        if radius not in count_cache:
            count_cache[radius] = (dist <= radius).sum(axis=1) - 1
        return count_cache[radius]

    chosen = [selection[0]]
    in_chosen = np.zeros(n_pts, dtype=bool)
    in_chosen[selection[0]] = True
    d_p = dist[selection[0]].copy()
    n_req, radius, bumps = p.n, p.r0, 0
    for step, pick in enumerate(selection[1:], start=1):
        while True:
            ok = ~in_chosen & (counts_at(radius) >= n_req)
            if ok.any():
                break
            if bumps < p.max_adapt:
                radius += p.delta_r
                bumps += 1
            else:
                n_req -= 1
                radius = p.r0
                bumps = 0
        if not ok[pick]:
            return VerifyResult(False, f"step {step}: pick {pick} fails neighbor filter")
        if d_p[pick] < d_p[ok].max() - 1e-12:
            return VerifyResult(
                False, f"step {step}: pick {pick} not farthest among qualifying points"
            )
        chosen.append(pick)
        in_chosen[pick] = True
        d_p = np.minimum(d_p, dist[pick])
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# Representative memory


def allocate_quota(M: int, classes_seen: int) -> list[int]:
    """Split budget M across classes: floor share plus one extra for the
    earliest-seen classes."""
    if classes_seen < 1:
        raise ConfigurationError("classes_seen must be >= 1")
    if M < classes_seen:
        raise ConfigurationError(f"budget M={M} below class count {classes_seen}")
    base, rem = divmod(M, classes_seen)
    return [base + (1 if i < rem else 0) for i in range(classes_seen)]


@dataclass
class ExemplarStore:
    """Per-class exemplars as rows of the training split, in selection order."""

    budget: int
    train_indices: dict[int, list[int]] = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.train_indices.values())

    def set_class(self, cls: int, indices, y_train: np.ndarray) -> None:
        """Store training rows `indices` (labelled by y_train) as class cls's
        exemplars.  Labels and budget are checked first, so a rejected call
        leaves the store as it was."""
        indices = [int(i) for i in indices]
        for i in indices:
            if y_train[i] != cls:
                raise ConfigurationError(f"label {y_train[i]} stored under class {cls}")
        kept = self.total() - len(self.train_indices.get(cls, []))
        if kept + len(indices) > self.budget:
            raise ConfigurationError("exemplar store exceeded its budget")
        self.train_indices[cls] = indices

    def shrink_class(self, cls: int, new_quota: int) -> None:
        """Keep the first new_quota exemplars.  Selection order makes every
        prefix a diverse selection in itself, so truncation is safe."""
        if new_quota < 1:
            raise ConfigurationError("new_quota must be >= 1")
        if cls not in self.train_indices:
            raise ConfigurationError(f"class {cls} has no exemplars to shrink")
        self.train_indices[cls] = self.train_indices[cls][:new_quota]

    def to_json(self) -> str:
        return json.dumps(
            {
                "budget": self.budget,
                "classes": [
                    {
                        "class": c,
                        "indices_into_train": self.train_indices[c],
                        "selection_order": list(range(len(self.train_indices[c]))),
                    }
                    for c in sorted(self.train_indices)
                ],
            }
        )

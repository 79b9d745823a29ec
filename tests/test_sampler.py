import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cilbench.errors import ConfigurationError, DataError
from cilbench.sampler import (
    ExemplarStore,
    SamplerParams,
    allocate_quota,
    diverse_sample,
    gonzalez_sample,
    random_sample,
    verify_selection,
)
from oracles import covering_radius, diverse_sample_reference

WORKED = np.array([[0, 0], [1, 0], [0.1, 0], [10, 10]], dtype=float)


def brute_force_kcenter_radius(pts, m):
    """Exhaustive optimal m-center covering radius (oracle)."""
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    best = np.inf
    for subset in combinations(range(len(pts)), m):
        best = min(best, dist[:, subset].min(axis=1).max())
    return best


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


class TestDiverseSample:
    def test_worked_example(self):
        # seed = mean-closest row 1; row 3 is farthest but isolated, so row 0
        # (which has row 2 within 0.1) is picked instead
        assert diverse_sample(WORKED, SamplerParams(m=2, n=1, r0=0.5)) == [1, 0]

    def test_single_point(self):
        assert diverse_sample(np.array([[3.0, 4.0]]), SamplerParams(m=1, n=0)) == [0]

    def test_m_at_least_n_returns_all(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2))
        out = diverse_sample(pts, SamplerParams(m=10, n=1, r0=5.0))
        assert sorted(out) == list(range(6))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            diverse_sample(WORKED, SamplerParams(m=0, n=0))
        with pytest.raises(DataError):
            diverse_sample(np.array([[np.nan, 0.0]]), SamplerParams(m=1, n=0))

    def test_radius_adaptation_recovers(self):
        # r0 far below any pairwise gap: the filter only unblocks after bumps
        pts = np.array([[0.0, 0], [5.0, 0], [10.0, 0], [15.0, 0]])
        params = SamplerParams(m=3, n=1, r0=0.01, delta_r=1.0)
        out = diverse_sample(pts, params)
        assert len(out) == 3 and len(set(out)) == 3
        assert verify_selection(pts, params, out)

    def test_n_decrement_fallback(self):
        # n larger than N-1 can never be met; max_adapt bumps then n drops
        pts = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
        params = SamplerParams(m=2, n=10, r0=0.5, delta_r=0.5, max_adapt=3)
        out = diverse_sample(pts, params)
        assert len(out) == 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_filter_off_matches_gonzalez(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(2, 40)), 2))
        m = int(rng.integers(1, len(pts) + 1))
        assert diverse_sample(pts, SamplerParams(m=m, n=0)) == gonzalez_sample(pts, m)

    def test_outlier_exclusion(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            pts, outliers = planted_outlier_instance(rng)
            for n in (1, 3):
                out = diverse_sample(pts, SamplerParams(m=8, n=n, r0=0.5))
                assert not (set(out) & outliers)

    def test_monotone_covering_radius(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 2))
        radii = [
            covering_radius(pts, diverse_sample(pts, SamplerParams(m=m, n=2, r0=0.5)))
            for m in range(1, 12)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))


def reference_selection(pts, p: SamplerParams) -> list[int]:
    return diverse_sample_reference(
        pts, m=p.m, n=p.n, r0=p.r0, delta_r=p.delta_r, max_adapt=p.max_adapt
    )


def random_instance(rng, kind: str) -> np.ndarray:
    n_pts, dim = int(rng.integers(1, 31)), int(rng.integers(1, 4))
    if kind == "grid":  # integer coordinates: exact distance ties everywhere
        return rng.integers(0, 4, size=(n_pts, dim)).astype(float)
    pts = rng.normal(0.0, float(rng.uniform(0.1, 5.0)), size=(n_pts, dim))
    if kind == "duplicates":
        pts = pts[rng.integers(0, max(1, n_pts // 3), size=n_pts)]
    return pts


class TestAgainstReferenceLoop:
    """The sorted-row sampler against the recount-per-bump loop it replaced."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["normal", "grid", "duplicates"]),
        n=st.integers(0, 8),
        r0=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 3.0, 1e3]),
        delta_r=st.sampled_from([0.05, 0.1, 0.25, 1.0]),
        max_adapt=st.sampled_from([1, 2, 3, 40, 1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_selection(self, seed, kind, n, r0, delta_r, max_adapt):
        rng = np.random.default_rng(seed)
        pts = random_instance(rng, kind)
        m = int(rng.integers(1, len(pts) + 3))
        params = SamplerParams(m=m, n=n, r0=r0, delta_r=delta_r, max_adapt=max_adapt)
        assert diverse_sample(pts, params) == reference_selection(pts, params)

    @pytest.mark.parametrize(
        "pts, params",
        [
            # starved: N <= n, so every level above N - 1 is skipped
            (np.array([[0.0, 0.0], [3.0, 0.0]]), SamplerParams(m=2, n=5)),
            (np.array([[1.0, 2.0]]), SamplerParams(m=3, n=5)),
            # one bump per level: n is relaxed down to 0 before row 3 qualifies
            (np.array([[0.0], [1.0], [2.0], [10.0]]),
             SamplerParams(m=4, n=3, r0=0.5, delta_r=0.5, max_adapt=1)),
            # every row a duplicate of one of two points
            (np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 3),
             SamplerParams(m=7, n=3, r0=0.1, max_adapt=3)),
            # a radius that already covers everything
            (np.arange(12, dtype=float).reshape(6, 2), SamplerParams(m=6, n=4, r0=1e6)),
        ],
        ids=["starved-2", "starved-1", "relax-to-zero", "duplicates", "huge-r0"],
    )
    def test_edge_cases(self, pts, params):
        out = diverse_sample(pts, params)
        assert out == reference_selection(pts, params)
        assert verify_selection(pts, params, out)

    @pytest.mark.parametrize("field", ["r0", "delta_r"])
    def test_nan_radius_rejected(self, field):
        params = dataclasses.replace(SamplerParams(m=2, n=1), **{field: float("nan")})
        with pytest.raises(ConfigurationError):
            diverse_sample(WORKED, params)


class TestGonzalez:
    def test_worked_example(self):
        assert gonzalez_sample(WORKED, 2) == [1, 3]

    def test_m_equals_n_is_permutation(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(7, 3))
        assert sorted(gonzalez_sample(pts, 7)) == list(range(7))

    def test_two_approximation_against_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            pts = rng.normal(size=(int(rng.integers(4, 12)), 2))
            m = int(rng.integers(1, 4))
            greedy = covering_radius(pts, gonzalez_sample(pts, m))
            assert greedy <= 2.0 * brute_force_kcenter_radius(pts, m) + 1e-12

    def test_monotone_covering_radius(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(30, 2))
        radii = [covering_radius(pts, gonzalez_sample(pts, m)) for m in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))


class TestRandomSample:
    def test_full_draw_is_permutation(self):
        assert sorted(random_sample(8, 8, seed=1)) == list(range(8))

    def test_determinism(self):
        assert random_sample(20, 5, seed=9) == random_sample(20, 5, seed=9)

    def test_m_too_large(self):
        with pytest.raises(ConfigurationError):
            random_sample(3, 4, seed=0)

    def test_uniformity(self):
        counts = np.zeros(4)
        for seed in range(10_000):
            counts[random_sample(4, 1, seed=seed)[0]] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.04)


class TestVerifySelection:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pts = rng.normal(size=(int(rng.integers(4, 50)), 2))
            params = SamplerParams(
                m=int(rng.integers(1, 10)),
                n=int(rng.integers(0, 4)),
                r0=float(rng.uniform(0.05, 1.0)),
            )
            assert verify_selection(pts, params, diverse_sample(pts, params))

    def test_rejects_filter_violation(self):
        # [1, 3] picks the isolated far point that fails the neighbor filter
        res = verify_selection(WORKED, SamplerParams(m=2, n=1, r0=0.5), [1, 3])
        assert not res and "filter" in res.reason

    def test_rejects_bad_seed(self):
        res = verify_selection(WORKED, SamplerParams(m=2, n=0, r0=0.5), [0, 3])
        assert not res and "mean-closest" in res.reason

    def test_rejects_non_farthest_pick(self):
        pts = np.array([[0.0, 0], [1.0, 0], [4.0, 0]])
        res = verify_selection(pts, SamplerParams(m=2, n=0, r0=10.0), [1, 0])
        assert not res and "farthest" in res.reason

    def test_rejects_empty_and_duplicates(self):
        assert not verify_selection(WORKED, SamplerParams(m=2, n=0), [])
        assert not verify_selection(WORKED, SamplerParams(m=2, n=0), [1, 1])


class TestMemory:
    def test_quota_even_split(self):
        assert allocate_quota(1000, 20) == [50] * 20

    def test_quota_remainder_to_earliest(self):
        assert allocate_quota(10, 3) == [4, 3, 3]

    def test_quota_underflow(self):
        with pytest.raises(ConfigurationError):
            allocate_quota(5, 6)

    def test_shrink_keeps_prefix(self):
        store = ExemplarStore(budget=100)
        store.set_class(0, list(range(50)), np.zeros(50, dtype=np.int64))
        store.shrink_class(0, 20)
        assert store.train_indices[0] == list(range(20))

    def test_shrink_noop_cases(self):
        store = ExemplarStore(budget=10)
        store.set_class(1, [0], np.array([1]))
        store.shrink_class(1, 5)
        assert len(store.train_indices[1]) == 1
        with pytest.raises(ConfigurationError, match="no exemplars"):
            store.shrink_class(7, 3)  # absent class
        assert list(store.train_indices) == [1]

    def test_greedy_prefix_property(self):
        # shrinking a size-50 greedy selection to 20 equals rerunning at m=20
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(120, 2))
        big = gonzalez_sample(pts, 50)
        assert big[:20] == gonzalez_sample(pts, 20)

    def test_budget_enforced(self):
        store = ExemplarStore(budget=2)
        y_train = np.array([1, 0, 0, 0])
        store.set_class(1, [0], y_train)
        with pytest.raises(ConfigurationError):
            store.set_class(0, [1, 2, 3], y_train)
        # a rejected call stores nothing
        assert store.train_indices == {1: [0]}
        assert store.total() == 1

    def test_label_mismatch_rejected(self):
        store = ExemplarStore(budget=5)
        with pytest.raises(ConfigurationError):
            store.set_class(0, [0], np.array([1]))

    def test_json_schema(self):
        import json

        store = ExemplarStore(budget=5)
        store.set_class(2, [4, 9], np.full(10, 2))
        dump = json.loads(store.to_json())
        assert dump["budget"] == 5
        assert dump["classes"] == [
            {"class": 2, "indices_into_train": [4, 9], "selection_order": [0, 1]}
        ]

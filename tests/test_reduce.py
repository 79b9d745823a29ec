import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from cilbench import reduce
from cilbench.data import BlobsSpec, make_blobs
from cilbench.errors import ConfigurationError, DataError
from cilbench.harness import _ForkedCall
from cilbench.reduce import (
    TsneConfig,
    conditional_affinities,
    finish_tsne,
    joint_affinities,
    kl_divergence_and_grad,
    kl_trace_steps,
    pairwise_sq_dists,
    pca_reduce,
    tsne_descent,
    tsne_reduce,
)


def three_clusters(n_per=20, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    return (
        np.vstack([rng.normal(c * 12.0, 1.0, size=(n_per, dim)) for c in range(3)]),
        np.repeat(np.arange(3), n_per),
    )


class TestPca:
    def test_identical_points_give_zero(self):
        X = np.ones((6, 3)) * 2.5
        emb = pca_reduce(X, 2)
        assert np.all(emb.points == 0.0)

    def test_line_data_captures_all_variance(self):
        # oracle: direct least-squares fit of the 1-D subspace
        t = np.linspace(-3, 3, 25)
        X = np.stack([t, 2 * t, 2 * t], axis=1)
        emb = pca_reduce(X, 1)
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        recon = emb.points @ direction[None, :] + X.mean(axis=0)
        assert np.max(np.abs(recon - X)) < 1e-9

    def test_full_dim_preserves_distances(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 4))
        emb = pca_reduce(X, 4)
        assert np.allclose(
            pairwise_sq_dists(X), pairwise_sq_dists(emb.points), atol=1e-9
        )

    def test_row_alignment_and_determinism(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 6))
        a, b = pca_reduce(X, 2), pca_reduce(X, 2)
        assert np.array_equal(a.points, b.points)

    def test_d_out_of_range(self):
        with pytest.raises(ConfigurationError):
            pca_reduce(np.zeros((5, 3)), 4)

    def test_gram_overflow_is_data_error(self):
        X = np.random.default_rng(0).normal(size=(20, 3)) * 1e160
        with pytest.raises(DataError, match="Gram matrix overflows"):
            pca_reduce(X, 2)


def gapped(n, dim, rank, seed, offset=3.0):
    """n x dim rows of rank `rank` after centring, singular values 40, 20,
    10, ...: every leading direction is separated by a factor-2 gap."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, rank))
    u = np.linalg.qr(a - a.mean(axis=0))[0]  # orthonormal, zero-mean columns
    v = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
    return (u * (40.0 / 2.0 ** np.arange(rank))) @ v.T + offset * rng.normal(size=dim)


def directions(X, points):
    """The unit directions that pca_reduce projected onto, recovered from
    its output by least squares in the row space of the centred input."""
    centered = X - X.mean(axis=0)
    return np.linalg.lstsq(centered, points, rcond=None)[0]


class TestPcaAgainstSvd:
    """The Gram-matrix PCA against the economy-SVD PCA it replaced."""

    @pytest.mark.parametrize(
        "n, dim, rank, d",
        [(25, 3072, 24, 2), (25, 3072, 24, 5), (160, 32, 32, 2), (160, 32, 32, 8),
         (6, 10, 5, 5), (40, 12, 3, 3)],
        ids=["wide-2", "wide-5", "tall-2", "tall-8", "d-is-rank-wide", "d-is-rank-tall"],
    )
    def test_agrees_with_svd(self, n, dim, rank, d):
        X = gapped(n, dim, rank, seed=n + dim)
        points = pca_reduce(X, d).points
        ref = oracles.pca_svd(X, d)
        assert np.max(np.abs(points - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "X, d, live",
        [
            (np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 1.0, 0.0, 3.0]]), 2, 1),
            (np.repeat(gapped(3, 6, 2, seed=1), [2, 1, 3], axis=0), 4, 2),
            (np.repeat(gapped(3, 40, 2, seed=2), [4, 1, 2], axis=0), 5, 2),
            (np.full((5, 4), 7.25), 3, 0),
        ],
        ids=["two-rows", "duplicate-rows-tall", "duplicate-rows-wide", "identical-rows"],
    )
    def test_rank_deficient_gives_zero_null_coordinates(self, X, d, live):
        points = pca_reduce(X, d).points
        assert points.shape == (len(X), d) and np.all(np.isfinite(points))
        assert np.all(points[:, live:] == 0.0)
        ref = oracles.pca_svd(X, d)[:, :live]
        assert np.max(np.abs(points[:, :live] - ref), initial=0.0) <= 1e-9 * np.max(np.abs(X))

    @pytest.mark.parametrize("n, dim", [(30, 3), (4, 9)], ids=["tall", "wide"])
    def test_largest_loading_positive(self, n, dim):
        # data on one line whose largest loading is negative: the output
        # direction is its negation
        v = np.zeros(dim)
        v[:3] = [0.3, -0.9, 0.2]
        t = np.linspace(-2.0, 3.0, n)
        X = t[:, None] * v + 1.5
        points = pca_reduce(X, 1).points[:, 0]
        assert np.allclose(points, -(t - t.mean()) * np.linalg.norm(v), atol=1e-12)

    @pytest.mark.parametrize("n, dim, d", [(25, 3072, 2), (160, 32, 2), (8, 8, 7)])
    def test_directions_signed_and_orthonormal(self, n, dim, d):
        X = gapped(n, dim, min(n - 1, dim), seed=7)
        comp = directions(X, pca_reduce(X, d).points)
        assert np.allclose(comp.T @ comp, np.eye(d), atol=1e-9)
        largest = comp[np.argmax(np.abs(comp), axis=0), np.arange(d)]
        assert np.all(largest > 0)


class TestAffinities:
    def test_conditional_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 4))
        P = conditional_affinities(pairwise_sq_dists(X), perplexity=4.0)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(P) == 0.0)

    def test_square_corners_perplexity_two(self):
        X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        P = conditional_affinities(pairwise_sq_dists(X), perplexity=2.0)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_joint_matrix_sums_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        P = joint_affinities(X, perplexity=5.0)
        assert abs(P.sum() - 1.0) < 1e-9
        assert np.allclose(P, P.T)

    def test_bandwidth_hits_entropy_target(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        P = conditional_affinities(pairwise_sq_dists(X), perplexity=8.0)
        for i in range(30):
            row = P[i][P[i] > 0]
            entropy = -np.sum(row * np.log(row))
            assert abs(entropy - np.log(8.0)) < 1e-4


class TestBatchedBisection:
    """conditional_affinities against the row-by-row bisection it replaced."""

    @pytest.mark.parametrize(
        "n, dim, scale, perplexity",
        [(160, 32, 1.0, 30.0), (160, 32, 0.05, 30.0), (50, 5, 3.0, 16.33),
         (7, 3, 1.0, 2.0), (24, 8, 40.0, 7.67), (300, 2, 1.0, 30.0)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_per_row_loop(self, n, dim, scale, perplexity, seed):
        rng = np.random.default_rng([n, seed])
        d2 = pairwise_sq_dists(rng.normal(0.0, scale, size=(n, dim)))
        assert np.array_equal(
            conditional_affinities(d2, perplexity),
            oracles.conditional_affinities_per_row(d2, perplexity),
        )

    def test_duplicates_and_underflow(self):
        # duplicate rows never reach the target (max_steps runs out) and the
        # far rows start with every weight underflowed to 0
        rng = np.random.default_rng(5)
        X = np.vstack([np.zeros((6, 3)), rng.normal(0.0, 1e3, size=(10, 3))])
        d2 = pairwise_sq_dists(X)
        for max_steps in (0, 1, 50):
            P = conditional_affinities(d2, 4.0, max_steps=max_steps)
            assert np.array_equal(
                P, oracles.conditional_affinities_per_row(d2, 4.0, max_steps=max_steps)
            )
            assert np.all(np.isfinite(P)) and np.all(np.diag(P) == 0.0)


class TestTsne:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 0), ("perplexity", 1.5), ("perplexity", float("nan")),
            ("exaggeration_iters", -1),
        ],
    )
    def test_config_out_of_range(self, field, value):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TsneConfig(), **{field: value}).validate()

    def test_dimension_below_one_rejected(self):
        X, _ = three_clusters(4)
        with pytest.raises(ConfigurationError, match="d must be >= 1"):
            tsne_reduce(X, 0)

    def test_config_range_edges_accepted(self):
        TsneConfig(perplexity=2.0, iterations=1, exaggeration_iters=0).validate()
        TsneConfig(iterations=40, exaggeration_iters=90).validate()

    def test_shape_and_finiteness(self):
        X, _ = three_clusters(8)
        emb = tsne_reduce(X, 2, TsneConfig(iterations=80))
        assert emb.points.shape == (24, 2)
        assert np.all(np.isfinite(emb.points))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        P = joint_affinities(X, perplexity=3.0)
        Y = rng.normal(size=(12, 2))
        kl, grad = kl_divergence_and_grad(P, Y)
        eps = 1e-6
        for i in range(12):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += eps
                Ym[i, j] -= eps
                fd = (
                    kl_divergence_and_grad(P, Yp)[0] - kl_divergence_and_grad(P, Ym)[0]
                ) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_kl_decreases_and_beats_random_projection(self):
        X, labels = three_clusters(20)
        emb = tsne_reduce(X, 2, TsneConfig(iterations=800))
        assert emb.kl_trace[799] <= emb.kl_trace[99]

        def purity(Y):
            centroids = np.stack([Y[labels == c].mean(axis=0) for c in range(3)])
            d = np.linalg.norm(Y[:, None, :] - centroids[None], axis=2)
            return float(np.mean(np.argmin(d, axis=1) == labels))

        rng = np.random.default_rng(0)
        random_proj = X @ rng.normal(size=(X.shape[1], 2))
        assert purity(emb.points) >= purity(random_proj)

    def test_determinism(self):
        X, _ = three_clusters(6, seed=9)
        cfg = TsneConfig(iterations=60)
        a, b = tsne_reduce(X, 2, cfg), tsne_reduce(X, 2, cfg)
        assert np.array_equal(a.points, b.points)

    def test_small_input_falls_back_to_pca(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        emb = tsne_reduce(X, 2)
        assert emb.points.shape == (3, 2)
        assert emb.warnings

    def test_duplicate_only_input_falls_back(self):
        X = np.ones((10, 3))
        emb = tsne_reduce(X, 2)
        assert emb.warnings and np.all(emb.points == 0.0)

    def test_gram_overflow_is_data_error(self):
        # caught by the PCA start, before the affinities overflow too
        X = np.random.default_rng(0).normal(size=(20, 3)) * 1e160
        with pytest.raises(DataError, match="Gram matrix overflows"):
            tsne_reduce(X, 2)

    def test_distance_overflow_is_data_error(self):
        # a large common offset passes the centred PCA start but overflows
        # the affinities' distances; under filterwarnings=error a numpy
        # warning would surface here instead of the DataError
        X = 1e155 + np.random.default_rng(0).normal(size=(20, 3)) * 1e151
        with pytest.raises(DataError, match="squared distances overflow"):
            tsne_reduce(X, 2)

    def test_perplexity_auto_cap(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(7, 3))  # default perplexity 30 must be capped
        emb = tsne_reduce(X, 2, TsneConfig(iterations=30))
        assert np.all(np.isfinite(emb.points))


def tsne_start(X, d, cfg):
    """P and the initial Y (the scaled PCA) built the way tsne_reduce builds them."""
    n, dim = X.shape
    P = joint_affinities(X, max(min(cfg.perplexity, (n - 1) / 3.0), 2.0))
    Y = pca_reduce(X, d).points
    return P, Y / Y[:, 0].std() * 1e-4


def random_affinities(n, seed):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n))
    P = np.maximum((P + P.T) / (2.0 * (P + P.T).sum()), 1e-12)
    return P, rng.normal(size=(n, 2))



class TestPendingDescent:
    """tsne_reduce(descend=False) stops after the set-up; tsne_descent and
    finish_tsne then give the embedding of one tsne_reduce call."""

    def test_set_up_then_descent_equals_one_call(self):
        X, _ = three_clusters(n_per=10, dim=4)
        cfg = TsneConfig(iterations=120)
        emb = tsne_reduce(X, 2, cfg, descend=False)
        P, Y0 = tsne_start(X, 2, cfg)
        assert np.array_equal(emb.pending[0], P) and emb.pending[1] == cfg
        assert np.array_equal(emb.points, Y0) and emb.kl_trace is None
        finish_tsne(emb, *tsne_descent(emb))
        whole = tsne_reduce(X, 2, cfg)
        assert emb.pending is None and whole.pending is None
        assert np.array_equal(emb.points, whole.points)
        assert np.array_equal(emb.kl_trace, whole.kl_trace, equal_nan=True)

    @pytest.mark.parametrize("X", [np.ones((10, 3)), np.eye(3)], ids=["duplicates", "n3"])
    def test_fallbacks_are_never_pending(self, X):
        emb = tsne_reduce(X, 2, descend=False)
        assert emb.pending is None and emb.warnings

    # Python >= 3.12 warns on a fork of a process with threads (the BLAS's)
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_descent_in_a_forked_child_is_bit_identical(self):
        X, _ = three_clusters(n_per=10, dim=4, seed=2)
        emb = tsne_reduce(X, 2, TsneConfig(iterations=120), descend=False)
        with _ForkedCall(lambda: tsne_descent(emb), fork=True) as call:
            points, trace = call.result()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        here_points, here_trace = tsne_descent(emb)
        assert np.array_equal(points, here_points)
        assert np.array_equal(trace, here_trace, equal_nan=True)


class TestFusedDescent:
    """The one-call-per-step descent against the two-call loop it replaced."""

    @pytest.mark.parametrize(
        "n, overrides",
        [
            (5, {}),
            (24, {}),
            (160, {}),
            (24, {"iterations": 1}),
            (24, {"iterations": 40, "exaggeration_iters": 40}),
            (24, {"iterations": 40, "exaggeration_iters": 90}),
        ],
        # every run starts from the PCA, which the ids name
        ids=lambda v: f"{v}-pca" if isinstance(v, int) else None,
    )
    def test_points_and_trace_bit_identical_to_unfused_loop(self, n, overrides):
        rng = np.random.default_rng(n)
        centers = rng.normal(0.0, 6.0, size=(3, 8))
        X = centers[np.arange(n) % 3] + rng.normal(size=(n, 8))
        cfg = dataclasses.replace(TsneConfig(iterations=300), **overrides)
        emb = tsne_reduce(X, 2, cfg)
        P, Y0 = tsne_start(X, 2, cfg)
        # the descent runs in float32; the oracle runs in its inputs' dtype
        points, trace = oracles.tsne_descent(
            P.astype(np.float32), Y0.astype(np.float32),
            iterations=cfg.iterations,
            exaggeration_iters=cfg.exaggeration_iters,
            # the reference step rule as literals, so a changed constant fails here
            learning_rate=200.0,
            early_exaggeration=12.0,
            momentum_start=0.5,
            momentum_final=0.8,
            momentum_switch_iter=250,
        )
        assert not emb.warnings
        assert points.dtype == np.float32 and emb.points.dtype == np.float64
        assert np.array_equal(emb.points, points)
        # the KL is computed at the scheduled entries only, NaN elsewhere;
        # finish_tsne computes the last entry in float64 at the final points
        steps = kl_trace_steps(cfg.iterations, cfg.exaggeration_iters)
        expected = np.full(cfg.iterations, np.nan)
        expected[steps] = np.asarray(trace)[steps]
        expected[-1] = oracles.tsne_kl_and_grad(P, points.astype(np.float64))[0]
        assert np.array_equal(np.asarray(emb.kl_trace), expected, equal_nan=True)
        assert len(emb.kl_trace) == cfg.iterations

    @pytest.mark.parametrize("n", [5, 24, 160])
    def test_kernel_same_with_and_without_work(self, n):
        P, Y = random_affinities(n, seed=n)
        P_grad = np.maximum(P * 12.0, 1e-12)
        work = tuple(np.full((n, n), np.nan) for _ in range(3))
        kl, grad = kl_divergence_and_grad(P, Y, P_grad)
        kl_w, grad_w = kl_divergence_and_grad(P, Y, P_grad, work)
        assert kl == kl_w and np.array_equal(grad, grad_w)
        # and both halves agree with the two-call reference kernel
        assert kl == oracles.tsne_kl_and_grad(P, Y)[0]
        assert np.array_equal(grad, oracles.tsne_kl_and_grad(P_grad, Y)[1])

    @pytest.mark.parametrize("n", [5, 24, 160])
    def test_kernel_without_kl_gives_the_same_gradient(self, n):
        P, Y = random_affinities(n, seed=n)
        P_grad = np.maximum(P * 12.0, 1e-12)
        work = tuple(np.full((n, n), np.nan) for _ in range(3))
        kl, grad = kl_divergence_and_grad(P, Y, P_grad, work, with_kl=False)
        assert np.isnan(kl)
        assert np.array_equal(grad, kl_divergence_and_grad(P, Y, P_grad)[1])
        assert np.array_equal(grad, oracles.tsne_kl_and_grad(P_grad, Y)[1])

    @pytest.mark.parametrize(
        "iterations, exaggeration_iters, steps",
        [
            (1, 100, [0]),
            (40, 0, [39]),
            (73, 37, [36, 49, 72]),
            (40, 90, [39]),
            (500, 100, [49, 99, 149, 199, 249, 299, 349, 399, 449, 499]),
        ],
    )
    def test_trace_is_finite_exactly_at_the_schedule(self, iterations, exaggeration_iters, steps):
        X, _ = three_clusters(n_per=8, dim=4)
        cfg = TsneConfig(iterations=iterations, exaggeration_iters=exaggeration_iters)
        trace = np.asarray(tsne_reduce(X, 2, cfg).kl_trace)
        assert len(trace) == iterations
        assert np.flatnonzero(np.isfinite(trace)).tolist() == steps
        assert kl_trace_steps(iterations, exaggeration_iters) == steps

    def test_kernel_with_work_allocates_less_than_one_matrix(self):
        n = 320
        P, Y = random_affinities(n, seed=0)
        work = tuple(np.empty((n, n)) for _ in range(3))
        tracemalloc.start()
        try:
            kl_divergence_and_grad(P, Y, work=work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


@pytest.fixture(scope="module")
def blob_pool_descents():
    """Ten tsne-blobs-shaped pools (one per class of the benchmark's 32-D
    blobs, seed 0) descended by tsne_descent, with the dtypes of every
    kernel call it made: per pool (P, start, points, kl_trace, dtypes)."""
    ds = make_blobs(BlobsSpec(10, 200, dim=32, outlier_fraction=0.1), 0)
    kernel = reduce.kl_divergence_and_grad
    seen = []  # per pool, the (P, P_grad, Y) dtypes of each call

    def spy(P, Y, P_grad=None, work=None, with_kl=True):
        seen[-1].append((P.dtype, (P if P_grad is None else P_grad).dtype, Y.dtype))
        return kernel(P, Y, P_grad, work, with_kl)

    pools = []
    for c in range(ds.num_classes):
        emb = tsne_reduce(ds.X_train[ds.y_train == c], 2, TsneConfig(), descend=False)
        P, start = emb.pending[0], emb.points
        seen.append([])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduce, "kl_divergence_and_grad", spy)
            points, trace = tsne_descent(emb)
        finish_tsne(emb, points, trace)
        pools.append((P, start, points, emb.kl_trace, seen[-1]))
    return pools


class TestFloat32Descent:
    """tsne_descent computes in float32 and returns float64 points; its
    final KL stays at that of the float64 descent it replaced."""

    def test_mean_final_kl_within_0_02_of_float64(self, blob_pool_descents):
        # measured mean gaps over seeds 0-3: -0.0069 to +0.0037
        kl32, kl64 = [], []
        for P, start, _, kl_trace, _ in blob_pool_descents:
            points64, _ = oracles.tsne_descent(
                P, start, iterations=500, exaggeration_iters=100, learning_rate=200.0,
                early_exaggeration=12.0, momentum_start=0.5, momentum_final=0.8,
                momentum_switch_iter=250, with_trace=False,
            )
            kl32.append(kl_trace[-1])  # finish_tsne's entry, in float64
            kl64.append(oracles.tsne_kl_and_grad(P, points64)[0])
        assert abs(np.mean(kl32) - np.mean(kl64)) <= 0.02

    def test_every_kernel_call_is_float32(self, blob_pool_descents):
        for *_, seen in blob_pool_descents:
            assert len(seen) == TsneConfig().iterations
            assert set(seen) == {(np.dtype(np.float32),) * 3}

    def test_points_are_finite_float64(self, blob_pool_descents):
        for P, start, points, _, _ in blob_pool_descents:
            assert points.dtype == np.float64 and points.shape == start.shape == (len(P), 2)
            assert np.all(np.isfinite(points))

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from cilbench.errors import ConfigurationError
from cilbench.reduce import (
    TsneConfig,
    conditional_affinities,
    joint_affinities,
    kl_divergence_and_grad,
    pairwise_sq_dists,
    pca_reduce,
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


class TestTsne:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0), ("learning_rate", -200.0),
            ("early_exaggeration", 0.5),
            ("exaggeration_iters", -1), ("momentum_switch_iter", -1),
            ("momentum_start", -0.1), ("momentum_start", 1.0),
            ("momentum_final", 1.0), ("momentum_final", 5.0),
        ],
    )
    def test_config_out_of_range(self, field, value):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TsneConfig(), **{field: value}).validate()

    def test_config_range_edges_accepted(self):
        TsneConfig(early_exaggeration=1.0, exaggeration_iters=0, momentum_switch_iter=0,
                   momentum_start=0.0, momentum_final=0.0).validate()
        TsneConfig(iterations=40, exaggeration_iters=90).validate()

    def test_shape_and_finiteness(self):
        X, _ = three_clusters(8)
        emb = tsne_reduce(X, TsneConfig(iterations=80, seed=1))
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
        emb = tsne_reduce(X, TsneConfig(iterations=800, seed=3))
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
        cfg = TsneConfig(iterations=60, seed=42)
        a, b = tsne_reduce(X, cfg), tsne_reduce(X, cfg)
        assert np.array_equal(a.points, b.points)

    def test_small_input_falls_back_to_pca(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        emb = tsne_reduce(X, TsneConfig())
        assert emb.points.shape == (3, 2)
        assert emb.warnings

    def test_duplicate_only_input_falls_back(self):
        X = np.ones((10, 3))
        emb = tsne_reduce(X, TsneConfig())
        assert emb.warnings and np.all(emb.points == 0.0)

    def test_perplexity_auto_cap(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(7, 3))  # default perplexity 30 must be capped
        emb = tsne_reduce(X, TsneConfig(iterations=30, seed=0))
        assert np.all(np.isfinite(emb.points))


def tsne_start(X, cfg):
    """P and the initial Y built the way tsne_reduce builds them."""
    n, dim = X.shape
    P = joint_affinities(X, max(min(cfg.perplexity, (n - 1) / 3.0), 2.0))
    rng = np.random.default_rng(cfg.seed)
    if cfg.init == "pca":
        Y = pca_reduce(X, cfg.target_dim).points
        Y = Y / Y[:, 0].std() * 1e-4
    else:
        Y = rng.normal(0.0, 1e-4, size=(n, cfg.target_dim))
    return P, Y


def random_affinities(n, seed):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n))
    P = np.maximum((P + P.T) / (2.0 * (P + P.T).sum()), 1e-12)
    return P, rng.normal(size=(n, 2))


class TestFusedDescent:
    """The one-call-per-step descent against the two-call loop it replaced."""

    @pytest.mark.parametrize(
        "n, init, overrides",
        [
            (5, "pca", {}),
            (5, "random", {}),
            (24, "pca", {}),
            (24, "random", {}),
            (160, "pca", {}),
            (160, "random", {}),
            (24, "pca", {"iterations": 1}),
            (24, "random", {"iterations": 1}),
            (24, "pca", {"iterations": 40, "exaggeration_iters": 40}),
            (24, "random", {"iterations": 40, "exaggeration_iters": 90}),
        ],
    )
    def test_points_and_trace_bit_identical_to_unfused_loop(self, n, init, overrides):
        rng = np.random.default_rng(n)
        centers = rng.normal(0.0, 6.0, size=(3, 8))
        X = centers[np.arange(n) % 3] + rng.normal(size=(n, 8))
        cfg = dataclasses.replace(
            TsneConfig(iterations=300, seed=n + 1, init=init), **overrides
        )
        emb = tsne_reduce(X, cfg)
        P, Y0 = tsne_start(X, cfg)
        points, trace = oracles.tsne_descent(
            P, Y0,
            iterations=cfg.iterations,
            learning_rate=cfg.learning_rate,
            early_exaggeration=cfg.early_exaggeration,
            exaggeration_iters=cfg.exaggeration_iters,
            momentum_start=cfg.momentum_start,
            momentum_final=cfg.momentum_final,
            momentum_switch_iter=cfg.momentum_switch_iter,
        )
        assert not emb.warnings
        assert np.array_equal(emb.points, points)
        assert np.array_equal(np.asarray(emb.kl_trace), np.asarray(trace))
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

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cilbench import learner
from cilbench.errors import ConfigurationError, DivergenceError, ShapeError
from cilbench.learner import (
    LossConfig,
    MlpModel,
    TrainConfig,
    as_features,
    batch_loss_and_grads,
    forward_batch,
    forward_chunked,
    grow_head,
    init_mlp,
    snapshot_teacher,
    train_task,
)
from helpers import fd_gradient
from oracles import (
    ce_loss,
    cross_distilled_loss,
    distilled_softmax,
    kd_loss,
    nme_classify,
    train_task_reference,
)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        model = MlpModel(
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        logits, _ = forward_batch(model, np.array([[1.0, -2.0, 3.0]]))
        assert np.all(logits[0] == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel(weights=[np.eye(2)], biases=[np.zeros(2)])
        logits, acts = forward_batch(model, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits[0], [1.0, 2.0])
        assert np.array_equal(acts[-1][0], [1.0, 2.0])

    def test_width_mismatch(self):
        model = init_mlp(3, (4,), 2, seed=0)
        with pytest.raises(ShapeError):
            forward_batch(model, np.zeros((1, 5)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pixel_bytes_scaled_in_the_models_dtype(self, dtype):
        # unscaled 0-255 pixels must not reach the weights: forward_batch
        # computes on byte / 255 in the model's dtype
        model = init_mlp(3, (4,), 2, seed=0)
        model = MlpModel([W.astype(dtype) for W in model.weights],
                         [b.astype(dtype) for b in model.biases])
        pixels = np.array([[0, 1, 128], [254, 255, 7]], dtype=np.uint8)
        got_logits, got_acts = forward_batch(model, pixels)
        want_logits, want_acts = forward_batch(model, as_features(pixels, np.float64))
        assert got_acts[0].dtype == np.dtype(dtype)
        assert np.array_equal(got_logits, want_logits)
        for a, b in zip(got_acts, want_acts):
            assert np.array_equal(a, b)

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        model = init_mlp(3, (5,), 4, seed=1)
        x = rng.normal(size=(1, 3))
        logits, acts = forward_batch(model, x)
        for j in range(4):
            sel = np.zeros((1, 4))
            sel[0, j] = 1.0
            grads = __import__("cilbench.learner", fromlist=["backprop"]).backprop(
                model, acts, sel
            )
            for k in range(len(model.weights)):
                W = model.weights[k]
                idx = (int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1])))
                eps = 1e-6
                plus, minus = copy.deepcopy(model), copy.deepcopy(model)
                plus.weights[k][idx] += eps
                minus.weights[k][idx] -= eps
                fd = (
                    forward_batch(plus, x)[0][0, j] - forward_batch(minus, x)[0][0, j]
                ) / (2 * eps)
                assert abs(fd - grads[k][0][idx]) <= 1e-4 * max(1.0, abs(fd))


class TestDistilledSoftmax:
    def test_symmetric_inputs(self):
        assert np.allclose(distilled_softmax([0.0, 0.0], 2.0, 2), [0.5, 0.5])

    def test_constant_logits_uniform(self):
        out = distilled_softmax([3.3] * 5, 4.0, 5)
        assert np.allclose(out, 0.2)

    def test_temperature_flattens(self):
        sharp = distilled_softmax([2.0, 0.0], 2.0, 2)
        flat = distilled_softmax([2.0, 0.0], 50.0, 2)
        assert abs(sharp[0] - math.e / (math.e + 1)) < 1e-12
        assert abs(flat[0] - 0.5) < abs(sharp[0] - 0.5)

    def test_first_k_only(self):
        out = distilled_softmax([1.0, 1.0, 99.0], 2.0, 2)
        assert np.allclose(out, [0.5, 0.5])
        assert abs(out.sum() - 1.0) < 1e-12

    def test_k_guards(self):
        with pytest.raises(ConfigurationError):
            distilled_softmax([1.0], 2.0, 0)
        with pytest.raises(ConfigurationError):
            distilled_softmax([1.0], 2.0, 2)

    @given(st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, c):
        base = distilled_softmax([1.0, -0.5, 2.0], 3.0, 3)
        shifted = distilled_softmax([1.0 + c, -0.5 + c, 2.0 + c], 3.0, 3)
        assert np.allclose(base, shifted, atol=1e-9)


class TestLosses:
    def test_ce_perfect_prediction(self):
        assert ce_loss([0.0, 1.0, 0.0], 1) == 0.0

    def test_ce_uniform(self):
        assert abs(ce_loss([0.25] * 4, 2) - math.log(4)) < 1e-12

    def test_ce_known_value(self):
        assert abs(ce_loss([0.7311, 0.2689], 1) - (-math.log(0.2689))) < 1e-12

    def test_ce_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            assert ce_loss(p, int(rng.integers(5))) >= 0.0

    def test_kd_at_self_equals_teacher_entropy(self):
        teacher = np.array([1.0, -2.0, 0.5])
        p = distilled_softmax(teacher, 2.0, 3)
        entropy = -np.sum(p * np.log(p))
        student = np.concatenate([teacher, [9.0]])
        assert abs(kd_loss(teacher, student, 2.0) - entropy) < 1e-9

    def test_kd_uniform_teacher(self):
        assert abs(kd_loss([0.0, 0.0], [0.0, 0.0, 1.0], 2.0) - math.log(2)) < 1e-12

    def test_kd_known_value(self):
        assert abs(kd_loss([2.0, 0.0], [0.0, 2.0], 2.0) - 1.0444) < 1e-4

    def test_kd_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ell = int(rng.integers(2, 6))
            t = rng.normal(0, 3, size=ell)
            s = rng.normal(0, 3, size=ell + int(rng.integers(0, 3)))
            p = distilled_softmax(t, 2.0, ell)
            entropy = -np.sum(p * np.log(p))
            assert kd_loss(t, s, 2.0) >= entropy - 1e-9

    def test_cross_distilled_arithmetic(self):
        assert cross_distilled_loss(1.0, 3.0, 0.5) == 2.0
        assert cross_distilled_loss(1.0, 3.0, 0.0) == 3.0
        assert cross_distilled_loss(1.0, 3.0, 1.0) == 1.0


class TestGrowHead:
    def test_width_and_preservation(self):
        model = init_mlp(4, (6,), 5, seed=3)
        grown = grow_head(model, 5, seed=4)
        assert grown.num_classes == 10
        assert np.array_equal(grown.weights[-1][:, :5], model.weights[-1])
        assert np.array_equal(grown.biases[-1][:5], model.biases[-1])
        assert np.all(grown.biases[-1][5:] == 0.0)

    def test_old_logits_unchanged_when_new_rows_zeroed(self):
        model = init_mlp(4, (6,), 3, seed=5)
        grown = grow_head(model, 2, seed=6)
        grown.weights[-1][:, 3:] = 0.0
        x = np.arange(4.0)[None, :]
        assert np.allclose(forward_batch(grown, x)[0][0, :3], forward_batch(model, x)[0][0])

    def test_two_grows_equal_one_in_width(self):
        model = init_mlp(3, (4,), 2, seed=0)
        twice = grow_head(grow_head(model, 5, seed=1), 5, seed=2)
        once = grow_head(model, 10, seed=3)
        assert twice.num_classes == once.num_classes == 12
        assert np.array_equal(twice.weights[-1][:, :2], once.weights[-1][:, :2])


class TestBatchGradients:
    def test_cd_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        model = init_mlp(4, (6,), 3, seed=10)
        teacher = snapshot_teacher(init_mlp(4, (6,), 2, seed=11))
        X = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        lcfg = LossConfig(temperature=2.0, beta=0.5)
        _, grads = batch_loss_and_grads(model, X, y, teacher, lcfg)
        for k in range(len(model.weights)):
            W = model.weights[k]
            for _ in range(3):
                idx = (int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1])))
                fd = fd_gradient(model, k, idx, X, y, teacher, lcfg)
                assert abs(fd - grads[k][0][idx]) <= 1e-4 * max(1.0, abs(fd))

    def test_ce_only_gradient(self):
        rng = np.random.default_rng(12)
        model = init_mlp(3, (5,), 4, seed=13)
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        lcfg = LossConfig()
        _, grads = batch_loss_and_grads(model, X, y, None, lcfg)
        fd = fd_gradient(model, 0, (0, 0), X, y, None, lcfg)
        assert abs(fd - grads[0][0][0, 0]) <= 1e-4 * max(1.0, abs(fd))


class TestTraining:
    def _blob_data(self, rng, n=60):
        X = np.vstack(
            [rng.normal(center, 0.4, size=(n // 2, 2)) for center in [(-2.0, 0.0), (2.0, 0.0)]]
        )
        return X, np.repeat([0, 1], n // 2)

    def test_separable_data_fits(self):
        rng = np.random.default_rng(14)
        X, y = self._blob_data(rng)
        model = init_mlp(2, (16,), 2, seed=15)
        model, _ = train_task(
            model, X, y, seed=1,
            tcfg=TrainConfig(epochs=50, batch_size=16, learning_rate=0.1, momentum=0.9),
        )
        acc = np.mean(np.argmax(forward_batch(model, X)[0], axis=1) == y)
        assert acc >= 0.95

    def test_first_task_ignores_beta(self):
        rng = np.random.default_rng(16)
        X, y = self._blob_data(rng, n=20)
        model = init_mlp(2, (8,), 2, seed=17)
        tcfg = TrainConfig(epochs=5, batch_size=8)
        _, trace_a = train_task(model, X, y, seed=2, lcfg=LossConfig(beta=0.5), tcfg=tcfg)
        _, trace_b = train_task(model, X, y, seed=2, lcfg=LossConfig(beta=0.0), tcfg=tcfg)
        assert trace_a == trace_b

    def test_determinism(self):
        rng = np.random.default_rng(18)
        X, y = self._blob_data(rng, n=20)
        model = init_mlp(2, (8,), 2, seed=19)
        tcfg = TrainConfig(epochs=4, batch_size=8)
        m1, t1 = train_task(model, X, y, seed=3, tcfg=tcfg)
        m2, t2 = train_task(model, X, y, seed=3, tcfg=tcfg)
        assert t1 == t2
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_label_outside_head(self):
        model = init_mlp(2, (4,), 2, seed=20)
        with pytest.raises(ShapeError):
            train_task(model, np.zeros((1, 2)), np.array([5]), seed=0, tcfg=TrainConfig(epochs=1))
        with pytest.raises(ShapeError):
            train_task(model, np.zeros((1, 2)), np.array([-1]), seed=0, tcfg=TrainConfig(epochs=1))

    def test_negative_label_in_batch_loss(self):
        # -1 must not be scored as the last class of a 3-class head.
        model = init_mlp(2, (4,), 3, seed=20)
        with pytest.raises(ShapeError):
            batch_loss_and_grads(model, np.zeros((2, 2)), np.array([-1, 0]), None, LossConfig())
        with pytest.raises(ShapeError):
            batch_loss_and_grads(model, np.zeros((2, 2)), np.array([3, 0]), None, LossConfig())

    def test_teacher_wider_than_head(self):
        model = init_mlp(2, (4,), 2, seed=20)
        teacher = snapshot_teacher(init_mlp(2, (4,), 3, seed=21))
        with pytest.raises(ShapeError):
            train_task(
                model, np.zeros((1, 2)), np.array([0]), teacher, seed=0,
                tcfg=TrainConfig(epochs=1),
            )


class TestConfig:
    @pytest.mark.parametrize(
        "cfg",
        [
            LossConfig(temperature=1.0), LossConfig(temperature=math.nan),
            LossConfig(beta=-0.1), LossConfig(beta=1.1), LossConfig(beta=math.nan),
            TrainConfig(epochs=0), TrainConfig(batch_size=0),
            TrainConfig(learning_rate=0.0), TrainConfig(learning_rate=math.nan),
            TrainConfig(momentum=-0.1), TrainConfig(momentum=1.0), TrainConfig(momentum=5.0),
            TrainConfig(momentum=math.nan),
        ],
        ids=repr,
    )
    def test_out_of_range_rejected(self, cfg):
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_range_edges_accepted(self):
        LossConfig(temperature=1.0 + 1e-9, beta=0.0).validate()
        LossConfig(beta=1.0).validate()
        TrainConfig(epochs=1, batch_size=1, learning_rate=1e-12, momentum=0.0).validate()
        TrainConfig(momentum=0.999).validate()


def _task(n, dim, dtype, seed):
    """n rows in two blobs (2-D) or uniform pixels (wider), labels in 0..5."""
    rng = np.random.default_rng(seed)
    if dim == 2:
        X = np.vstack([rng.normal(c, 0.5, size=(n // 2, 2)) for c in [(-2.0, 0.0), (2.0, 0.0)]])
        X = np.vstack([X, rng.normal(0.0, 1.0, size=(n - len(X), 2))])
    else:
        X = rng.random((n, dim))
    return X.astype(dtype), rng.integers(0, 6, size=n)


# (rows, input width, dtype, hidden, teacher head or None, batch_size, momentum).
# Under OpenBLAS a row's logits depend on the row count of the forward: one
# row goes through a matrix-vector kernel, and at width 3072 two rows go
# through the small-matrix kernel that 32 rows do not.  65/16, 97/32 and
# 98/32 end each epoch on such a short batch.
BIT_EXACT_CASES = {
    "blobs-no-teacher": (60, 2, np.float64, (16, 8), None, 16, 0.9),
    "blobs-teacher": (60, 2, np.float64, (16, 8), 3, 16, 0.9),
    "one-row-last-batch": (65, 2, np.float64, (16, 8), 3, 16, 0.9),
    "batch-larger-than-task": (10, 2, np.float64, (16, 8), 3, 32, 0.9),
    "momentum-zero": (60, 2, np.float64, (16, 8), 3, 16, 0.0),
    "wide-float32-two-row-last-batch": (98, 3072, np.float32, (32,), 3, 32, 0.9),
    "wide-float32-one-row-last-batch": (97, 3072, np.float32, (32,), 4, 32, 0.9),
}


class TestTrainingBitExact:
    """train_task (teacher targets once per task, one flat parameter buffer)
    against the per-batch loop it replaced, kept in oracles.py."""

    @pytest.mark.parametrize("case", list(BIT_EXACT_CASES), ids=list(BIT_EXACT_CASES))
    def test_equal_to_per_batch_loop(self, case):
        n, dim, dtype, hidden, ell, batch_size, momentum = BIT_EXACT_CASES[case]
        X, y = _task(n, dim, dtype, seed=0)
        model = init_mlp(dim, hidden, 6, seed=1)
        teacher = None if ell is None else snapshot_teacher(init_mlp(dim, hidden, ell, seed=2))
        lcfg = LossConfig(temperature=2.0, beta=0.5)
        tcfg = TrainConfig(epochs=5, batch_size=batch_size, learning_rate=0.05,
                           momentum=momentum)
        trained, trace = train_task(model, X, y, teacher, seed=3, lcfg=lcfg, tcfg=tcfg)
        ref_w, ref_b, ref_trace = train_task_reference(
            model.weights, model.biases, X, y,
            None if teacher is None else (teacher.model.weights, teacher.model.biases),
            temperature=2.0, beta=0.5, epochs=5, batch_size=batch_size,
            learning_rate=0.05, momentum=momentum, seed=3,
        )
        assert trace == ref_trace
        for got, want in zip(trained.weights + trained.biases, ref_w + ref_b):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_inputs_untouched_and_unshared(self):
        X, y = _task(40, 2, np.float64, seed=4)
        model = init_mlp(2, (8,), 6, seed=5)
        teacher = snapshot_teacher(init_mlp(2, (8,), 4, seed=6))
        before = [a.tobytes() for a in model.weights + model.biases]
        before_t = [a.tobytes() for a in teacher.model.weights + teacher.model.biases]
        trained, _ = train_task(model, X, y, teacher, seed=0,
                                tcfg=TrainConfig(epochs=3, batch_size=16))
        assert [a.tobytes() for a in model.weights + model.biases] == before
        assert [a.tobytes() for a in teacher.model.weights + teacher.model.biases] == before_t
        theirs = model.weights + model.biases + teacher.model.weights + teacher.model.biases
        for mine in trained.weights + trained.biases:
            assert not any(np.shares_memory(mine, other) for other in theirs)

    @pytest.mark.parametrize("n,batch_size", [(40, 16), (48, 16), (10, 32)])
    def test_teacher_runs_once_per_task_and_short_batch(self, monkeypatch, n, batch_size):
        X, y = _task(n, 2, np.float64, seed=7)
        teacher = snapshot_teacher(init_mlp(2, (8,), 4, seed=8))
        teacher_rows = []
        forward = learner.forward_batch

        def counting(model, X):
            if model is teacher.model:
                teacher_rows.append(len(X))
            return forward(model, X)

        monkeypatch.setattr(learner, "forward_batch", counting)
        epochs = 6
        train_task(init_mlp(2, (8,), 6, seed=9), X, y, teacher, seed=0,
                   tcfg=TrainConfig(epochs=epochs, batch_size=batch_size))
        full = min(n, batch_size)
        # every row in -(-n // full) forwards of `full` rows, then one forward
        # per epoch of the short last batch
        assert teacher_rows == [full] * -(-n // full) + [n % full] * epochs * (n % full > 0)

    # the benchmark workloads' shapes: hidden (128, 64), a 10-slot head and an
    # 8-slot teacher.  (rows, input width, dtype, batch_size): outlier-grid's
    # task ends each epoch on a 4-row batch, tsne-blobs' 32-D rows on a
    # 44-row one, and 3072-wide float32 rows on a 1-row one.
    WORKLOAD_SHAPES = {
        "outlier-grid": (420, 2, np.float64, 32),
        "tsne-blobs": (300, 32, np.float64, 128),
        "cifar-width-float32": (129, 3072, np.float32, 64),
    }

    @pytest.mark.parametrize("shape", list(WORKLOAD_SHAPES), ids=list(WORKLOAD_SHAPES))
    def test_equal_to_per_batch_loop_at_workload_shapes(self, shape):
        n, dim, dtype, batch_size = self.WORKLOAD_SHAPES[shape]
        X, _ = _task(n, dim, dtype, seed=10)
        y = np.random.default_rng(11).integers(0, 10, size=n)
        model = init_mlp(dim, (128, 64), 10, seed=12)
        teacher = snapshot_teacher(init_mlp(dim, (128, 64), 8, seed=13))
        tcfg = TrainConfig(epochs=3, batch_size=batch_size, learning_rate=0.02, momentum=0.9)
        trained, trace = train_task(model, X, y, teacher, seed=14, tcfg=tcfg)
        ref_w, ref_b, ref_trace = train_task_reference(
            model.weights, model.biases, X, y, (teacher.model.weights, teacher.model.biases),
            temperature=2.0, beta=0.5, epochs=3, batch_size=batch_size, learning_rate=0.02,
            momentum=0.9, seed=14,
        )
        assert trace == ref_trace
        for got, want in zip(trained.weights + trained.biases, ref_w + ref_b):
            assert np.array_equal(got, want)

    # a linear model on float32 rows at a learning rate near float32's
    # largest value: its weights overflow after a few epochs
    @pytest.mark.parametrize("ell", [None, 3], ids=["no-teacher", "teacher"])
    def test_divergence_raised_at_the_reference_epoch(self, ell):
        X, y = _task(60, 2, np.float32, seed=0)
        model = init_mlp(2, (), 6, seed=1)
        teacher = None if ell is None else snapshot_teacher(init_mlp(2, (), ell, seed=2))
        tcfg = TrainConfig(epochs=40, batch_size=16, learning_rate=4e37, momentum=0.9)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as want:
                train_task_reference(
                    model.weights, model.biases, X, y,
                    None if teacher is None else (teacher.model.weights, teacher.model.biases),
                    temperature=2.0, beta=0.5, epochs=40, batch_size=16, learning_rate=4e37,
                    momentum=0.9, seed=3,
                )
            with pytest.raises(DivergenceError) as got:
                train_task(model, X, y, teacher, seed=3, tcfg=tcfg)
        assert want.value.epoch > 0  # not the first epoch: the epoch is checked
        assert got.value.epoch == want.value.epoch


class TestPixelBytes:
    """forward_batch scales each mini-batch train_task gathers, so pixel
    bytes train exactly as the float32 rows as_features makes of them."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_loss_and_grads_equal_to_float32_rows(self, pixel_rows, dtype):
        pixels = pixel_rows(12, seed=21)
        y = np.random.default_rng(22).integers(0, 5, size=12)
        model = init_mlp(3072, (16,), 5, seed=23)
        model = MlpModel([W.astype(dtype) for W in model.weights],
                         [b.astype(dtype) for b in model.biases])
        teacher = snapshot_teacher(init_mlp(3072, (16,), 3, seed=24))
        lcfg = LossConfig(temperature=2.0, beta=0.5)
        got_loss, got = batch_loss_and_grads(model, pixels, y, teacher, lcfg)
        want_loss, want = batch_loss_and_grads(model, as_features(pixels), y, teacher, lcfg)
        assert got_loss == want_loss
        for (gW, gb), (wW, wb) in zip(got, want):
            assert gW.dtype == np.dtype(dtype)
            assert np.array_equal(gW, wW) and np.array_equal(gb, wb)

    # (rows, teacher head or None); batch_size 32, so 98 and 97 rows end
    # each epoch on a two-row and a one-row batch
    @pytest.mark.parametrize("n, ell", [(64, None), (98, 3), (97, 4)],
                             ids=["full-batches-no-teacher", "two-row-last-batch",
                                  "one-row-last-batch"])
    def test_equal_to_float32_rows(self, pixel_rows, n, ell):
        pixels = pixel_rows(n, seed=n)
        y = np.random.default_rng(0).integers(0, 6, size=n)
        model = init_mlp(3072, (32,), 6, seed=1)
        teacher = None if ell is None else snapshot_teacher(init_mlp(3072, (32,), ell, seed=2))
        tcfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.05, momentum=0.9)
        got, got_trace = train_task(model, pixels, y, teacher, seed=3, tcfg=tcfg)
        want, want_trace = train_task(model, as_features(pixels), y, teacher, seed=3, tcfg=tcfg)
        assert got_trace == want_trace
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)

    # without hidden layers the teacher's penultimate features are its
    # scaled input rows
    @pytest.mark.parametrize("hidden", [(8,), ()], ids=["hidden-8", "no-hidden"])
    def test_peak_memory_below_float32_rows(self, pixel_rows, hidden):
        # no float copy of the task: one scaled batch at a time
        pixels = pixel_rows(1000, seed=5)
        y = np.random.default_rng(6).integers(0, 4, size=1000)
        model = init_mlp(3072, hidden, 4, seed=7)
        teacher = snapshot_teacher(init_mlp(3072, hidden, 2, seed=8))
        tcfg = TrainConfig(epochs=1)
        train_task(model, pixels[:10], y[:10], teacher, seed=0, tcfg=tcfg)  # numpy's lazy imports
        tracemalloc.start()
        try:
            train_task(model, pixels, y, teacher, seed=0, tcfg=tcfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        limit = pixels.size * np.dtype(np.float32).itemsize
        assert peak < limit, f"peak {peak} bytes, float32 rows {limit} bytes"


class TestPrecision:
    """Training computes in the features' dtype: float32 for pixel bytes and
    float32 rows, float64 for float64 rows."""

    @pytest.mark.parametrize("dtype,want", [(np.uint8, np.float32), (np.float32, np.float32),
                                            (np.float64, np.float64)],
                             ids=["uint8", "float32", "float64"])
    def test_trained_model_has_the_features_dtype(self, pixel_rows, dtype, want):
        X = pixel_rows(40, seed=12)
        X = X if dtype == np.uint8 else as_features(X, dtype)
        y = np.random.default_rng(13).integers(0, 4, size=40)
        teacher = snapshot_teacher(init_mlp(3072, (8,), 2, seed=14))  # float64 arrays
        trained, trace = train_task(init_mlp(3072, (8,), 4, seed=15), X, y, teacher, seed=0,
                                    tcfg=TrainConfig(epochs=2, batch_size=16))
        assert [a.dtype for a in trained.weights + trained.biases] == [np.dtype(want)] * 4
        assert all(isinstance(v, float) for v in trace)

    def test_pixel_bytes_train_close_to_float64_rows(self):
        """Two tasks, the second distilled from the first, trained once from
        pixel bytes (in float32) and once from the same rows as float64."""
        rng = np.random.default_rng(16)
        y = np.repeat(np.arange(4), 24)
        # four classes around distinct grey levels
        pixels = np.clip(rng.normal(40 + 50 * y[:, None], 30, (96, 3072)), 0, 255).astype(np.uint8)
        tcfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.05, momentum=0.9)
        runs = []
        for X in (pixels, pixels / 255.0):
            first = y < 2
            model, trace_0 = train_task(init_mlp(3072, (32,), 2, seed=17), X[first], y[first],
                                        seed=18, tcfg=tcfg)
            model, trace_1 = train_task(grow_head(model, 2, seed=19), X, y,
                                        snapshot_teacher(model), seed=20, tcfg=tcfg)
            runs.append((model, trace_0 + trace_1))
        (low, low_trace), (high, high_trace) = runs
        assert low.weights[0].dtype == np.float32 and high.weights[0].dtype == np.float64
        np.testing.assert_allclose(low_trace, high_trace, rtol=1e-5)
        for a, b in zip(low.weights + low.biases, high.weights + high.biases):
            assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))


class TestChunkedForward:
    """forward_chunked against one forward of the whole matrix."""

    # BLAS may round a row's products differently at another row count, so
    # chunked outputs agree with the whole forward to within this fraction
    # of their largest magnitude (about 3072 * float64 eps); one chunk is
    # the whole forward itself
    TOL = 1e-12

    @pytest.mark.parametrize("n", [1, 20, 32, 96, 97])
    def test_close_to_whole_forward_and_equal_within_one_chunk(self, pixel_rows, n):
        pixels = pixel_rows(n, seed=n)
        model = init_mlp(3072, (32, 16), 5, seed=9)
        logits = forward_chunked(model, pixels, 32, lambda logits, _: logits)
        feats = forward_chunked(model, pixels, 32, lambda _, feats: feats)
        want_logits, acts = forward_batch(model, as_features(pixels, np.float64))
        for got, want in ((logits, want_logits), (feats, acts[-1])):
            assert got.shape == want.shape
            if n <= 32:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(want))

    def test_every_forward_has_chunk_rows(self, monkeypatch):
        sizes = []
        forward = learner.forward_batch

        def recording(model, X):
            sizes.append(len(X))
            return forward(model, X)

        monkeypatch.setattr(learner, "forward_batch", recording)
        model = init_mlp(4, (8,), 3, seed=10)
        X = np.arange(70 * 4, dtype=np.float64).reshape(70, 4)
        logits = forward_chunked(model, X, 32, lambda logits, _: logits)
        assert sizes == [32, 32, 32]
        # the overlapping last chunk covers rows 38..69
        assert np.array_equal(logits[38:], forward(model, X[38:])[0])

    def test_no_rows_rejected(self):
        model = init_mlp(4, (8,), 3, seed=10)
        for X, rows in ((np.zeros((5, 4)), 0), (np.zeros((0, 4)), 32)):
            with pytest.raises(ConfigurationError):
                forward_chunked(model, X, rows, lambda logits, _: logits)


class TestSharedWeights:
    """Teachers and grown heads share the arrays nothing writes."""

    def test_snapshot_is_a_new_model_over_the_same_arrays(self):
        model = init_mlp(4, (8,), 3, seed=11)
        snap = snapshot_teacher(model)
        assert snap.model is not model
        assert snap.model.num_classes == 3
        assert all(a is b for a, b in zip(snap.model.weights + snap.model.biases,
                                           model.weights + model.biases))

    def test_grow_then_train_leaves_old_model_and_teacher_untouched(self):
        X, y = _task(48, 2, np.float64, seed=12)
        tcfg = TrainConfig(epochs=3, batch_size=16)
        old, _ = train_task(init_mlp(2, (8, 6), 3, seed=13), X, y % 3, seed=0, tcfg=tcfg)
        teacher = snapshot_teacher(old)
        before = [a.tobytes() for a in old.weights + old.biases]
        grown = grow_head(old, 3, seed=14)
        assert grown.weights[0] is old.weights[0] and grown.biases[1] is old.biases[1]
        assert not np.shares_memory(grown.weights[-1], old.weights[-1])
        trained, _ = train_task(grown, X, y, teacher, seed=1, tcfg=tcfg)
        assert not np.array_equal(trained.weights[0], old.weights[0])
        assert [a.tobytes() for a in old.weights + old.biases] == before
        assert [a.tobytes() for a in teacher.model.weights + teacher.model.biases] == before


class TestInference:
    def test_predict_argmax_and_ties(self):
        model = MlpModel(weights=[np.eye(3)], biases=[np.zeros(3)])
        logits, _ = forward_batch(model, np.array([[0.1, 3.0, -1.0], [0.0, 0.0, 0.0]]))
        assert np.argmax(logits, axis=1).tolist() == [1, 0]

    def test_nme_exact_mean(self):
        means = {0: np.array([0.0, 0.0]), 1: np.array([10.0, 0.0])}
        assert nme_classify(np.array([0.0, 0.0]), means) == 0
        assert nme_classify(np.array([2.0, 1.0]), means) == 0

    def test_nme_tie_and_guards(self):
        means = {3: np.array([1.0]), 5: np.array([-1.0])}
        assert nme_classify(np.array([0.0]), means) == 3
        with pytest.raises(ConfigurationError):
            nme_classify(np.array([0.0]), {})


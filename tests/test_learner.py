import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cilbench import learner
from cilbench.errors import ConfigurationError, DataError, ShapeError
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
from oracles import (
    ce_loss,
    cross_distilled_loss,
    distilled_softmax,
    kd_loss,
    nme_classify,
    train_task_reference,
)


def fd_gradient(model, k, idx, X, y, teacher, lcfg, eps=1e-6):
    plus, minus = copy.deepcopy(model), copy.deepcopy(model)
    plus.weights[k][idx] += eps
    minus.weights[k][idx] -= eps
    lp, _ = batch_loss_and_grads(plus, X, y, teacher, lcfg)
    lm, _ = batch_loss_and_grads(minus, X, y, teacher, lcfg)
    return (lp - lm) / (2 * eps)


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

    def test_pixel_bytes_rejected(self):
        # unscaled 0-255 pixels must not reach the weights
        model = init_mlp(3, (4,), 2, seed=0)
        with pytest.raises(DataError, match="as_features"):
            forward_batch(model, np.full((2, 3), 255, dtype=np.uint8))

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


class TestPixelBytes:
    """train_task scales each gathered mini-batch itself, so pixel bytes
    train exactly as the float32 rows as_features makes of them."""

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
        assert snap.num_classes == 3
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


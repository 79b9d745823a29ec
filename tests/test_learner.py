import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cilbench.errors import ConfigurationError, DataError, ShapeError
from cilbench.learner import (
    LossConfig,
    MlpModel,
    TrainConfig,
    batch_loss_and_grads,
    ce_loss,
    cross_distilled_loss,
    distilled_softmax,
    forward,
    forward_batch,
    grow_head,
    init_mlp,
    kd_loss,
    load_model,
    nme_classify,
    predict,
    save_model,
    snapshot_teacher,
    train_task,
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
        logits, _ = forward(model, np.array([1.0, -2.0, 3.0]))
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel(weights=[np.eye(2)], biases=[np.zeros(2)])
        logits, penult = forward(model, np.array([1.0, 2.0]))
        assert np.array_equal(logits, [1.0, 2.0])
        assert np.array_equal(penult, [1.0, 2.0])

    def test_width_mismatch(self):
        model = init_mlp(3, (4,), 2, seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros(5))

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
        x = np.arange(4.0)
        assert np.allclose(forward(grown, x)[0][:3], forward(model, x)[0])

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
            model, X, y, tcfg=TrainConfig(epochs=50, batch_size=16,
                                          learning_rate=0.1, momentum=0.9, seed=1)
        )
        acc = np.mean([predict(model, x) == label for x, label in zip(X, y)])
        assert acc >= 0.95

    def test_first_task_ignores_beta(self):
        rng = np.random.default_rng(16)
        X, y = self._blob_data(rng, n=20)
        model = init_mlp(2, (8,), 2, seed=17)
        tcfg = TrainConfig(epochs=5, batch_size=8, seed=2)
        _, trace_a = train_task(model, X, y, lcfg=LossConfig(beta=0.5), tcfg=tcfg)
        _, trace_b = train_task(model, X, y, lcfg=LossConfig(beta=0.0), tcfg=tcfg)
        assert trace_a == trace_b

    def test_determinism(self):
        rng = np.random.default_rng(18)
        X, y = self._blob_data(rng, n=20)
        model = init_mlp(2, (8,), 2, seed=19)
        tcfg = TrainConfig(epochs=4, batch_size=8, seed=3)
        m1, t1 = train_task(model, X, y, tcfg=tcfg)
        m2, t2 = train_task(model, X, y, tcfg=tcfg)
        assert t1 == t2
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_label_outside_head(self):
        model = init_mlp(2, (4,), 2, seed=20)
        with pytest.raises(ShapeError):
            train_task(model, np.zeros((1, 2)), np.array([5]), tcfg=TrainConfig(epochs=1))


class TestInference:
    def test_predict_argmax_and_ties(self):
        model = MlpModel(weights=[np.eye(3)], biases=[np.zeros(3)])
        assert predict(model, np.array([0.1, 3.0, -1.0])) == 1
        assert predict(model, np.array([0.0, 0.0, 0.0])) == 0

    def test_nme_exact_mean(self):
        means = {0: np.array([0.0, 0.0]), 1: np.array([10.0, 0.0])}
        assert nme_classify(np.array([0.0, 0.0]), means) == 0
        assert nme_classify(np.array([2.0, 1.0]), means) == 0

    def test_nme_tie_and_guards(self):
        means = {3: np.array([1.0]), 5: np.array([-1.0])}
        assert nme_classify(np.array([0.0]), means) == 3
        with pytest.raises(ConfigurationError):
            nme_classify(np.array([0.0]), {})


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = init_mlp(5, (7, 3), 4, seed=21)
        path = str(tmp_path / "model.bin")
        save_model(model, path, {"seed": 21, "note": "test"})
        loaded = load_model(path)
        assert loaded.layer_sizes() == model.layer_sizes()
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, model.biases))

    def test_truncated_or_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_mlp(5, (7, 3), 4, seed=22), str(path))
        raw = path.read_bytes()
        # empty, inside the size count, inside the sizes, inside the class
        # count, inside the first weights, one byte short of the last bias
        for cut in (0, 2, 6, 19, 40, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                load_model(str(path))
        # four layer sizes (5, 7, 3, 4) then the class count: claim 5 classes
        path.write_bytes(raw[:20] + (5).to_bytes(4, "little") + raw[24:])
        with pytest.raises(DataError, match="class count"):
            load_model(str(path))
        path.write_bytes(raw + b"\0")
        with pytest.raises(DataError):
            load_model(str(path))

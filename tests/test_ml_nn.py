"""Unit tests for the numpy NN framework, including gradient checks."""

import numpy as np
import pytest

from repro.ml.nn import (
    MLP,
    Adam,
    Dense,
    ReLU,
    Sequential,
    Sigmoid,
    mse_loss,
)


def numerical_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3, rng=np.random.default_rng(0))

    def test_backward_matches_numerical_gradient(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        layer.forward(x)
        grad_out = 2.0 * (layer.forward(x) - target)
        layer.backward(grad_out)
        num_dw = numerical_gradient(loss, layer.w)
        assert np.allclose(layer.dw, num_dw, atol=1e-4)
        num_db = numerical_gradient(loss, layer.b)
        assert np.allclose(layer.db, num_db, atol=1e-4)

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        target = np.zeros((2, 2))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        grad_out = 2.0 * (layer.forward(x) - target)
        grad_in = layer.backward(grad_out)
        num = numerical_gradient(loss, x)
        assert np.allclose(grad_in, num, atol=1e-4)


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Sigmoid])
    def test_gradient(self, cls):
        rng = np.random.default_rng(2)
        layer = cls()
        x = rng.normal(size=(3, 4)) + 0.1  # avoid ReLU kink at 0
        target = rng.normal(size=(3, 4))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        grad_out = 2.0 * (layer.forward(x) - target)
        grad_in = layer.backward(grad_out)
        num = numerical_gradient(loss, x)
        assert np.allclose(grad_in, num, atol=1e-4)

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert out[1] == pytest.approx(0.5)

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([-1.0, 2.0]))
        assert list(out) == [0.0, 2.0]


class TestOptimizers:
    def test_adam_reduces_quadratic(self):
        p = np.array([5.0, -3.0])
        opt = Adam(lr=0.1)
        for _ in range(200):
            opt.step([p], [2 * p])
        assert np.abs(p).max() < 0.1


class TestLosses:
    def test_mse_zero_at_match(self):
        value, grad = mse_loss(np.ones(4), np.ones(4))
        assert value == 0.0
        assert np.all(grad == 0.0)


class TestMLP:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 3))
        y = 2 * x[:, 0] - x[:, 1] + 0.5
        m = MLP(3, (32,), seed=0)
        m.fit(x, y, epochs=80, lr=5e-3)
        mse = float(((m.predict(x) - y) ** 2).mean())
        assert mse < 0.05

    def test_single_sample_predict(self):
        m = MLP(3, (8,), seed=0)
        m.fit(np.ones((20, 3)), np.ones(20), epochs=5)
        out = m.predict(np.ones(3))
        assert np.isscalar(out) or out.shape == ()

    def test_rejects_empty(self):
        m = MLP(3, (8,))
        with pytest.raises(ValueError):
            m.fit(np.zeros((0, 3)), np.zeros(0))

    def test_rejects_mismatched_shapes(self):
        m = MLP(3, (8,))
        with pytest.raises(ValueError):
            m.fit(np.zeros((5, 3)), np.zeros(4))

    def test_early_stopping(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=200)  # pure noise: val loss cannot improve long
        m = MLP(4, (32,), seed=0)
        log = m.fit(x, y, epochs=500, val_fraction=0.3)
        assert log.stopped_early
        assert len(log.train_losses) < 500

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        y = x[:, 0]
        a = MLP(3, (16,), seed=42)
        a.fit(x, y, epochs=10)
        b = MLP(3, (16,), seed=42)
        b.fit(x, y, epochs=10)
        assert np.allclose(a.predict(x), b.predict(x))

    def test_sample_weights_bias_fit(self):
        x = np.array([[0.0], [1.0]] * 50)
        y = np.array([0.0, 10.0] * 50)
        m = MLP(1, (8,), seed=0)
        w = np.array([1.0, 0.0] * 50)  # only weight the x=0 samples
        m.fit(x, y, epochs=100, lr=1e-2, sample_weight=w)
        # Prediction at x=1 should NOT be pulled to 10 (weight 0).
        assert abs(m.predict(np.array([[0.0]]))[0]) < 1.5

    def test_sigmoid_output_in_unit_interval(self):
        m = MLP(2, (8,), output_activation="sigmoid", seed=0)
        x = np.random.default_rng(0).normal(size=(20, 2)) * 100
        m.fit(x, np.ones(20) * 0.5, epochs=3)
        out = m.predict(x)
        assert np.all(out >= 0) and np.all(out <= 1)


class TestSequential:
    def test_collects_parameters(self):
        rng = np.random.default_rng(0)
        net = Sequential([Dense(3, 4, rng=rng), ReLU(), Dense(4, 2, rng=rng)])
        assert len(net.parameters()) == 4  # two dense layers x (w, b)

"""Gradient-descent baseline tests: gradient correctness and descent."""

import numpy as np
import pytest

from karnet import (
    GdConfig,
    NetworkSpec,
    check_gradient,
    forward,
    train_gd,
)
from karnet.gradient_descent import initial_network, sse_and_gradients


def small_problem(seed, m=8, d=3, hidden=(4,), q=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(m, d))
    y = rng.uniform(0.1, 0.9, size=(m, q))
    spec = NetworkSpec(input_dim=d, hidden=hidden, output_dim=q, seed=seed)
    return x, y, spec


class TestCheckGradient:
    def test_random_small_networks(self):
        for seed in range(5):
            x, y, spec = small_problem(seed)
            check = check_gradient(initial_network(GdConfig(spec=spec)), x, y)
            assert check.nonzero > 0
            assert check.max_relative_error <= 1e-4

    def test_single_sample(self):
        x = np.full((1, 3), 0.5)
        y = np.array([[0.3, 0.7]])
        spec = NetworkSpec(input_dim=3, hidden=(4,), output_dim=2, seed=0)
        check = check_gradient(initial_network(GdConfig(spec=spec)), x, y)
        assert check.nonzero > 0
        assert check.max_relative_error <= 1e-4

    def test_counts_a_check_that_compared_only_zeros(self):
        """Every output pre-activation deep in the clamp: backprop and the
        finite differences are all exactly zero, and the counts say so."""
        x, y, spec = small_problem(0)
        net = initial_network(GdConfig(spec=spec))
        net.weights[-1][0, :] = 1e3
        check = check_gradient(net, x, y)
        assert check == (0.0, 0, sum(w.size for w in net.weights))

    def test_stationary_at_exact_fit(self):
        """At a zero-residual network the gradient vanishes."""
        from karnet import KarConfig, train_n_layer

        rng = np.random.default_rng(1)
        x = rng.uniform(0.05, 0.95, size=(4, 3))
        y = rng.uniform(0.1, 0.9, size=(4, 2))
        spec = NetworkSpec(input_dim=3, hidden=(), output_dim=2)
        net, _ = train_n_layer(x, y, KarConfig(spec=spec))
        _, grads = sse_and_gradients(net, x, y)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert norm <= 1e-8

    def test_refuses_large_networks(self):
        from karnet import ConfigError

        x, y, _ = small_problem(0)
        spec = NetworkSpec(input_dim=3, hidden=(60,), output_dim=2)
        with pytest.raises(ConfigError):
            check_gradient(initial_network(GdConfig(spec=spec)), x, y)


class TestTrainGd:
    @pytest.mark.parametrize("d, q", [(2, 2), (3, 1)])
    def test_spec_that_does_not_fit_the_data(self, d, q):
        from karnet import DimensionError

        x, y, _ = small_problem(0)
        with pytest.raises(DimensionError, match="spec"):
            train_gd(x, y, GdConfig(spec=NetworkSpec(d, (4,), q)))

    def test_zero_learning_rate_keeps_weights(self):
        x, y, spec = small_problem(2)
        cfg = GdConfig(spec=spec, learning_rate=0.0, max_iters=5)
        init = initial_network(cfg)
        net, _ = train_gd(x, y, cfg)
        for wa, wb in zip(init.weights, net.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_exact_fit_is_a_fixed_point(self):
        """Targets equal to the initial forward output leave nothing to do:
        the gradient is zero, so no step moves a weight."""
        x, _, spec = small_problem(3)
        cfg = GdConfig(spec=spec, learning_rate=0.01, max_iters=50)
        init = initial_network(cfg)
        net, rep = train_gd(x, forward(init, x), cfg)
        for wa, wb in zip(init.weights, net.weights):
            np.testing.assert_array_equal(wa, wb)
        assert rep.iterations == 50
        assert rep.train_sse == 0.0

    def test_sse_decreases_on_separable_data(self):
        """First ten small-rate iterations strictly improve a 10-point set."""
        rng = np.random.default_rng(4)
        x = np.vstack([
            rng.uniform(0.1, 0.35, size=(5, 2)),
            rng.uniform(0.65, 0.9, size=(5, 2)),
        ])
        y = np.vstack([np.full((5, 1), 0.2), np.full((5, 1), 0.8)])
        spec = NetworkSpec(input_dim=2, hidden=(3,), output_dim=1, seed=0)
        losses = [sse_and_gradients(
            initial_network(GdConfig(spec=spec)), x, y)[0]]
        for iters in range(1, 11):
            cfg = GdConfig(spec=spec, learning_rate=1e-4, max_iters=iters)
            _, rep = train_gd(x, y, cfg)
            losses.append(rep.train_sse)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_monotone_descent_random_instances(self):
        for seed in range(10):
            x, y, spec = small_problem(seed, m=10)
            prev = None
            for iters in (1, 3, 6):
                cfg = GdConfig(spec=spec, learning_rate=5e-5, max_iters=iters)
                _, rep = train_gd(x, y, cfg)
                if prev is not None:
                    assert rep.train_sse <= prev + 1e-12
                prev = rep.train_sse

    def test_loss_stays_finite_at_absurd_rate(self):
        """The clamp bounds the outputs, so even a wild learning rate cannot
        drive the loss non-finite; training saturates instead of exploding."""
        x, y, spec = small_problem(6)
        cfg = GdConfig(spec=spec, learning_rate=1e12, max_iters=200)
        _, rep = train_gd(x, y, cfg)
        assert np.isfinite(rep.train_sse)

    @pytest.mark.parametrize("clip", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_gradient_clip_must_be_finite_and_positive(self, clip):
        from karnet import ConfigError

        _, _, spec = small_problem(7)
        with pytest.raises(ConfigError, match="gradient_clip"):
            GdConfig(spec=spec, gradient_clip=clip)

    def test_gradient_clip_keeps_run_finite(self):
        x, y, spec = small_problem(7)
        cfg = GdConfig(spec=spec, learning_rate=1e-3, max_iters=100,
                       gradient_clip=1.0)
        _, rep = train_gd(x, y, cfg)
        assert np.isfinite(rep.train_sse)

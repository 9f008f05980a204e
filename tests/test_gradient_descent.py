"""Gradient-descent baseline tests: gradient correctness and descent."""

import dataclasses

import numpy as np
import pytest

import karnet.gradient_descent
from karnet import (
    DimensionError,
    Network,
    NetworkSpec,
    apply_sigmoid,
    check_gradient,
    forward,
    train_gd,
)
from karnet.activations import HI, LO
from karnet.gradient_descent import _sse_and_gradients, initial_network
from karnet.training import _finish_report


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
            check = check_gradient(initial_network(spec), x, y)
            assert check.nonzero > 0
            assert check.max_relative_error <= 1e-4

    def test_single_sample(self):
        x = np.full((1, 3), 0.5)
        y = np.array([[0.3, 0.7]])
        spec = NetworkSpec(input_dim=3, hidden=(4,), output_dim=2, seed=0)
        check = check_gradient(initial_network(spec), x, y)
        assert check.nonzero > 0
        assert check.max_relative_error <= 1e-4

    def test_counts_a_check_that_compared_only_zeros(self):
        """Every output pre-activation deep in the clamp: backprop and the
        finite differences are all exactly zero, and the counts say so."""
        x, y, spec = small_problem(0)
        net = initial_network(spec)
        net.weights[-1][0, :] = 1e3
        check = check_gradient(net, x, y)
        assert check == (0.0, 0, sum(w.size for w in net.weights))

    def test_stationary_at_exact_fit(self):
        """At a zero-residual network the gradient vanishes."""
        from karnet import train_n_layer

        rng = np.random.default_rng(1)
        x = rng.uniform(0.05, 0.95, size=(4, 3))
        y = rng.uniform(0.1, 0.9, size=(4, 2))
        spec = NetworkSpec(input_dim=3, hidden=(), output_dim=2)
        net, _ = train_n_layer(x, y, spec)
        _, grads = _sse_and_gradients(net, x, y, [], [])
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert norm <= 1e-8

    def test_refuses_large_networks(self):
        from karnet import ConfigError

        x, y, _ = small_problem(0)
        spec = NetworkSpec(input_dim=3, hidden=(60,), output_dim=2)
        with pytest.raises(ConfigError):
            check_gradient(initial_network(spec), x, y)


class TestTrainGd:
    @pytest.mark.parametrize("d, q", [(2, 2), (3, 1)])
    def test_spec_that_does_not_fit_the_data(self, d, q):
        from karnet import DimensionError

        x, y, _ = small_problem(0)
        with pytest.raises(DimensionError, match="spec"):
            train_gd(x, y, NetworkSpec(d, (4,), q))

    def test_zero_learning_rate_keeps_weights(self):
        x, y, spec = small_problem(2)
        init = initial_network(spec)
        net, _ = train_gd(x, y, spec, learning_rate=0.0, max_iters=5)
        for wa, wb in zip(init.weights, net.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_exact_fit_is_a_fixed_point(self):
        """Targets equal to the initial forward output leave nothing to do:
        the gradient is zero, so no step moves a weight."""
        x, _, spec = small_problem(3)
        init = initial_network(spec)
        net, rep = train_gd(x, forward(init, x), spec, learning_rate=0.01, max_iters=50)
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
        losses = [_sse_and_gradients(initial_network(spec), x, y, [], [])[0]]
        for iters in range(1, 11):
            _, rep = train_gd(x, y, spec, learning_rate=1e-4, max_iters=iters)
            losses.append(rep.train_sse)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_monotone_descent_random_instances(self):
        for seed in range(10):
            x, y, spec = small_problem(seed, m=10)
            prev = None
            for iters in (1, 3, 6):
                _, rep = train_gd(x, y, spec, learning_rate=5e-5, max_iters=iters)
                if prev is not None:
                    assert rep.train_sse <= prev + 1e-12
                prev = rep.train_sse

    def test_loss_stays_finite_at_absurd_rate(self):
        """The clamp bounds the outputs, so even a wild learning rate cannot
        drive the loss non-finite; training saturates instead of exploding."""
        x, y, spec = small_problem(6)
        _, rep = train_gd(x, y, spec, learning_rate=1e12, max_iters=200)
        assert np.isfinite(rep.train_sse)

    @pytest.mark.parametrize("clip", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_gradient_clip_must_be_finite_and_positive(self, clip):
        from karnet import ConfigError

        x, y, spec = small_problem(7)
        with pytest.raises(ConfigError, match="gradient_clip"):
            train_gd(x, y, spec, gradient_clip=clip)

    def test_max_iters_below_one_is_config_error(self):
        from karnet import ConfigError

        x, y, spec = small_problem(7)
        with pytest.raises(ConfigError, match="max_iters must be >= 1"):
            train_gd(x, y, spec, max_iters=0)

    def test_gradient_clip_keeps_run_finite(self):
        x, y, spec = small_problem(7)
        _, rep = train_gd(x, y, spec, learning_rate=1e-3, max_iters=100, gradient_clip=1.0)
        assert np.isfinite(rep.train_sse)


def reference_descent(x, y, init, learning_rate, max_iters, gradient_clip):
    """Plain full-batch descent from ``init``: a fresh forward cache and new
    arrays on every step, each operation in the order ``train_gd`` applies
    it."""
    net = Network(spec=init.spec, weights=[w.copy() for w in init.weights])
    for _ in range(max_iters):
        cache, a = [], np.hstack([np.ones((x.shape[0], 1)), x])
        for w in net.weights:
            z = np.clip(a @ w, LO, HI)
            cache += (a, z)
            g = np.log(z / (1.0 - z))
            a = np.hstack([np.ones((x.shape[0], 1)), g])
        resid = g - y
        assert np.isfinite(float(np.sum(resid * resid)))
        delta = 2.0 * resid
        grads = [None] * len(net.weights)
        for k in range(len(net.weights) - 1, -1, -1):
            a, c = cache[2 * k], cache[2 * k + 1]
            delta = delta * (1.0 / (c * (1.0 - c))) * ((c > LO) & (c < HI))
            grads[k] = a.T @ delta
            if k > 0:
                delta = (delta @ net.weights[k].T)[:, 1:]
        if gradient_clip is not None:
            gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if gnorm > gradient_clip:
                grads = [g * (gradient_clip / gnorm) for g in grads]
        for w, g in zip(net.weights, grads):
            w -= learning_rate * g
    return net


def clamped_start(columns):
    """The descent start with the output pre-activations of ``columns`` deep
    in the clamp on every row."""
    def start(spec):
        net = initial_network(spec)
        net.weights[-1][0, columns] = 1e3
        return net
    return start


class TestBufferedDescent:
    """``train_gd`` reuses its forward cache and backprop buffers across
    steps; weights and reports stay those of a descent that reuses none."""

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
    @pytest.mark.parametrize("clip", [None, 1.0])
    @pytest.mark.parametrize("clamped", [None, [0], slice(None)])
    def test_bit_identical_to_a_plain_descent(self, monkeypatch, hidden, clip, clamped):
        x, y, spec = small_problem(11, m=12, hidden=hidden, q=3)
        start = initial_network if clamped is None else clamped_start(clamped)
        monkeypatch.setattr(karnet.gradient_descent, "initial_network", start)
        net, rep = train_gd(x, y, spec, learning_rate=0.05, max_iters=40, gradient_clip=clip)
        want = reference_descent(x, y, start(spec), 0.05, 40, clip)
        for w, w_want in zip(net.weights, want.weights, strict=True):
            assert np.array_equal(w, w_want)
        cache = []
        forward(want, x, cache)
        rep_want = _finish_report(
            want, cache[-2], apply_sigmoid(y), y, 0.0,
            trainer="gd", iterations=40, init_style=rep.init_style,
        )
        got, expected = dataclasses.asdict(rep), dataclasses.asdict(rep_want)
        del got["wall_time"], expected["wall_time"]
        assert got == expected
        if clamped is not None:
            assert np.all(cache[-1][:, clamped] == HI)

    def test_a_step_leaves_the_last_steps_results_alone(self):
        x, y, spec = small_problem(12, m=9, hidden=(5, 3))
        net = initial_network(spec)
        cache, scratch = [], []
        loss, grads = _sse_and_gradients(net, x, y, cache, scratch)
        kept = [g.copy() for g in grads]
        for w, g in zip(net.weights, grads):
            w -= 0.5 * g
        loss2, grads2 = _sse_and_gradients(net, x, y, cache, scratch)
        assert loss2 != loss
        for g, k, g2 in zip(grads, kept, grads2, strict=True):
            np.testing.assert_array_equal(g, k)
            assert g2 is not g and not np.array_equal(g2, g)
        fresh_loss, fresh_grads = _sse_and_gradients(net, x, y, [], [])
        assert fresh_loss == loss2
        for g2, f in zip(grads2, fresh_grads):
            np.testing.assert_array_equal(g2, f)

    @pytest.mark.parametrize("shape", [(8, 1), (1, 2), (8, 3), (7, 2)])
    def test_targets_that_do_not_fit_are_rejected(self, shape):
        """A target of another width or row count is never broadcast
        against the output."""
        x, _, spec = small_problem(13)
        with pytest.raises(DimensionError):
            train_gd(x, np.full(shape, 0.5), spec, max_iters=1)

"""Gradient-descent baseline tests: gradient correctness and descent."""

import dataclasses
import warnings

import numpy as np
import pytest

import karnet.gradient_descent
from karnet import (
    DimensionError,
    Network,
    NetworkSpec,
    apply_logit,
    apply_sigmoid,
    check_gradient,
    forward,
    train_gd,
)
from karnet.activations import HI, LO, clamp
from karnet.errors import NumericalError
from karnet.gradient_descent import _buffers, _sse_and_gradients, initial_network, train_gd_stack
from karnet.network import add_bias_column
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
        _, grads = _sse_and_gradients(net.weights, y, _buffers(spec, x))
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
        losses = [_sse_and_gradients(initial_network(spec).weights, y, _buffers(spec, x))[0]]
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
    """Plain full-batch descent from ``init``: new arrays on every step,
    each operation in the order ``train_gd`` applies it."""
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


def last_input(net, x):
    """``[1, G_{n-1}]``, the output layer's input, by the bias-column chain."""
    g = x
    for w in net.weights[:-1]:
        g = apply_logit(add_bias_column(g) @ w)
    return add_bias_column(g)


def count_clamps(monkeypatch):
    """The shapes ``karnet.gradient_descent.clamp`` is called on, from now on."""
    calls = []

    def counted(m, out=None):
        calls.append(m.shape)
        return clamp(m, out=out)

    monkeypatch.setattr(karnet.gradient_descent, "clamp", counted)
    return calls


class TestBufferedDescent:
    """``train_gd`` reuses its forward and backprop buffers across steps;
    weights and reports stay those of a descent that reuses none."""

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
        a = last_input(want, x)
        rep_want = _finish_report(want, a, apply_sigmoid(y), y, 0.0, trainer="gd", iterations=40)
        got, expected = dataclasses.asdict(rep), dataclasses.asdict(rep_want)
        del got["wall_time"], expected["wall_time"]
        assert got == expected
        if clamped is not None:
            assert np.all(np.clip(a @ want.weights[-1], LO, HI)[:, clamped] == HI)

    def test_a_step_leaves_the_last_steps_results_alone(self):
        """On a stack of two fits, as on one fit's own matrices."""
        problems = [small_problem(seed, m=9, hidden=(5, 3)) for seed in (12, 13)]
        xm, ym = (np.stack(column) for column in list(zip(*problems))[:2])
        spec = problems[0][2]
        ws = [np.stack(layer) for layer in zip(*(initial_network(p[2]).weights for p in problems))]
        bufs = _buffers(spec, xm)
        loss, grads = _sse_and_gradients(ws, ym, bufs)
        kept = [g.copy() for g in grads]
        for w, g in zip(ws, grads):
            w -= 0.5 * g
        loss2, grads2 = _sse_and_gradients(ws, ym, bufs)
        assert loss.shape == (2,) and np.all(loss2 != loss)
        for g, k, g2 in zip(grads, kept, grads2, strict=True):
            np.testing.assert_array_equal(g, k)
            assert g2 is not g and not np.array_equal(g2, g)
        fresh_loss, fresh_grads = _sse_and_gradients(ws, ym, _buffers(spec, xm))
        np.testing.assert_array_equal(fresh_loss, loss2)
        for g2, f in zip(grads2, fresh_grads):
            np.testing.assert_array_equal(g2, f)

    def test_the_clamp_runs_only_where_a_pre_activation_reaches_the_band(self, monkeypatch):
        """Strictly inside the band the clamp changes nothing, and the step
        skips it; a start deep in the clamp runs it."""
        calls = count_clamps(monkeypatch)
        x, y, spec = small_problem(11, m=12, hidden=(5, 3), q=3)
        options = dict(learning_rate=0.05, max_iters=40, gradient_clip=1.0)
        train_gd(x, y, spec, **options)
        assert calls == []
        monkeypatch.setattr(karnet.gradient_descent, "initial_network", clamped_start([0]))
        train_gd(x, y, spec, **options)
        assert calls == [(1, 12, 3)] * 41  # the output layer's, on each step and the final pass

    @pytest.mark.parametrize("shape", [(8, 1), (1, 2), (8, 3), (7, 2)])
    def test_targets_that_do_not_fit_are_rejected(self, shape):
        """A target of another width or row count is never broadcast
        against the output."""
        x, _, spec = small_problem(13)
        with pytest.raises(DimensionError):
            train_gd(x, np.full(shape, 0.5), spec, max_iters=1)


def initial_gradient_norm(x, y, spec):
    _, grads = _sse_and_gradients(initial_network(spec).weights, y, _buffers(spec, x))
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads))


def stack_args(problems):
    """``train_gd_stack``'s three lists from (x, y, spec) triples."""
    return [list(column) for column in zip(*problems)]


class TestStackedDescent:
    """``train_gd_stack`` runs same-shape fits in lockstep on stacked
    arrays; each fit's weights and report are ``train_gd``'s on it alone,
    bit for bit."""

    @staticmethod
    def assert_each_fit_as_alone(problems, fits, **options):
        for (x, y, spec), (net, rep) in zip(problems, fits, strict=True):
            net_alone, rep_alone = train_gd(x, y, spec, **options)
            for w, w_alone in zip(net.weights, net_alone.weights, strict=True):
                assert w.tobytes() == w_alone.tobytes()
            got, want = dataclasses.asdict(rep), dataclasses.asdict(rep_alone)
            del got["wall_time"], want["wall_time"]
            assert got == want

    # (400, 200): layer 2's gradient has 80,200 entries, so its squared sum
    # runs past numpy's 8,192-element reduction buffer
    @pytest.mark.parametrize("hidden, steps", [((), 30), ((20,), 30), ((5, 3), 30),
                                               ((400, 200), 4)])
    @pytest.mark.parametrize("clipped", [True, False])
    def test_a_stack_is_its_fits_one_at_a_time(self, hidden, steps, clipped):
        problems = [small_problem(seed, m=12, hidden=hidden, q=3) for seed in (21, 22, 23)]
        clip = None
        if clipped:  # the middle start norm: the fit above it is clipped, the one below not
            norms = sorted(initial_gradient_norm(*p) for p in problems)
            clip = norms[1]
            assert norms[0] < clip < norms[2]
        options = dict(learning_rate=0.05, max_iters=steps, gradient_clip=clip)
        fits = train_gd_stack(*stack_args(problems), **options)
        self.assert_each_fit_as_alone(problems, fits, **options)

    @pytest.mark.parametrize("hidden", [(), (20,), (5, 3)])
    def test_a_clamped_fit_leaves_the_free_fits_of_its_stack_alone(self, monkeypatch, hidden):
        """The clamp runs on the whole stack when one fit's pre-activations
        reach the band; each fit still gets its bits alone, where the free
        fits skip the clamp."""
        problems = [small_problem(seed, m=12, hidden=hidden, q=3) for seed in (21, 22, 23)]
        clamped = clamped_start([0])
        monkeypatch.setattr(karnet.gradient_descent, "initial_network",
                            lambda spec: clamped(spec) if spec.seed == 22 else initial_network(spec))
        calls = count_clamps(monkeypatch)
        options = dict(learning_rate=0.05, max_iters=30, gradient_clip=1.0)
        fits = train_gd_stack(*stack_args(problems), **options)
        assert calls and all(shape[0] == 3 for shape in calls)
        calls.clear()
        self.assert_each_fit_as_alone(problems, fits, **options)
        assert calls and all(shape[0] == 1 for shape in calls)
        assert len(calls) == 31  # fit 22's output layer alone

    @pytest.mark.parametrize("learning_rate, exact", [(0.05, True), (0.0, False)])
    def test_a_fit_with_a_zero_step_warns_nothing(self, learning_rate, exact):
        """A fit whose targets are its start outputs has a zero gradient,
        which the clip leaves alone without dividing by its zero norm; at
        learning rate 0 no fit moves.  Either way no RuntimeWarning."""
        problems = [small_problem(seed, m=10) for seed in (31, 32)]
        x, y, spec = problems[0]
        if exact:
            problems[0] = (x, forward(initial_network(spec), x), spec)
        options = dict(learning_rate=learning_rate, max_iters=20, gradient_clip=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = train_gd_stack(*stack_args(problems), **options)
        for w, w_start in zip(fits[0][0].weights, initial_network(spec).weights):
            np.testing.assert_array_equal(w, w_start)
        self.assert_each_fit_as_alone(problems, fits, **options)

    def test_a_fit_whose_loss_goes_non_finite_ends_its_stack(self):
        """At a learning rate of 1e308 one step overflows a fit's weights,
        and the next loss is NaN; a fit at its exact fit does not move.  The
        refusal comes with no RuntimeWarning."""
        problems = [small_problem(seed, m=12, q=3) for seed in (21, 22)]
        x, _, spec = problems[0]
        problems[0] = (x, forward(initial_network(spec), x), spec)
        options = dict(learning_rate=1e308, max_iters=5, gradient_clip=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_gd(*problems[0], **options)
            with pytest.raises(NumericalError, match=r"^non-finite loss at iteration 1$"):
                train_gd(*problems[1], **options)
            with pytest.raises(NumericalError, match=r"^non-finite loss at iteration 1$"):
                train_gd_stack(*stack_args(problems), **options)

    @pytest.mark.parametrize("m, hidden", [(10, (4,)), (135, (20,)), (12, (400, 200))])
    @pytest.mark.parametrize("fits", [1, 3, 2**20])
    def test_stack_size_counts_the_bytes_buffers_take(self, monkeypatch, m, hidden, fits):
        """As many fits to a stack as keep their ``_buffers`` within
        ``STACK_BYTES``, and at least one."""
        spec = NetworkSpec(input_dim=3, hidden=hidden, output_dim=2)
        per_fit = sum(b.nbytes for layer in _buffers(spec, np.zeros((m, 3))) for b in layer)
        monkeypatch.setattr(karnet.gradient_descent, "STACK_BYTES", fits * per_fit)
        assert karnet.gradient_descent._stack_size(spec, m) == fits
        monkeypatch.setattr(karnet.gradient_descent, "STACK_BYTES", fits * per_fit - 1)
        assert karnet.gradient_descent._stack_size(spec, m) == max(fits - 1, 1)

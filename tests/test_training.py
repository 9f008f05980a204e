"""Analytic trainer tests: one, two and n layers through the one analytic
trainer, and the representation-mode (random hidden layer) variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karnet import (
    Network,
    NetworkSpec,
    apply_logit,
    apply_sigmoid,
    error_rate,
    forward,
    make_xor,
    train_gd,
    train_n_layer,
    train_random_hidden,
)
from karnet.data import apply_scaling, iris_train_test_split, load_iris, scale_minmax
from karnet.errors import RankDeficiencyError
from karnet.linalg import lstsq, pinv, require_rank
from karnet.network import add_bias_column
from karnet.training import _orthonormal_layer
from reference import reference_n_layer, reference_targets, with_ones


def spec_for(x, y, hidden, seed=0):
    return NetworkSpec(
        input_dim=x.shape[1], hidden=hidden, output_dim=y.shape[1], seed=seed
    )


@pytest.fixture
def solves(monkeypatch):
    """The row and column count of ``a`` in each least-squares solve a fit
    makes, in order: the trainers' calls to ``karnet.training.lstsq``."""
    import karnet.training

    shapes = []

    def counting_lstsq(a, b, rcond=None):
        shapes.append(np.shape(a))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(karnet.training, "lstsq", counting_lstsq)
    return shapes


def phi_space_sse(net, x, y):
    """SSE of the output layer's linear system against phi(Y): its input
    ``[1, G_{n-1}]``, built by the bias-column chain, times its weights."""
    g = x
    for w in net.weights[:-1]:
        g = apply_logit(add_bias_column(g) @ w)
    r = add_bias_column(g) @ net.weights[-1] - apply_sigmoid(y)
    return float(np.sum(r * r))


class TestSingleLayer:
    def test_square_system_exact_fit(self, solves):
        """m = d + 1 distinct rows make the augmented input invertible, so
        any in-domain target is reproduced exactly."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0.05, 0.95, size=(4, 3))
        y = rng.uniform(0.1, 0.9, size=(4, 2))
        net, _ = train_n_layer(x, y, spec_for(x, y, ()))
        np.testing.assert_allclose(forward(net, x), y, atol=1e-6)
        assert solves == [(4, 4)]

    def test_constant_target_fits_via_bias(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.05, 0.95, size=(10, 3))
        y = np.full((10, 1), 0.37)
        net, _ = train_n_layer(x, y, spec_for(x, y, ()))
        np.testing.assert_allclose(forward(net, x), y, atol=1e-6)

    def test_overdetermined_optimality(self):
        """The trained weights beat 100 random perturbations on transformed-
        space SSE."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0.05, 0.95, size=(30, 3))
        y = rng.uniform(0.1, 0.9, size=(30, 1))
        spec = spec_for(x, y, ())
        net, rep = train_n_layer(x, y, spec)
        base = phi_space_sse(net, x, y)
        w = net.weights[0]
        for _ in range(100):
            net.weights[0] = w + rng.normal(scale=0.05, size=w.shape)
            assert base <= phi_space_sse(net, x, y) + 1e-10
        net.weights[0] = w


class TestTwoLayer:
    def test_perturbed_xor(self, solves):
        ds = make_xor(perturbed=True)
        spec = spec_for(ds.x, ds.y, (2,), seed=0)
        net, _ = train_n_layer(ds.x, ds.y, spec)
        np.testing.assert_allclose(
            forward(net, ds.x), [[0.0], [0.0], [1.0], [1.0]], atol=1e-3
        )
        assert solves == [(4, 3), (4, 3)]

    def test_matches_n_layer_bitwise(self):
        """The two-layer decoupled pass written out: peel the random output
        layer off phi(Y) through its node block's transpose, solve the hidden
        layer, re-solve the output layer; each data-side solve is the
        library's one least-squares routine."""
        ds = make_xor(perturbed=True)
        spec = spec_for(ds.x, ds.y, (2,), seed=3)
        w2 = _orthonormal_layer(np.random.default_rng(3), (3, 1))
        b2 = apply_sigmoid(ds.y)
        b1 = apply_sigmoid((b2 - w2[0, :]) @ w2[1:, :].T)
        x1 = add_bias_column(ds.x)
        w1 = lstsq(x1, b1).theta
        w2 = lstsq(add_bias_column(apply_logit(x1 @ w1)), b2).theta
        net, _ = train_n_layer(ds.x, ds.y, spec)
        np.testing.assert_array_equal(net.weights[0], w1)
        np.testing.assert_array_equal(net.weights[1], w2)


class TestNLayer:
    def test_output_solve_forms_no_pseudoinverse(self, monkeypatch):
        """Iris at h = 20 (q = 3): the peel multiplies by the 20x3 node
        block's transpose and forms no pseudoinverse; the 150x5 input solve
        has 20 >= 5 right-hand sides and forms one; the 150x21 output solve
        has 3 < 21 and forms none.  The pseudoinverse's SVD is counted too,
        since a module may hold its own reference to ``pinv``."""
        import karnet.linalg
        from karnet import load_iris, scale_minmax

        shapes, svd_shapes = [], []
        original, original_svd = karnet.linalg.pinv, np.linalg.svd

        def counting_pinv(a, rcond=None):
            shapes.append(np.shape(a))
            return original(a, rcond=rcond)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return original_svd(a, *args, **kwargs)

        monkeypatch.setattr(karnet.linalg, "pinv", counting_pinv)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        ds = scale_minmax(load_iris(), 0.01)
        net, _ = train_n_layer(ds.x, ds.y, spec_for(ds.x, ds.y, (20,), seed=0))
        assert shapes == [(150, 5)]
        assert svd_shapes == [(150, 5)]
        assert net.weights[1].shape == (21, 3)

    def test_five_layer_xor(self, solves):
        ds = make_xor(perturbed=True)
        spec = spec_for(ds.x, ds.y, (3, 3, 3, 3), seed=0)
        net, _ = train_n_layer(ds.x, ds.y, spec)
        np.testing.assert_allclose(
            forward(net, ds.x), [[0.0], [0.0], [1.0], [1.0]], atol=1e-3
        )
        assert solves == [(4, 3)] + [(4, 4)] * 4

    def test_solve_budget_scales_with_depth(self, solves):
        """Exactly one data-side solve per layer, front to back: layer k's
        on ``[1, G_{k-1}]``, whose width is the layer below's plus one."""
        rng = np.random.default_rng(4)
        x = rng.uniform(0.05, 0.95, size=(12, 3))
        y = rng.uniform(0.1, 0.9, size=(12, 2))
        for hidden in [(4,), (4, 3), (4, 3, 2)]:
            solves.clear()
            train_n_layer(x, y, spec_for(x, y, hidden, seed=1))
            assert solves == [(12, width + 1) for width in (3, *hidden)]

    def test_deterministic_report(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.95, size=(10, 2))
        y = rng.uniform(0.1, 0.9, size=(10, 1))
        spec = spec_for(x, y, (3, 3), seed=7)
        _, rep_a = train_n_layer(x, y, spec)
        _, rep_b = train_n_layer(x, y, spec)
        da, db = rep_a.to_dict(), rep_b.to_dict()
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_last_layer_optimality(self):
        """Perturbing the solved output layer never lowers transformed SSE."""
        rng = np.random.default_rng(6)
        x = rng.uniform(0.05, 0.95, size=(15, 3))
        y = rng.uniform(0.1, 0.9, size=(15, 2))
        spec = spec_for(x, y, (5,), seed=2)
        net, _ = train_n_layer(x, y, spec)
        base = phi_space_sse(net, x, y)
        w_out = net.weights[-1]
        for _ in range(100):
            net.weights[-1] = w_out + rng.normal(scale=0.05, size=w_out.shape)
            assert base <= phi_space_sse(net, x, y) + 1e-10
        net.weights[-1] = w_out

    def test_no_hidden_layer_is_one_solve_and_no_chain(self, solves):
        ds = make_xor()
        net, _ = train_n_layer(ds.x, ds.y, spec_for(ds.x, ds.y, ()))
        assert solves == [(4, 3)]
        assert len(net.weights) == 1


class TestRandomHidden:
    def test_hidden_size_m_fits_exactly(self, solves):
        """With as many hidden nodes as samples and a full-rank hidden
        activation matrix, the output solve reproduces the targets."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            m = int(rng.integers(5, 30))
            d = int(rng.integers(2, 8))
            q = int(rng.integers(1, 4))
            x = rng.uniform(0.05, 0.95, size=(m, d))
            y = rng.uniform(0.1, 0.9, size=(m, q))
            spec = spec_for(x, y, (m,), seed=trial)
            solves.clear()
            net, rep = train_random_hidden(x, y, spec)
            assert solves == [(m, m)]  # the output layer alone, its bias pinned at 0
            if _hidden_full_rank(net, x, m):
                assert rep.train_sse_transformed <= 1e-6

    def test_two_layer_output_bias_pinned(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.05, 0.95, size=(12, 3))
        y = rng.uniform(0.1, 0.9, size=(12, 2))
        net, _ = train_random_hidden(x, y, spec_for(x, y, (12,)))
        np.testing.assert_array_equal(net.weights[1][0, :], 0.0)

    def test_deeper_network_solves_output_bias(self, solves):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.05, 0.95, size=(10, 3))
        y = rng.uniform(0.1, 0.9, size=(10, 1))
        net, _ = train_random_hidden(x, y, spec_for(x, y, (8, 8)))
        assert solves == [(10, 9)]
        assert np.any(net.weights[2][0, :] != 0.0)

    def test_five_layer_iris_exact_fit_below_ninety(self):
        """Depth trades for width: with four random hidden layers the 90
        iris samples fit exactly at a column size below 90 (the solved
        output layer's bias row supplies the final degree of freedom)."""
        from karnet import scale_minmax
        from karnet.data import iris_train_test_split, load_iris

        train, _ = iris_train_test_split(load_iris())
        train = scale_minmax(train, 0.01)
        h = 89
        sses = []
        for seed in range(3):
            spec = NetworkSpec(4, (h, h, h, h), 3, seed=seed)
            _, rep = train_random_hidden(train.x, train.y, spec)
            sses.append(rep.train_sse_transformed)
        assert max(sses) <= 1e-6


class TestReportFromOwnActivations:
    """Trainers score their fit from the activations they built; every report
    field must equal what a fresh forward pass gives."""

    @pytest.mark.parametrize(
        "trainer, hidden",
        [
            # The single- and two-layer fits of the paper, under their own names.
            pytest.param(train_n_layer, (), id="train_single_layer-hidden0"),
            pytest.param(train_n_layer, (20,), id="train_two_layer-hidden1"),
            (train_n_layer, (40, 20, 10)),  # exp4 at h = 10
            (train_random_hidden, (20,)),  # output bias row pinned at zero
            (train_random_hidden, (12, 12, 12)),
            (train_gd, (5,)),
        ],
    )
    def test_report_equals_recomputed_fields(self, trainer, hidden):
        from karnet import load_iris, scale_minmax

        ds = scale_minmax(load_iris(), 0.01)
        for seed in range(3):
            net, rep = trainer(ds.x, ds.y, spec_for(ds.x, ds.y, hidden, seed=seed))
            g = forward(net, ds.x)
            assert rep.train_sse == float(np.sum((g - ds.y) ** 2))
            assert rep.train_sse_transformed == phi_space_sse(net, ds.x, ds.y)
            assert rep.train_error_rate == error_rate(g, ds.y)

    def test_fit_working_set_is_a_small_multiple_of_the_output_matrix(self):
        """Peak traced memory of one tall fit, in units of the bytes of
        [1, G] (m x (h + 1)).  A layer step holds its pre-activation and one
        more activation-sized array: logit's scratch, then [1, G], so one
        hidden layer peaks near 2x (LAPACK's copy of [1, G] is not traced).
        With two hidden layers, train_random_hidden has dropped the first
        layer's matrix by then, while train_n_layer holds the second
        layer's peeled target beside the step, near 3x."""
        x, y = _tall_problem()
        for trainer, hidden, bound in (
            (train_n_layer, (_H,), 2.25),
            (train_random_hidden, (_H,), 2.25),
            (train_random_hidden, (_H, _H), 2.25),
            (train_n_layer, (_H, _H), 3.25),
        ):
            spec = spec_for(x, y, hidden, seed=3)
            peak = _traced_peak(lambda: trainer(x, y, spec))
            assert peak <= bound * x.shape[0] * (_H + 1) * 8, (trainer.__name__, hidden)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_forward_holds_two_activation_matrices(self, depth):
        """forward drops each layer's input once it is multiplied and runs
        the layer step in place on the pre-activation, so its peak stays
        near 2x the bytes of [1, G] however deep the net."""
        x, y = _tall_problem()
        net, _ = train_random_hidden(x, y, spec_for(x, y, (_H,) * depth, seed=3))
        peak = _traced_peak(lambda: forward(net, x))
        assert peak <= 2.25 * x.shape[0] * (_H + 1) * 8


_H = 256


def _tall_problem():
    """5,000 rows of 16 features and 4 one-hot classes: m >> h."""
    m, d, q = 5000, 16, 4
    rng = np.random.default_rng(0)
    x = rng.uniform(0.01, 0.99, size=(m, d))
    return x, np.eye(q)[rng.integers(0, q, size=m)]


def _traced_peak(call) -> int:
    """Bytes ``call()`` adds to tracemalloc's peak, its result included."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _hidden_full_rank(net, x, m):
    h = apply_logit(add_bias_column(x) @ net.weights[0])
    s = np.linalg.svd(h, compute_uv=False)
    return np.sum(s > max(h.shape) * np.finfo(float).eps * s[0]) >= m


class TestErrors:
    def test_rank_deficiency_error_names_subject(self):
        zero = pinv(np.zeros((3, 3)))
        with pytest.raises(RankDeficiencyError, match="input matrix"):
            require_rank(zero, "input matrix")

    @pytest.mark.parametrize("rcond", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_rcond_must_be_finite_and_non_negative(self, rcond):
        from karnet import ConfigError

        ds = make_xor(perturbed=True)
        for trainer in (train_n_layer, train_random_hidden):
            with pytest.raises(ConfigError, match="rcond"):
                trainer(ds.x, ds.y, spec_for(ds.x, ds.y, (2,)), rcond=rcond)

    def test_zero_rcond_is_accepted(self):
        ds = make_xor(perturbed=True)
        train_n_layer(ds.x, ds.y, spec_for(ds.x, ds.y, (2,)), rcond=0.0)

    def test_rcond_one_keeps_no_unit_singular_value_of_a_node_block(self):
        """The peel uses no cutoff; the first solve keeps no singular value."""
        ds = make_xor(perturbed=True)
        with pytest.raises(RankDeficiencyError, match="input matrix"):
            train_n_layer(ds.x, ds.y, spec_for(ds.x, ds.y, (2,)), rcond=1.0)

    def test_random_hidden_needs_a_hidden_layer(self):
        from karnet import ConfigError

        ds = make_xor(perturbed=True)
        with pytest.raises(ConfigError, match="requires at least one hidden layer"):
            train_random_hidden(ds.x, ds.y, spec_for(ds.x, ds.y, ()))

    @pytest.mark.parametrize("rcond", [0.0, 0.5])
    def test_rcond_below_one_trains_through_the_peel(self, solves, rcond):
        ds = make_xor(perturbed=True)
        net, _ = train_n_layer(ds.x, ds.y, spec_for(ds.x, ds.y, (2,)), rcond=rcond)
        assert solves == [(4, 3), (4, 3)]
        assert np.all(np.isfinite(forward(net, ds.x)))

    def test_dimension_mismatch(self):
        from karnet import DimensionError

        x = np.ones((4, 2)) * 0.5
        y = np.ones((3, 1)) * 0.5
        with pytest.raises(DimensionError):
            train_n_layer(x, y, NetworkSpec(2, (2,), 1))


# (fan-in p, width q): tall, wide, square, 1-wide and 1-tall node blocks
_BLOCKS = st.one_of(
    st.tuples(st.integers(2, 60), st.integers(1, 20)).map(lambda t: (t[0] + t[1], t[1])),
    st.tuples(st.integers(1, 20), st.integers(2, 60)).map(lambda t: (t[0], t[0] + t[1])),
    st.integers(1, 40).map(lambda n: (n, n)),
    st.integers(1, 60).map(lambda p: (p, 1)),
    st.integers(1, 60).map(lambda q: (1, q)),
)


class TestOrthonormalLayer:
    @settings(max_examples=200, deadline=None)
    @given(_BLOCKS, st.integers(0, 2**32 - 1))
    def test_unit_singular_values_seeded_and_bias_in_unit_interval(self, block, seed):
        p, q = block
        w = _orthonormal_layer(np.random.default_rng(seed), (p + 1, q))
        assert w.shape == (p + 1, q)
        s = np.linalg.svd(w[1:, :], compute_uv=False)
        assert s.shape == (min(p, q),)
        np.testing.assert_allclose(s, 1.0, rtol=0.0, atol=1e-12)
        assert np.all((w[0, :] >= 0.0) & (w[0, :] < 1.0))
        assert np.array_equal(w, _orthonormal_layer(np.random.default_rng(seed), (p + 1, q)))

    @settings(max_examples=200, deadline=None)
    @given(_BLOCKS, st.integers(0, 2**32 - 1))
    def test_transpose_is_the_svd_pseudoinverse(self, block, seed):
        """The peel's B^T matches the SVD reference, which keeps every
        singular value of the block."""
        p, q = block
        node = _orthonormal_layer(np.random.default_rng(seed), (p + 1, q))[1:, :]
        ref = pinv(node)
        assert ref.rank == min(p, q)
        np.testing.assert_allclose(ref.pinv, node.T, rtol=0.0, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(_BLOCKS, st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_peel_round_trip(self, block, seed, m):
        """Peeling a layer and putting it back, ``((T - b) B^T) B + b``,
        returns T when B has orthonormal columns (p >= q), and otherwise
        the orthogonal projection of T - b onto B's row space, plus b."""
        p, q = block
        rng = np.random.default_rng(seed)
        w = _orthonormal_layer(rng, (p + 1, q))
        bias, node = w[0, :], w[1:, :]
        t = rng.uniform(0.0, 1.0, size=(m, q))
        back = ((t - bias) @ node.T) @ node + bias
        if p >= q:
            np.testing.assert_allclose(back, t, rtol=0.0, atol=1e-12)
        else:
            proj = pinv(node).pinv @ node  # the SVD projector onto B's row space
            np.testing.assert_allclose(back, (t - bias) @ proj + bias, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose((back - bias) @ proj, back - bias, rtol=0.0, atol=1e-12)


class TestReference:
    """``train_n_layer`` against ``reference.py``'s literal transcription of
    its equations, on the 90/60 iris split (scaled on its training rows)
    where ``[1, G]`` is well conditioned.  Each bound on the largest
    |output gap| on the 60 test rows, in logit units (outputs lie within
    about +-16.1), is at least 5x the largest over seeds 0-99: 3.3e-15,
    1.8e-10 and 1.7e-5."""

    @pytest.mark.parametrize("hidden, bound", [((), 1e-13), ((5,), 1e-9), ((3, 3, 3, 3), 1e-4)])
    def test_outputs_match_the_reference(self, hidden, bound):
        train, test = iris_train_test_split(load_iris())
        train = scale_minmax(train, 0.01)
        test = apply_scaling(test, train.scaling, 0.01)
        for seed in range(10):
            spec = spec_for(train.x, train.y, hidden, seed)
            net, _ = train_n_layer(train.x, train.y, spec)
            ref = Network(spec=spec, weights=reference_n_layer(train.x, train.y, spec))
            got, want = forward(net, test.x), forward(ref, test.x)
            assert np.max(np.abs(got - want)) <= bound, seed
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1)), seed

    @pytest.mark.parametrize("hidden", [(), (5,), (20,), (90,), (3, 3, 3, 3), (40, 20),
                                        (400, 200, 100)])
    def test_every_layer_solves_its_target_as_well_as_its_conditioning_allows(self, hidden):
        """Every layer of both fits on the 90/60 split's training rows passes
        the certificate (``assert_certified``) with c = 1, at karnet's default
        cutoff.  The largest ratio to kappa * eps read 0.125 over these seeds
        and 0.40 over seeds 0-99 (0.46 under OpenBLAS's Haswell kernels), with
        kappa up to 5e13."""
        train = scale_minmax(iris_train_test_split(load_iris())[0], 0.01)
        for seed in range(10):
            assert_certified(train.x, train.y, spec_for(train.x, train.y, hidden, seed), 1.0)

    @pytest.mark.parametrize("hidden", [(), (2,), (5,), (8,), (3, 3), (5, 5), (4, 2), (3, 3, 3),
                                        (3, 3, 3, 3)])
    def test_well_conditioned_fits_match_the_reference_to_a_relative_tolerance(self, hidden):
        """Where every layer's ``[1, G]`` on the training rows has kappa <= 1e8,
        the test outputs of ``train_n_layer`` and of the reference differ by at
        most 1e-4 of their largest magnitude, and decode alike.  Over seeds
        0-99 the largest relative gap read 1.2e-5 (1.6e-5 under OpenBLAS's
        Prescott kernels), at (3, 3, 3, 3); no shape here had kappa above 1e8
        on more than 5 of those seeds."""
        train, test = iris_train_test_split(load_iris())
        train = scale_minmax(train, 0.01)
        test = apply_scaling(test, train.scaling, 0.01)
        compared = 0
        for seed in range(10):
            spec = spec_for(train.x, train.y, hidden, seed)
            net, _ = train_n_layer(train.x, train.y, spec)
            g, kappas = train.x, []
            for w in net.weights:
                a = with_ones(g)
                s = np.linalg.svd(a, compute_uv=False)
                kappas.append(s[0] / s[-1])
                g = apply_logit(a @ w)
            if max(kappas) > 1e8:
                continue
            compared += 1
            ref = Network(spec=spec, weights=reference_n_layer(train.x, train.y, spec))
            got, want = forward(net, test.x), forward(ref, test.x)
            assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want)), seed
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1)), seed
        assert compared >= 9

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 5), st.integers(1, 3),
           st.lists(st.integers(1, 8), max_size=3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_every_layer_of_a_small_net_passes_the_certificate(self, m, d, q, hidden, one_hot,
                                                                 seed):
        """The certificate (``assert_certified``) with c = 16, on m rows of d uniform features
        and q uniform or one-hot targets, at depths 1-4.  On these small
        matrices kappa is often near 1 and rounding of order eps sets the
        residual: over 30,000 draws from this distribution, under three
        OpenBLAS kernel sets, the largest ratio to kappa * eps read 5.9."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(m, d))
        y = np.eye(q)[rng.integers(0, q, size=m)] if one_hot else rng.uniform(0.0, 1.0, (m, q))
        assert_certified(x, y, NetworkSpec(d, tuple(hidden), q, seed=seed), 16.0)


def assert_certified(x, y, spec, c):
    """Every layer k of ``train_n_layer``'s fit and of the reference's solves
    its peeled target B_k as well as its conditioning allows:
    ||U_r^T (a W_k - B_k)|| / ||B_k|| <= c * kappa * eps, where a = [1, G_{k-1}],
    U_r holds its r leading left singular vectors, r is the rank the layer's
    solve kept (``lstsq`` for ``train_n_layer``, ``pinv`` for the reference)
    and kappa = s_1 / s_r.  B_k is the reference's, so a wrong peel fails too."""
    eps = np.finfo(np.float64).eps
    targets = reference_targets(y, spec)
    for weights, rank in (
        (train_n_layer(x, y, spec)[0].weights, lambda a, b: lstsq(a, b).rank),
        (reference_n_layer(x, y, spec), lambda a, b: pinv(a).rank),
    ):
        g = x
        for k, (w, b) in enumerate(zip(weights, targets, strict=True), start=1):
            a = with_ones(g)
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            r = rank(a, b)
            residual = np.linalg.norm(u[:, :r].T @ (a @ w - b)) / np.linalg.norm(b)
            assert residual <= c * s[0] / s[r - 1] * eps, (spec, k)
            g = apply_logit(a @ w)

"""Network model tests: shapes, forward pass, JSON."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from karnet import (
    ConfigError,
    DataError,
    DimensionError,
    Network,
    NetworkSpec,
    NumericalError,
    apply_logit,
    apply_sigmoid,
    forward,
    load_network,
    pinv,
    save_network,
)
from karnet.gradient_descent import initial_network
from karnet.network import add_bias_column


class TestSpecAndShapes:
    def test_weight_shapes_chain(self):
        spec = NetworkSpec(input_dim=4, hidden=(90,), output_dim=3)
        assert spec.weight_shapes == [(5, 90), (91, 3)]
        net = initial_network(spec)
        assert net.weights[0].shape == (5, 90)
        assert net.weights[1].shape == (91, 3)

    def test_no_hidden_layer(self):
        spec = NetworkSpec(input_dim=3, hidden=(), output_dim=2)
        assert spec.n_layers == 1
        assert spec.weight_shapes == [(4, 2)]

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            NetworkSpec(input_dim=0, hidden=(2,), output_dim=1)
        with pytest.raises(ConfigError):
            NetworkSpec(input_dim=2, hidden=(0,), output_dim=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            NetworkSpec(input_dim=2, hidden=(), output_dim=1, seed=seed)

    @pytest.mark.parametrize("sizes, seed", [
        pytest.param((2, (2.9,), 1), 0, id="float-hidden"),
        pytest.param((4.5, (), True), 1.5, id="float-input-bool-output-float-seed"),
        pytest.param((2, ("3",), 1), 0, id="string-hidden"),
        pytest.param((2, (), 1), True, id="bool-seed"),
        pytest.param((2, (np.bool_(True),), 1), 0, id="numpy-bool-hidden"),
    ])
    def test_non_integer_size_or_seed_is_config_error(self, sizes, seed):
        """Nothing is truncated or parsed into an integer: a float, a bool
        or a string size or seed is refused, as a weights file holding one
        is."""
        with pytest.raises(ConfigError, match="layer sizes and seed must be integers"):
            NetworkSpec(*sizes, seed=seed)

    def test_numpy_integer_sizes_are_accepted_and_stored_as_ints(self):
        spec = NetworkSpec(np.int64(2), tuple(np.arange(3, 5)), np.int32(1), seed=np.uint64(7))
        assert spec.hidden == (3, 4)
        assert all(type(h) is int for h in spec.hidden)
        assert spec.weight_shapes == [(3, 3), (4, 4), (5, 1)]

    def test_wrong_weight_shape_rejected(self):
        spec = NetworkSpec(input_dim=2, hidden=(3,), output_dim=1)
        with pytest.raises(DimensionError):
            Network(spec=spec, weights=[np.zeros((2, 3)), np.zeros((4, 1))])
        with pytest.raises(DimensionError):
            Network(spec=spec, weights=[np.zeros((3, 3))])


class TestForward:
    def test_zero_weights_constant_output(self):
        """Zero weights force every pre-activation to 0, which clamps to the
        domain floor, so the output is the constant f(clamped 0)."""
        spec = NetworkSpec(input_dim=2, hidden=(3,), output_dim=1)
        net = Network(spec=spec, weights=[np.zeros((3, 3)), np.zeros((4, 1))])
        expected = apply_logit(np.zeros((1, 1)))[0, 0]
        out = forward(net, np.random.default_rng(0).uniform(0.1, 0.9, (4, 2)))
        np.testing.assert_allclose(out, expected)

    def test_single_layer_exact_fit_when_square(self):
        """With m = d + 1 full-rank inputs the augmented system is square:
        solving the transformed targets reproduces them through the net."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0.05, 0.95, size=(4, 3))
        y = rng.uniform(0.1, 0.9, size=(4, 2))
        w1 = pinv(add_bias_column(x)).pinv @ apply_sigmoid(y)
        spec = NetworkSpec(input_dim=3, hidden=(), output_dim=2)
        net = Network(spec=spec, weights=[w1])
        np.testing.assert_allclose(forward(net, x), y, atol=1e-6)

    def test_output_shape_property(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            q = int(rng.integers(1, 4))
            depth = int(rng.integers(0, 4))
            hidden = tuple(int(h) for h in rng.integers(1, 7, size=depth))
            m = int(rng.integers(1, 9))
            spec = NetworkSpec(input_dim=d, hidden=hidden, output_dim=q,
                               seed=int(rng.integers(0, 1000)))
            net = initial_network(spec)
            out = forward(net, rng.uniform(0.1, 0.9, size=(m, d)))
            assert out.shape == (m, q)
            assert np.all(np.isfinite(out))

    def test_forward_is_pure(self):
        spec = NetworkSpec(input_dim=3, hidden=(4,), output_dim=2, seed=9)
        net = initial_network(spec)
        x = np.random.default_rng(5).uniform(0.1, 0.9, (6, 3))
        np.testing.assert_array_equal(forward(net, x), forward(net, x))

    def test_dimension_mismatch(self):
        spec = NetworkSpec(input_dim=3, hidden=(2,), output_dim=1)
        with pytest.raises(DimensionError):
            forward(initial_network(spec), np.ones((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_numerical_error(self, bad):
        """A NaN or infinite feature makes a pre-activation non-finite,
        which the layer step refuses instead of passing NaN on, with no
        numpy warning before the refusal."""
        net = initial_network(NetworkSpec(input_dim=3, hidden=(4,), output_dim=2, seed=8))
        x = np.random.default_rng(8).uniform(0.1, 0.9, (5, 3))
        x[2, 1] = bad
        with warnings.catch_warnings(), pytest.raises(
                NumericalError, match="non-finite pre-activation at layer 1"):
            warnings.simplefilter("error")
            forward(net, x)

    def test_uncached_pass_matches_the_bias_column_chain(self):
        """The output is, bit for bit, f applied after each layer's product
        with the input and a prepended ones column."""
        rng = np.random.default_rng(7)
        net = initial_network(NetworkSpec(input_dim=3, hidden=(5, 3), output_dim=2, seed=7))
        x = rng.uniform(0.1, 0.9, (8, 3))
        g = x
        for w in net.weights:
            g = apply_logit(add_bias_column(g) @ w)
        np.testing.assert_array_equal(forward(net, x), g)


class TestSerialization:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_numerical_error(self, tmp_path, bad):
        """Weights files are strict JSON: no NaN, Infinity or null in them."""
        net = initial_network(NetworkSpec(input_dim=2, hidden=(3,), output_dim=1))
        net.weights[-1][1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            save_network(net, tmp_path / "weights.json")
        assert not (tmp_path / "weights.json").exists()

    def test_file_read_as_plain_json_gives_the_same_arrays(self, tmp_path):
        """A reader without karnet (json.load, then a row-major reshape of
        each layer's number list) gets every weight back bit for bit."""
        net = initial_network(NetworkSpec(input_dim=4, hidden=(20, 10), output_dim=3, seed=5))
        net.weights[0][0, :4] = [5e-324, -0.0, 1e-5, 1.2e-7]
        save_network(net, tmp_path / "weights.json")
        with open(tmp_path / "weights.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        for w, layer in zip(net.weights, payload["weights"]):
            got = np.asarray(layer["data"], dtype=np.float64).reshape(layer["rows"], layer["cols"])
            np.testing.assert_array_equal(got.view(np.uint64), w.view(np.uint64))

    def test_file_written_by_stdlib_json_loads_the_same(self, tmp_path):
        """Files written with ``json.dumps(payload, sort_keys=True)`` still
        load, and parse to the same payload as the current writer's."""
        net = initial_network(NetworkSpec(input_dim=4, hidden=(20,), output_dim=3, seed=9))
        net.weights[0][0, :3] = [5e-324, -0.0, 1e16]
        payload = {
            "spec": net.spec.to_dict(),
            "weights": [
                {"rows": w.shape[0], "cols": w.shape[1], "data": w.ravel().tolist()}
                for w in net.weights
            ],
        }
        old = json.dumps(payload, sort_keys=True)
        (tmp_path / "weights.json").write_text(old, encoding="utf-8")
        clone = load_network(tmp_path / "weights.json")
        assert clone.spec == net.spec
        for w, c in zip(net.weights, clone.weights):
            np.testing.assert_array_equal(c.view(np.uint64), w.view(np.uint64))
        save_network(net, tmp_path / "new.json")
        assert json.loads((tmp_path / "new.json").read_bytes()) == json.loads(old)

    def test_file_matches_the_float_list_route_byte_for_byte(self, tmp_path):
        """The writer hands orjson each weight matrix as a float64 array;
        the file must hold the same bytes as one written from ``tolist()``
        float lists, on values spread over every exponent with signed
        zeros, subnormals and the extreme doubles among them."""
        spec = NetworkSpec(input_dim=399, hidden=(500,), output_dim=3, seed=11)
        (r1, c1), (r2, c2) = spec.weight_shapes
        n = r1 * c1 + r2 * c2
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**63, size=n, dtype=np.uint64) | (
            rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63))
        values = bits.view(np.float64)
        values = np.where(np.isfinite(values), values, 1.0)
        values[:8] = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, 0.1 + 0.2, 1e16]
        net = Network(spec=spec, weights=[
            values[: r1 * c1].reshape(r1, c1),
            # a transposed view: the writer must flatten it row-major
            values[r1 * c1:].reshape(c2, r2).T,
        ])
        save_network(net, tmp_path / "weights.json")
        payload = {
            "spec": spec.to_dict(),
            "weights": [
                {"rows": w.shape[0], "cols": w.shape[1], "data": w.ravel().tolist()}
                for w in net.weights
            ],
        }
        want = orjson.dumps(payload, option=orjson.OPT_SORT_KEYS)
        assert (tmp_path / "weights.json").read_bytes() == want

    @pytest.mark.parametrize("key, value", [
        ("hidden", [1.9]), ("hidden", [True]), ("hidden", "1"), ("input_dim", 2.5),
        ("input_dim", "2"), ("output_dim", "1"), ("output_dim", 1.0), ("seed", "7"),
        ("seed", 7.0), ("seed", False),
    ])
    def test_file_with_a_non_integer_size_or_seed_is_data_error(self, tmp_path, key, value):
        """Sizes and the seed must be JSON integers; nothing is truncated
        or parsed from a string into one, even where the result would fit
        the stored weights."""
        net = initial_network(NetworkSpec(input_dim=2, hidden=(1,), output_dim=1))
        save_network(net, tmp_path / "weights.json")
        payload = json.loads((tmp_path / "weights.json").read_bytes())
        payload["spec"][key] = value
        (tmp_path / "weights.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="sizes and seed must be integers"):
            load_network(tmp_path / "weights.json")

    def test_file_with_a_seed_beyond_uint64_is_data_error(self, tmp_path):
        net = initial_network(NetworkSpec(input_dim=2, hidden=(), output_dim=1))
        save_network(net, tmp_path / "weights.json")
        payload = json.loads((tmp_path / "weights.json").read_bytes())
        payload["spec"]["seed"] = 2**64
        (tmp_path / "weights.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="seed"):
            load_network(tmp_path / "weights.json")


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _networks(draw):
    """A net of up to three layers, 1 to 3 wide, with arbitrary finite
    float64 weights: signed zeros, subnormals and the largest doubles."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    spec = NetworkSpec(input_dim=sizes[0], hidden=tuple(sizes[1:-1]),
                       output_dim=sizes[-1], seed=draw(st.integers(0, 2**64 - 1)))
    weights = [
        np.array(draw(st.lists(_FINITE, min_size=r * c, max_size=r * c))).reshape(r, c)
        for r, c in spec.weight_shapes
    ]
    return Network(spec=spec, weights=weights)


class TestWeightFileRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_networks())
    @example(initial_network(NetworkSpec(input_dim=3, hidden=(5, 4), output_dim=2, seed=123)))
    @example(Network(spec=NetworkSpec(input_dim=1, hidden=(), output_dim=1),
                     weights=[np.array([[1e-308], [0.1 + 0.2]])]))
    def test_save_then_load_is_bit_exact(self, net):
        with tempfile.TemporaryDirectory() as d:
            save_network(net, Path(d) / "weights.json")
            clone = load_network(Path(d) / "weights.json")
        assert clone.spec == net.spec
        for w, c in zip(net.weights, clone.weights):
            np.testing.assert_array_equal(c, w)
            np.testing.assert_array_equal(np.signbit(c), np.signbit(w))

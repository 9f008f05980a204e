"""Activation tests: logit and its inverse, the sigmoid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from karnet.activations import (
    CLAMP_EPS, HI, LO, apply_logit, apply_sigmoid, clamp, logit, logit_deriv,
)


class TestApplyF:
    def test_midpoint_maps_to_zero(self):
        out = apply_logit(np.full((3, 2), 0.5))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_boundary_clamps_finite(self):
        out = apply_logit(np.array([[1.0, 0.0]]))
        assert np.all(np.isfinite(out))
        expected_hi = math.log((1.0 - CLAMP_EPS) / CLAMP_EPS)
        np.testing.assert_allclose(out, [[expected_hi, -expected_hi]])

    def test_scalar_value_against_direct_log(self):
        x = 0.9991
        out = apply_logit(np.array([[x]]))
        assert out[0, 0] == pytest.approx(math.log(x / (1.0 - x)), abs=1e-10)

    def test_outputs_finite_for_arbitrary_inputs(self):
        rng = np.random.default_rng(0)
        m = rng.normal(scale=100.0, size=(50, 4))
        assert np.all(np.isfinite(apply_logit(m)))


class TestApplyPhi:
    def test_zero_maps_to_half(self):
        out = apply_sigmoid(np.zeros((2, 2)))
        np.testing.assert_allclose(out, 0.5)

    def test_saturation_clamped_into_domain(self):
        out = apply_sigmoid(np.array([[-1e4, 1e4]]))
        assert out[0, 0] >= LO
        assert out[0, 1] <= HI

    def test_outputs_always_inside_band(self):
        rng = np.random.default_rng(1)
        out = apply_sigmoid(rng.normal(scale=1e3, size=(100, 3)))
        assert np.all(out >= LO)
        assert np.all(out <= HI)


class TestPairProperties:
    def test_roundtrip_grid(self):
        """phi(f(x)) = x to 1e-10 on a 1000-point grid inside the safe domain."""
        x = np.linspace(0.01, 0.99, 1000).reshape(40, 25)
        np.testing.assert_allclose(apply_sigmoid(apply_logit(x)), x, atol=1e-10)

    def test_forward_monotone(self):
        x = np.sort(np.random.default_rng(2).uniform(0.001, 0.999, size=500))
        fx = apply_logit(x.reshape(1, -1)).ravel()
        assert np.all(np.diff(fx) > 0)

    def test_inverse_monotone(self):
        y = np.sort(np.random.default_rng(3).normal(scale=5.0, size=500))
        py = apply_sigmoid(y.reshape(1, -1)).ravel()
        assert np.all(np.diff(py) >= 0)

    def test_derivative_matches_finite_differences(self):
        x = np.linspace(0.05, 0.95, 101)
        h = 1e-7
        numeric = (apply_logit((x + h).reshape(1, -1)) -
                   apply_logit((x - h).reshape(1, -1))) / (2 * h)
        analytic = logit_deriv(x.reshape(1, -1))
        np.testing.assert_allclose(numeric, analytic, rtol=1e-5)


def _old_apply_logit(m):
    a = np.clip(np.asarray(m, dtype=np.float64), LO, HI)
    return np.log(a / (1.0 - a))


def _old_apply_sigmoid(m):
    z = np.clip(np.asarray(m, dtype=np.float64), -700.0, 700.0)
    return np.clip(1.0 / (1.0 + np.exp(-z)), LO, HI)


_ELEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-6, 1.0 + 1e-6),
    st.floats(-800.0, 800.0),
)


class TestInPlaceEvaluation:
    """apply_logit and apply_sigmoid work in buffers they allocate themselves: the
    results are the bits of the plain expressions and the input is untouched."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=12),
                      elements=_ELEMENTS))
    def test_matches_plain_expressions_bit_for_bit(self, m):
        for view in (m, m.T, m[::2] if m.ndim else m):
            before = view.copy()
            for new, old in ((apply_logit, _old_apply_logit), (apply_sigmoid, _old_apply_sigmoid)):
                got, want = np.asarray(new(view)), np.asarray(old(view))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert view.tobytes() == before.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=12),
                      elements=_ELEMENTS))
    def test_out_set_to_the_input_gives_the_same_bits(self, m):
        """The trainers and forward take sigmoid and logit in place on
        buffers they own; the bits are those of the plain expressions."""
        s = m.copy()
        assert apply_sigmoid(s, out=s) is s
        assert s.tobytes() == np.asarray(_old_apply_sigmoid(m)).tobytes()
        z = m.copy()
        assert logit(clamp(z, out=z), out=z) is z
        assert z.tobytes() == np.asarray(_old_apply_logit(m)).tobytes()

    def test_python_scalar(self):
        assert float(apply_logit(0.3)) == float(_old_apply_logit(0.3))
        assert float(apply_sigmoid(0.3)) == float(_old_apply_sigmoid(0.3))

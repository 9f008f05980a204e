"""Pseudoinverse and least-squares solver tests.

Expected values for the solver come from the explicit full-rank formulas,
computed independently here: the normal-equation (primal) solution
(A^T A)^-1 A^T b for over-determined systems and the dual solution
A^T (A A^T)^-1 b for under-determined ones.  Properties compare the
solver's two routes (LAPACK gelsd for narrow right-hand sides, the formed
pseudoinverse otherwise) on random and rank-deficient systems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karnet import DimensionError, NumericalError, lstsq, pinv

EPS = np.finfo(np.float64).eps


def primal_oracle(a, b):
    return np.linalg.solve(a.T @ a, a.T @ b)


def dual_oracle(a, b):
    return a.T @ np.linalg.solve(a @ a.T, b)


def random_matrix(rng, m, d, rank=None):
    a = rng.normal(size=(m, d))
    if rank is not None and rank < min(m, d):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        s[rank:] = 0.0
        a = (u * s) @ vt
    return a


class TestPinv:
    def test_identity(self):
        r = pinv(np.eye(2))
        np.testing.assert_allclose(r.pinv, np.eye(2))
        assert r.rank == 2

    def test_idempotent_diagonal(self):
        r = pinv(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(r.pinv, np.diag([1.0, 0.0]))
        assert r.rank == 1

    def test_single_row(self):
        a = np.array([[1.0, 1.0]])
        expected = dual_oracle(a, np.eye(1))
        np.testing.assert_allclose(pinv(a).pinv, expected)
        np.testing.assert_allclose(pinv(a).pinv, [[0.5], [0.5]])

    def test_transpose_shape_and_rank_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, d = rng.integers(1, 9, size=2)
            a = random_matrix(rng, m, d)
            r = pinv(a)
            assert r.pinv.shape == (d, m)
            assert r.rank <= min(m, d)

    def test_penrose_conditions_random(self):
        """All four defining conditions on random (incl. rank-deficient) matrices."""
        rng = np.random.default_rng(42)
        for trial in range(100):
            m = int(rng.integers(1, 21))
            d = int(rng.integers(1, 21))
            rank = None if trial % 3 else max(1, int(rng.integers(1, min(m, d) + 1)))
            a = random_matrix(rng, m, d, rank)
            x = pinv(a).pinv
            na = np.linalg.norm(a)
            nx = np.linalg.norm(x)
            assert np.linalg.norm(a @ x @ a - a) <= 1e-8 * max(na, 1e-30)
            assert np.linalg.norm(x @ a @ x - x) <= 1e-8 * max(nx, 1e-30)
            ax = a @ x
            xa = x @ a
            assert np.linalg.norm(ax - ax.T) <= 1e-8 * max(np.linalg.norm(ax), 1e-30)
            assert np.linalg.norm(xa - xa.T) <= 1e-8 * max(np.linalg.norm(xa), 1e-30)

    def test_explicit_rcond_drops_small_singulars(self):
        a = np.diag([1.0, 1e-6])
        r = pinv(a, rcond=1e-3)
        assert r.rank == 1
        np.testing.assert_allclose(r.pinv, np.diag([1.0, 0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            pinv(np.array([[np.nan, 1.0]]))


class TestSolveLeastSquares:
    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(3, 1))
        np.testing.assert_allclose(lstsq(np.eye(3), b).theta, b)

    def test_overdetermined_scalar(self):
        a = np.array([[1.0], [1.0]])
        b = np.array([[0.0], [2.0]])
        expected = primal_oracle(a, b)
        got = lstsq(a, b).theta
        np.testing.assert_allclose(got, expected)
        np.testing.assert_allclose(got, [[1.0]])

    def test_underdetermined_minimum_norm(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[2.0]])
        expected = dual_oracle(a, b)
        got = lstsq(a, b).theta
        np.testing.assert_allclose(got, expected)
        np.testing.assert_allclose(got, [[1.0], [1.0]])

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            lstsq(np.eye(3), np.ones((2, 1)))

    def test_primal_agreement_overdetermined(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(5, 25))
            d = int(rng.integers(2, m))
            a = random_matrix(rng, m, d)
            b = rng.normal(size=(m, 2))
            got = lstsq(a, b).theta
            want = primal_oracle(a, b)
            assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)

    def test_dual_agreement_underdetermined(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(5, 25))
            m = int(rng.integers(2, d))
            a = random_matrix(rng, m, d)
            b = rng.normal(size=(m, 2))
            got = lstsq(a, b).theta
            want = dual_oracle(a, b)
            assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)

    def test_minimum_norm_among_exact_solutions(self):
        """Adding any kernel vector to the solution can only grow its norm."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(4, 16))
            m = int(rng.integers(2, d))
            a = random_matrix(rng, m, d)
            b = rng.normal(size=(m, 1))
            theta = lstsq(a, b).theta
            null_proj = np.eye(d) - pinv(a).pinv @ a
            for _ in range(10):
                k = null_proj @ rng.normal(size=(d, 1))
                assert np.linalg.norm(theta) <= np.linalg.norm(theta + k) + 1e-10

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(6, 20))
            d = int(rng.integers(2, m))
            a = random_matrix(rng, m, d)
            b = rng.normal(size=(m, 1))
            theta = lstsq(a, b).theta
            base = np.sum((a @ theta - b) ** 2)
            for _ in range(10):
                delta = rng.normal(scale=0.1, size=theta.shape)
                assert base <= np.sum((a @ (theta + delta) - b) ** 2) + 1e-10

    def test_multi_output_column_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            d = int(rng.integers(2, 12))
            q = int(rng.integers(2, 5))
            a = random_matrix(rng, m, d)
            b = rng.normal(size=(m, q))
            whole = lstsq(a, b).theta
            cols = np.column_stack(
                [lstsq(a, b[:, j : j + 1]).theta[:, 0] for j in range(q)]
            )
            np.testing.assert_allclose(whole, cols, atol=1e-10)


@st.composite
def _systems(draw):
    """A tall, wide or square A (random, or with repeated rows or columns),
    a B whose width falls on either side of min(A.shape), and a cutoff."""
    m, d = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, d))
    repeat = draw(st.sampled_from(["none", "rows", "columns"]))
    if repeat == "rows":
        a = a[rng.integers(0, draw(st.integers(1, m)), size=m)]
    elif repeat == "columns":
        a = a[:, rng.integers(0, draw(st.integers(1, d)), size=d)]
    short = min(m, d)
    if short > 1 and draw(st.booleans()):
        k = draw(st.integers(1, short - 1))
    else:
        k = draw(st.integers(short, short + 3))
    b = rng.normal(size=(m, k))
    return a, b, draw(st.sampled_from([None, 1e-6]))


class TestLstsqRoutes:
    """lstsq and the pseudoinverse it replaces on narrow right-hand sides give
    the same minimum-norm least-squares solution up to rounding."""

    @settings(max_examples=300, deadline=None)
    @given(_systems())
    def test_routes_agree_on_rank_residual_and_kernel(self, system):
        a, b, rcond = system
        got = lstsq(a, b, rcond=rcond)
        ref = pinv(a, rcond=rcond)
        assert got.rank == ref.rank
        if b.shape[1] >= min(a.shape):
            assert got.theta.tobytes() == (ref.pinv @ b).tobytes()
            return
        s = np.linalg.svd(a, compute_uv=False)
        # rounding turns the kept singular subspace by about eps * s_1 / s_k
        # (Wedin), which moves the residual by up to twice that share of |B|^2
        turn = EPS * s[0] / s[got.rank - 1] if got.rank else 0.0
        b2 = float(np.sum(b * b))
        r_got = float(np.sum((a @ got.theta - b) ** 2))
        r_ref = float(np.sum((a @ (ref.pinv @ b) - b) ** 2))
        assert abs(r_got - r_ref) <= 1e-9 * b2 + 2.0 * turn * b2
        # no component in ker A beyond that turn
        _, _, vt = np.linalg.svd(a)
        kernel_part = np.linalg.norm(vt[got.rank:] @ got.theta)
        assert kernel_part <= (1e-12 + 10.0 * max(a.shape) * turn) * np.linalg.norm(got.theta)

    @pytest.mark.parametrize(
        "sigma, rcond, rank",
        [(2 * EPS, None, 2), (4 * EPS, None, 3), (1e-6, 1e-6, 2), (2e-6, 1e-6, 3),
         (1e-17, 0.0, 3), (1e-17, 1e-300, 3), (0.5, 1.0, 0), (0.5, 0.75, 1)],
    )
    def test_both_routes_drop_the_same_singular_values(self, sigma, rcond, rank):
        """A singular value at or below rcond * s_1 (default 3 eps for a 3x3)
        is dropped for every width of B, one above it is kept; rcond 0 keeps
        every nonzero one and rcond 1 none (gelsd alone would read both as
        eps)."""
        a = np.diag([1.0, sigma, 0.5])
        for k in (1, 3):
            assert lstsq(a, np.ones((3, k)), rcond=rcond).rank == rank

    @pytest.mark.parametrize("rcond", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_negative_or_non_finite_rcond_is_refused(self, rcond, k):
        """gelsd would read a negative rcond as eps, pinv as keeping every
        value."""
        from karnet import ConfigError

        with pytest.raises(ConfigError, match="rcond"):
            lstsq(np.diag([1.0, 1e-17, 1.0]), np.ones((3, k)), rcond=rcond)

    @pytest.mark.parametrize("rcond", [-1.0, np.nan, np.inf])
    def test_pinv_refuses_the_cutoffs_lstsq_refuses(self, rcond):
        """The reference pseudoinverse checks its cutoff as ``lstsq`` does;
        unchecked, -1 kept the zero singular value and inverted it, and NaN
        or inf kept none."""
        from karnet import ConfigError

        with pytest.raises(ConfigError, match="rcond must be finite and >= 0"):
            pinv(np.diag([1.0, 0.0]), rcond=rcond)

    @settings(max_examples=300, deadline=None)
    @given(_systems())
    def test_pinv_satisfies_penrose_conditions(self, system):
        a, _, rcond = system
        x = pinv(a, rcond=rcond).pinv
        ax, xa = a @ x, x @ a
        assert np.linalg.norm(a @ x @ a - a) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(x @ a @ x - x) <= 1e-8 * max(np.linalg.norm(x), 1e-300)
        assert np.linalg.norm(ax - ax.T) <= 1e-8 * max(np.linalg.norm(ax), 1e-300)
        assert np.linalg.norm(xa - xa.T) <= 1e-8 * max(np.linalg.norm(xa), 1e-300)

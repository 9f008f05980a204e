"""Dense linear algebra kernel: SVD pseudoinverse and least-squares solves.

Every least-squares solve ``A theta = B`` goes through ``lstsq``, which
returns the SVD minimum-norm solution with a singular-value cutoff.  For
full-rank systems this coincides with the primal normal-equation solution
(A^T A)^-1 A^T b when the system is over-determined, and with the dual
solution A^T (A A^T)^-1 b when it is under-determined; the SVD additionally
handles rank deficiency.  ``lstsq`` picks its route from the shapes: when B
has fewer columns than ``min(A.shape)``, LAPACK gelsd applies the
factorisation to B and never forms U, V or the pseudoinverse; otherwise,
and for a cutoff gelsd cannot express, the Moore-Penrose pseudoinverse
``pinv(A)`` is formed and multiplied by B.  Both routes apply the same
cutoff to their own singular values: one within rounding of the cutoff can
be kept by one route and dropped by the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, RankDeficiencyError, check_finite

__all__ = ["LstsqResult", "PinvResult", "as_matrix", "lstsq", "pinv"]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-D float64 array.

    Requires at least one row and one column and all-finite entries.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class PinvResult:
    """Pseudoinverse of a matrix together with the numerical rank used.

    Attributes
    ----------
    pinv : ndarray, shape (cols, rows) of the input
    rank : int
        Number of singular values kept (above the cutoff).
    tolerance : float
        Absolute singular-value cutoff that was applied.
    """

    pinv: np.ndarray
    rank: int
    tolerance: float


def pinv(a, rcond: float | None = None) -> PinvResult:
    """Moore-Penrose pseudoinverse via SVD with a singular-value cutoff.

    Parameters
    ----------
    a : array-like, shape (m, d)
    rcond : float, optional
        Relative cutoff, finite and >= 0; singular values at or below
        ``rcond * sigma_max`` are treated as zero.  Defaults to
        ``max(m, d) * eps``, the one place that default is written.

    Returns
    -------
    PinvResult
        Satisfies the four defining pseudoinverse conditions to numerical
        tolerance: A X A = A, X A X = X, and both A X and X A symmetric.
    """
    check_finite("rcond", rcond, positive=False)
    m = as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge for shape {m.shape}") from exc
    sigma_max = s[0] if s.size else 0.0
    if rcond is None:
        rcond = max(m.shape) * np.finfo(np.float64).eps
    tol = rcond * sigma_max
    kept = s > tol
    rank = int(np.count_nonzero(kept))
    inv_s = np.zeros_like(s)
    inv_s[kept] = 1.0 / s[kept]
    return PinvResult(pinv=(vt.T * inv_s) @ u.T, rank=rank, tolerance=float(tol))


@dataclass(frozen=True)
class LstsqResult:
    """Least-squares solution and the number of singular values of ``a``
    kept (above the cutoff)."""

    theta: np.ndarray
    rank: int


def lstsq(a, b, rcond: float | None = None) -> LstsqResult:
    """Minimum-norm least-squares solution of ``a @ theta = b`` (b a matrix).

    Singular values at or below ``rcond * sigma_max`` count as zero, with
    ``rcond`` checked and defaulted as in ``pinv`` (gelsd's default is the
    same).  When ``b`` has fewer columns than ``min(a.shape)``, LAPACK
    gelsd solves the system without forming the pseudoinverse, which is
    faster there; with more columns, or a cutoff gelsd cannot express
    (``rcond`` 0 or >= 1), ``pinv(a, rcond).pinv @ b`` is used unchanged.
    """
    check_finite("rcond", rcond, positive=False)
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape[0] != bm.shape[0]:
        raise DimensionError(
            f"row mismatch: a has {am.shape[0]} rows, b has {bm.shape[0]}"
        )
    # gelsd reads an rcond outside (0, 1) as eps; pinv keeps every nonzero
    # singular value at 0 and none at 1 or above
    if bm.shape[1] >= min(am.shape) or not (rcond is None or 0.0 < rcond < 1.0):
        p = pinv(am, rcond=rcond)
        return LstsqResult(theta=p.pinv @ bm, rank=p.rank)
    try:
        theta, _, rank, _ = np.linalg.lstsq(am, bm, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge for shape {am.shape}") from exc
    return LstsqResult(theta=theta, rank=int(rank))


def require_rank(result, what: str):
    """Raise if a ``PinvResult`` or ``LstsqResult`` found no usable singular
    values; otherwise return it."""
    if result.rank == 0:
        raise RankDeficiencyError(f"{what} is numerically rank-deficient (rank 0)")
    return result

"""Dense real-matrix kernels used throughout the package.

Everything here is domain-free: matrix exponentials, zero-order-hold
discretization, least squares, the coordinates of a symmetric matrix,
symmetric eigendecompositions, projection onto the positive-semidefinite
cone, and spectral quantities. Matrices are plain ``numpy.ndarray`` of
float64; functions are pure and safe to call concurrently.

Scale target is small dense problems (order <= ~10), so the exponential
uses plain scaling-and-squaring with a truncated Taylor series and the
general eigenvalues come straight from LAPACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AsymmetryError, DimensionError, RankDeficiencyError

SYM_RTOL = 1e-8  # relative asymmetry allowed before sym_eig refuses
PSD_EIG_FLOOR = -1e-10  # relative eigenvalue slack when checking "PSD" numerically


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def _require_square(A: np.ndarray, name: str) -> None:
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got {A.shape}")


def expm(M, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential e^(M*scale) by scaling-and-squaring.

    The scaled matrix is halved k times until its Frobenius norm is at
    most 0.5, a >=20-term Taylor series is summed, and the result is
    squared k times. Adequate and simple at the small orders this package
    works with.
    """
    A = as_matrix(M, "expm input")
    _require_square(A, "expm input")
    S = A * float(scale)
    norm = np.linalg.norm(S, "fro")
    k = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    S = S / (2.0**k)
    n = S.shape[0]
    E = np.eye(n)
    term = np.eye(n)
    for i in range(1, 40):
        term = term @ S / i
        E = E + term
        if i >= 20 and np.linalg.norm(term, "fro") < 1e-20 * np.linalg.norm(E, "fro"):
            break
    for _ in range(k):
        E = E @ E
    return E


def zoh_pair(A, B, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization (F, G) of (A, B) at step dt.

    Uses the block trick: the exponential of [[A, B], [0, 0]]*dt has
    F = e^(A dt) in the top-left and G = int_0^dt e^(A tau) dtau B in the
    top-right.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    _require_square(A, "A")
    n, m = A.shape[0], B.shape[1]
    if B.shape[0] != n:
        raise DimensionError(f"B must have {n} rows, got {B.shape}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M, dt)
    return E[:n, :n], E[:n, n:]


def lstsq(A, b) -> np.ndarray:
    """Solve min_X ||A X - b||_F for a full-column-rank A.

    Backed by the SVD solver (numpy ``lstsq``), which also reports the
    numerical rank; a rank-deficient A raises ``RankDeficiencyError``
    carrying that rank rather than silently returning a minimum-norm
    solution.
    """
    A = as_matrix(A, "A")
    b_arr = np.asarray(b, dtype=float)
    if A.shape[0] < A.shape[1]:
        raise DimensionError(
            f"A must have at least as many rows as columns, got {A.shape}"
        )
    if b_arr.shape[0] != A.shape[0]:
        raise DimensionError(
            f"b has {b_arr.shape[0]} rows, expected {A.shape[0]}"
        )
    X, _, rank, _ = np.linalg.lstsq(A, b_arr, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficiencyError(
            f"system is rank deficient: numerical rank {rank} < {A.shape[1]} columns",
            rank=int(rank),
        )
    return X


def sym_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the n(n+1)/2 free entries of a symmetric n x n matrix.

    The diagonal comes first, then the strict upper triangle row by row.
    This is the one coordinate order for symmetric matrices in the package:
    the P-step basis, the quadratic cost features and the fitted (Q, R).
    """
    d = np.arange(n)
    r, c = np.nonzero(d[:, None] < d)
    return np.concatenate([d, r]), np.concatenate([d, c])


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(M) -> SymEig:
    """Eigendecomposition of a (numerically) symmetric matrix.

    The input is symmetrized as (M + M^T)/2 before factoring, but an
    asymmetry above ``SYM_RTOL`` relative is refused: silent symmetrization
    of a genuinely asymmetric matrix hides bugs upstream.
    """
    A = as_matrix(M, "sym_eig input")
    _require_square(A, "sym_eig input")
    skew = np.linalg.norm(A - A.T, "fro")
    if skew > SYM_RTOL * (1.0 + np.linalg.norm(A, "fro")):
        raise AsymmetryError(
            f"matrix is asymmetric beyond tolerance (||M - M^T||_F = {skew:.3e})"
        )
    S = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(S)
    return SymEig(eigenvalues=w, eigenvectors=V)


def require_psd(M, name: str, definite: bool = False) -> None:
    """Raise ``ValueError`` unless symmetric M is positive semidefinite.

    With ``definite`` the smallest eigenvalue must be strictly positive;
    otherwise it may dip below zero by ``PSD_EIG_FLOOR`` relative to the
    largest, which absorbs rounding in matrices that are PSD by construction.
    """
    w = sym_eig(M).eigenvalues
    if definite and w[0] <= 0:
        raise ValueError(f"{name} must be positive definite (min eig {w[0]:.3e})")
    if w[0] < PSD_EIG_FLOOR * (1.0 + abs(w[-1])):
        raise ValueError(f"{name} must be positive semidefinite (min eig {w[0]:.3e})")


def psd_project(M) -> np.ndarray:
    """Nearest (Frobenius) positive-semidefinite matrix: clip negative eigenvalues."""
    w, V = sym_eig(M)
    P = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (P + P.T)


def spectral_abscissa(M) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    A = as_matrix(M, "matrix")
    _require_square(A, "matrix")
    return float(np.max(np.linalg.eigvals(A).real))


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    A = as_matrix(M, "matrix")
    _require_square(A, "matrix")
    return float(np.max(np.abs(np.linalg.eigvals(A))))

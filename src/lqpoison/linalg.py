"""Dense real-matrix kernels used throughout the package.

Everything here is domain-free: the matrix coercion and shape check
(``as_matrix``), the sampling-interval check, matrix exponentials,
zero-order-hold discretization, tables of matrix powers and the rollout
of a linear recursion, free or driven, in blocks of isqrt(N) + 1 steps
(about 2 sqrt(N) + 1 Python steps for N states), the refusal of arrays
too large to allocate (``sized_by``), least squares over row blocks, row
norms, the coordinates of a symmetric matrix, symmetric eigendecompositions,
projection onto the positive-semidefinite cone, and the spectral abscissa.
Matrices are plain ``numpy.ndarray`` of float64; functions are pure and
safe to call concurrently.

Scale target is small dense problems (order <= ~10), so the exponential
uses plain scaling-and-squaring with a truncated Taylor series and the
general eigenvalues come straight from LAPACK.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .errors import AsymmetryError, DimensionError, RankDeficiencyError

SYM_RTOL = 1e-8  # relative asymmetry allowed before sym_eig refuses
PSD_EIG_FLOOR = -1e-10  # relative eigenvalue slack when checking "PSD" numerically
LSTSQ_BLOCK_ROWS = 512  # rows per block fed to lstsq; about the fastest for 61 columns


def as_matrix(M, name: str = "matrix", shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries, and of ``shape`` if given.

    This is the package's one check of a matrix against an expected
    (rows, cols): a mismatch raises ``DimensionError`` reading
    "{name} must be {rows}x{cols}, got {M.shape}".
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and A.shape != shape:
        raise DimensionError(f"{name} must be {shape[0]}x{shape[1]}, got {A.shape}")
    return A


def require_dt(dt) -> None:
    """Raise ``ValueError`` unless dt is a sampling interval: 0 < dt < inf."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _require_square(A: np.ndarray, name: str) -> None:
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got {A.shape}")


def expm(M, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential e^(M*scale) by scaling-and-squaring.

    The scaled matrix is halved k times until its Frobenius norm is at
    most 0.5, a 20-term Taylor series is summed, and the result is
    squared k times. Adequate and simple at the small orders this package
    works with. When ||M*scale||_F or the result is not finite, ``ValueError``
    names the scale (``zoh_pair``'s dt) and no overflow warning escapes.
    """
    A = as_matrix(M, "expm input")
    _require_square(A, "expm input")
    E = np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        S = A * float(scale)
        norm = np.linalg.norm(S, "fro")
        k = 0 if norm <= 0.5 else np.ceil(np.log2(norm / 0.5))  # inf or NaN on overflow
        if k < np.inf:
            k = int(k)
            S = np.ldexp(S, -k)  # S / 2^k, also where 2^k itself overflows
            # ||S||_F <= 1/2, so term 20 is at most 0.5^20/20! ~ 3.9e-25 against
            # ||E||_F >= e^(-1/2): below rounding, and no later term counts.
            term = E
            for i in range(1, 21):
                term = term @ S / i
                E = E + term
            for _ in range(k):
                E = E @ E
    if not (k < np.inf and np.isfinite(E).all()):
        raise ValueError(
            f"e^(M dt) is not finite at dt = {scale:g} (||M dt||_F = {norm:.3g}); "
            "the plant is too fast for this sampling interval"
        )
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
    require_dt(dt)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = expm(M, dt)
    return E[:n, :n], E[:n, n:]


def power_table(M: np.ndarray, count: int) -> np.ndarray:
    """The leading finite powers M^1, M^2, ... of square M, at most ``count``.

    Far powers of a strongly unstable M may overflow. The table stops before
    the first power with a non-finite entry (it always holds M^1), so a
    rollout built on it cannot form inf * 0 and put a NaN in a state the
    step-by-step recursion keeps finite. Row j of the result is M^(j+1).
    """
    n = M.shape[0]
    pows = np.empty((max(count, 1), n, n))
    power = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in pows:
            power = np.matmul(M, power, out=p)
    finite = np.isfinite(pows).all(axis=(1, 2))
    return pows if finite.all() else pows[: max(1, int(np.argmin(finite)))]


def rollout(F: np.ndarray, x0: np.ndarray, N: int, w: np.ndarray | None = None) -> np.ndarray:
    """States x_0 ... x_N of x_{k+1} = F x_k + w_k, or of x_{k+1} = F x_k with no ``w``.

    The states are split into blocks of b = isqrt(N) + 1 steps (fewer if
    ``power_table`` stops early). With an input, the zero-initial-state
    response inside each block is built for all blocks at once, one step of
    the block per Python iteration; without one that pass is skipped. The
    block starts are then chained, one block per iteration, and F^i times
    each start is added in one batched matmul. That is at most b + N/b,
    about 2 sqrt(N) + 1, Python steps instead of N. The output is allocated
    first, so a size numpy refuses is refused before any loop runs.
    """
    n = len(x0)
    b = math.isqrt(N) + 1
    out = np.empty((N + b, n))  # holds the blocks for any b' <= b: nb' * b' <= N + b'
    pows = power_table(F, b)
    b = len(pows)
    nb = -(-(N + 1) // b)  # blocks covering the N + 1 states
    Z = None
    if w is not None:
        W = np.zeros((nb * b, n))
        W[:N] = w
        W = W.reshape(nb, b, n)
        Z = np.empty((nb, b + 1, n))  # Z[j, i]: state i of block j from a zero start
        Z[:, 0] = 0.0
        for i in range(b):
            np.matmul(Z[:, i], F.T, out=Z[:, i + 1])
            Z[:, i + 1] += W[:, i]
    starts = np.empty((nb, n))
    starts[0] = x0
    for j in range(nb - 1):
        starts[j + 1] = pows[b - 1] @ starts[j]
        if Z is not None:
            starts[j + 1] += Z[j, b]
    shifts = np.concatenate([np.eye(n)[None], pows[: b - 1]])  # F^0 ... F^(b-1)
    X = out[: nb * b].reshape(nb, b, n)
    np.einsum("ikl,jl->jik", shifts, starts, out=X)
    if Z is not None:
        X += Z[:, :b]
    return out[: N + 1]


@contextlib.contextmanager
def sized_by(name: str):
    """Inside, an array numpy cannot allocate is refused naming ``name``, its size.

    numpy raises ``MemoryError`` for a size the memory cannot hold and
    ``ValueError`` for one it cannot represent ("array is too big", "Maximum
    allowed dimension exceeded"). Either becomes a ``ValueError`` saying that
    ``name``, the setting that sizes the arrays, is too large. Only code whose
    other ValueErrors are bugs goes inside.
    """
    try:
        yield
    except (MemoryError, ValueError) as e:
        raise ValueError(f"{name} is too large: its arrays cannot be allocated ({e})") from None


def lstsq(blocks, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve min_X ||A X - B||_F for a full-column-rank A given in row blocks; returns (X, s).

    ``blocks()`` yields the row blocks [A_i | B_i], A's p columns first, of
    at most ``LSTSQ_BLOCK_ROWS`` rows; it is called twice, and a block may be
    a buffer the next one overwrites. All blocks but the last are folded into
    a QR triangle R (sequential TSQR; Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 34(1), 2012), then numpy's SVD solver solves
    [R; last block] with the cutoff it would use on A: a one-block batch
    makes exactly ``np.linalg.lstsq(A, B, rcond=None)``, and s are A's
    singular values. A rank-deficient A raises ``RankDeficiencyError`` with
    its rank and A's triangle. One corrected-seminormal step (Bjorck, 1996)
    then adds delta from R'^T R' delta = sum_i A_i^T (B_i - A_i X), R' being
    A's triangle, streamed over a second pass and scaled by a power of two
    near 1/s[0]^2 so it cannot overflow.
    """
    S, N = None, 0
    for block in blocks():
        if not np.isfinite(block).all():
            raise ValueError("A has non-finite entries")
        N += len(block)
        S = block.copy() if S is None else np.vstack([np.linalg.qr(S, mode="r"), block])
    if N < p:
        raise DimensionError(f"A must have at least as many rows as columns, got ({N}, {p})")
    X, _, rank, s = np.linalg.lstsq(S[:, :p], S[:, p:], rcond=np.finfo(float).eps * max(N, p))
    R = np.linalg.qr(S[:, :p], mode="r")
    if rank < p:
        raise RankDeficiencyError(
            f"system is rank deficient: numerical rank {rank} < {p} columns",
            rank=int(rank), triangle=R,
        )
    # the step in units of 2^e ~ s[0]: the scaling is exact, and A^T (B - A X)
    # neither overflows nor underflows for any finite A
    scale = math.ldexp(1.0, -math.frexp(s[0])[1])
    grad = np.zeros_like(X)
    for block in blocks():
        A = block[:, :p]
        grad += (A.T * scale) @ ((block[:, p:] - A @ X) * scale)
    R *= scale
    return X + np.linalg.solve(R, np.linalg.solve(R.T, grad)), s


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D X, with no X-sized temporary.

    The row sums of squares come from one einsum, and their square roots are
    taken in place. The sum runs in einsum's order, not ``np.linalg.norm``'s,
    so a norm may differ from that function's in its last bits. A row
    holding an inf has norm inf, and one holding a NaN has norm NaN.
    """
    norms = np.einsum("ij,ij->i", X, X)
    return np.sqrt(norms, out=norms)


def sym_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the n(n+1)/2 free entries of a symmetric n x n matrix.

    The diagonal comes first, then the strict upper triangle row by row.
    This is the one coordinate order for symmetric matrices in the package:
    the P-step basis, the quadratic cost features and the fitted (Q, R).
    """
    d = np.arange(n)
    r, c = np.nonzero(d[:, None] < d)
    return np.concatenate([d, r]), np.concatenate([d, c])


@functools.cache
def sym_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of symmetric n x n matrices, as a stack.

    Element k is nonzero at the k-th ``sym_index`` entry and its
    mirror: 1 on the diagonal, 1/sqrt(2) off it. Built once per n and
    returned read-only.
    """
    r, c = sym_index(n)
    k = np.arange(len(r))
    basis = np.zeros((len(r), n, n))
    basis[k, r, c] = basis[k, c, r] = np.where(r == c, 1.0, 1.0 / np.sqrt(2.0))
    basis.flags.writeable = False
    return basis


def sym_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (w, V) of a (numerically) symmetric matrix.

    The input is symmetrized as M/2 + M^T/2 before factoring, but an
    asymmetry above ``SYM_RTOL`` relative, tested on M scaled by its largest
    magnitude, is refused: silent symmetrization of a genuinely asymmetric
    matrix hides bugs upstream. Neither step overflows on finite input.
    """
    A = as_matrix(M, "sym_eig input")
    _require_square(A, "sym_eig input")
    s = float(np.abs(A).max(initial=0.0)) or 1.0
    As = A / s
    skew = float(np.linalg.norm(As - As.T, "fro"))
    if skew > SYM_RTOL * (1.0 / s + float(np.linalg.norm(As, "fro"))):
        raise AsymmetryError(
            f"matrix is asymmetric beyond tolerance (||M - M^T||_F = {s * skew:.3e})"
        )
    w, V = np.linalg.eigh(0.5 * A + 0.5 * A.T)
    return w, V


def require_psd(M, name: str, definite: bool = False) -> None:
    """Raise ``ValueError`` unless symmetric M is positive semidefinite.

    With ``definite`` the smallest eigenvalue must be strictly positive;
    otherwise it may dip below zero by ``PSD_EIG_FLOOR`` relative to the
    largest, which absorbs rounding in matrices that are PSD by construction.
    """
    w = sym_eig(M)[0]
    if definite and w[0] <= 0:
        raise ValueError(f"{name} must be positive definite (min eig {w[0]:.3e})")
    if w[0] < PSD_EIG_FLOOR * abs(w[-1]):
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

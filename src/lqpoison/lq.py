"""Continuous-time LQ plant model and LQR synthesis.

The plant is dx/dt = A x + B u with running cost x^T Q x + u^T R u. The
optimal policy is linear state feedback u = K x with K = -R^-1 B^T P,
where P solves the continuous algebraic Riccati equation

    A^T P + P A - P B R^-1 B^T P + Q = 0.

``care_solve`` implements Newton-Kleinman iteration: starting from a
stabilizing gain, each step solves one Lyapunov equation (via the n^2 x n^2
Kronecker-vectorized linear system, cheap at this scale) and converges
quadratically to the stabilizing solution. The initial gain comes from the
Bass eigenvalue-shifting construction when the open loop is unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    ConvergenceError,
    DimensionError,
    LearnabilityError,
    StabilityError,
)

CARE_TOL = 1e-10  # Riccati residual tolerance, relative to 1 + ||P||_F
CARE_MAX_ITER = 100  # Newton-Kleinman step cap


def lq_matrices(A, B, Q, R, names=("A", "B", "Q", "R")):
    """Coerce (A, B, Q, R) to float matrices and check they pose an LQ problem.

    A must be n x n, B n x m, Q n x n and positive semidefinite, R m x m and
    positive definite. ``names`` label the four matrices in error messages.
    """
    A, B, Q, R = (linalg.as_matrix(M, name) for M, name in zip((A, B, Q, R), names))
    n, m = A.shape[0], B.shape[1]
    for M, name, shape in zip((A, B, Q, R), names, ((n, n), (n, m), (n, n), (m, m))):
        if M.shape != shape:
            raise DimensionError(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")
    linalg.require_psd(Q, names[2])
    linalg.require_psd(R, names[3], definite=True)
    return A, B, Q, R


@dataclass(frozen=True)
class LQSystem:
    """Ground-truth continuous-time plant with cost weights and sampling step."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    dt: float

    def __post_init__(self):
        A, B, Q, R = lq_matrices(self.A, self.B, self.Q, self.R)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        n = A.shape[0]
        if x0.shape[0] != n:
            raise DimensionError(f"x0 must have length {n}, got {x0.shape[0]}")
        linalg.require_dt(self.dt)
        rho = linalg.spectral_radius(A)
        if rho >= 1.0 / self.dt:
            raise LearnabilityError(
                f"spectral radius {rho:.4g} >= 1/dt = {1.0 / self.dt:.4g}; "
                "decrease dt to make the sampled system learnable"
            )
        # The learner's matrix-log series converges iff rho(F - I) < 1.
        rho_log = linalg.spectral_radius(linalg.expm(A, self.dt) - np.eye(n))
        if rho_log >= 1.0:
            raise LearnabilityError(
                f"spectral radius of e^(A dt) - I is {rho_log:.4g} >= 1, so the "
                "log series diverges; decrease dt to make the sampled system learnable"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing CARE solution P, its gain K = -R^-1 B^T P, and the residual norm."""

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int = field(default=0, compare=False)


def lyap_solve(Acl: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve Acl^T X + X Acl + S = 0 for symmetric X via Kronecker vectorization."""
    n = Acl.shape[0]
    I = np.eye(n)
    M = np.kron(I, Acl.T) + np.kron(Acl.T, I)
    x = np.linalg.solve(M, -S.flatten("F"))
    X = x.reshape((n, n), order="F")
    return 0.5 * (X + X.T)


def _bass_gain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Initial stabilizing gain by eigenvalue shifting (Bass construction).

    With beta > ||A||_F the shifted matrix A + beta*I is anti-stable, so
    (A + beta*I) W + W (A + beta*I)^T = 2 B B^T has a PSD solution W whose
    range is the controllable subspace; K = -B^T pinv(W) then stabilizes
    A + B K whenever (A, B) is stabilizable.
    """
    n = A.shape[0]
    beta = np.linalg.norm(A, "fro") + 0.5
    Ash = A + beta * np.eye(n)
    W = lyap_solve(Ash.T, -2.0 * B @ B.T)
    return -B.T @ np.linalg.pinv(W, hermitian=True)


def care_solve(A, B, Q, R) -> RiccatiSolution:
    """Stabilizing solution of the CARE by Newton-Kleinman iteration.

    Each iterate K_i must stabilize A + B K_i; the Lyapunov equation
    (A + B K_i)^T P + P (A + B K_i) + Q + K_i^T R K_i = 0 then yields the
    next P, and K_{i+1} = -R^-1 B^T P. Stabilizability is certified
    post-hoc through the closed-loop spectral abscissa rather than tested
    symbolically up front.
    """
    A, B, Q, R = lq_matrices(A, B, Q, R)
    n = A.shape[0]
    Rinv = np.linalg.inv(R)

    if linalg.spectral_abscissa(A) < 0:
        K = np.zeros((B.shape[1], n))
    else:
        K = _bass_gain(A, B)
        if not is_stabilizing(A, B, K):
            raise StabilityError(
                "could not find an initial stabilizing gain; (A, B) appears unstabilizable"
            )

    P = np.eye(n)
    res_norm = float("inf")
    for it in range(1, CARE_MAX_ITER + 1):
        Acl = A + B @ K
        P = lyap_solve(Acl, Q + K.T @ R @ K)
        K = -Rinv @ (B.T @ P)
        res = A.T @ P + P @ A - P @ B @ Rinv @ B.T @ P + Q
        res_norm = float(np.linalg.norm(res, "fro"))
        if res_norm <= CARE_TOL * (1.0 + np.linalg.norm(P, "fro")):
            break
    else:
        raise ConvergenceError(
            f"Riccati iteration did not converge in {CARE_MAX_ITER} steps "
            f"(residual {res_norm:.3e})",
            residual=res_norm,
        )

    if not is_stabilizing(A, B, K):
        raise StabilityError("computed gain does not stabilize the closed loop")
    return RiccatiSolution(P=P, K=K, residual=res_norm, iterations=it)


def lqr_gain(P, B, R) -> np.ndarray:
    """Feedback gain K = -R^-1 B^T P (sign convention u = K x)."""
    P = linalg.as_matrix(P, "P")
    B = linalg.as_matrix(B, "B")
    R = linalg.as_matrix(R, "R")
    linalg.require_psd(R, "R", definite=True)
    return -np.linalg.solve(R, B.T @ P)


def is_stabilizing(A, B, K) -> bool:
    """True iff A + B K has all eigenvalues in the open left half-plane."""
    A = linalg.as_matrix(A, "A")
    B = linalg.as_matrix(B, "B")
    K = linalg.as_matrix(K, "K")
    if B.shape[1] != K.shape[0] or K.shape[1] != A.shape[0]:
        raise DimensionError(
            f"A {A.shape}, B {B.shape}, K {K.shape} do not conform"
        )
    return linalg.spectral_abscissa(A + B @ K) < 0

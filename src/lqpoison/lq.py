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
    n, m = linalg.as_matrix(A, names[0]).shape[0], linalg.as_matrix(B, names[1]).shape[1]
    A, B, Q, R = (
        linalg.as_matrix(M, name, shape)
        for M, name, shape in zip((A, B, Q, R), names, ((n, n), (n, m), (n, n), (m, m)))
    )
    linalg.require_psd(Q, names[2])
    linalg.require_psd(R, names[3], definite=True)
    return A, B, Q, R


@dataclass(frozen=True)
class LQSystem:
    """Ground-truth continuous-time plant with cost weights and sampling step.

    Learnable: every eigenvalue of A has |Im| dt < pi, so log(e^(A dt)) = A dt in
    exact arithmetic (``sysid.estimate_fg`` refuses a mode below the fit's rounding).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    dt: float

    def __post_init__(self):
        A, B, Q, R = lq_matrices(self.A, self.B, self.Q, self.R)
        x0 = np.asarray(self.x0, dtype=float)
        n = A.shape[0]
        if x0.ndim != 1:
            raise DimensionError(f"x0 must be a vector, got ndim={x0.ndim}")
        if x0.shape[0] != n:
            raise DimensionError(f"x0 must have length {n}, got {x0.shape[0]}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 has non-finite entries")
        linalg.require_dt(self.dt)
        omega = float(np.max(np.abs(np.linalg.eigvals(A).imag))) * self.dt
        if omega >= np.pi:
            raise LearnabilityError(
                f"max |Im eig(A)| * dt = {omega:.4g} >= pi, so sampled data alias A; "
                "decrease the sampling interval dt to make the system learnable"
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

    def stage_costs(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """x_k^T Q x_k + u_k^T R u_k for each row pair of ``xs`` and ``us``."""
        return np.einsum("ki,ki->k", xs @ self.Q, xs) + np.einsum("ki,ki->k", us @ self.R, us)


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
    I, At = np.eye(n), Acl.T
    # kron(I, At) + kron(At, I), as the outer products np.kron forms
    M = (I[:, None, :, None] * At[None, :, None, :]
         + At[:, None, :, None] * I[None, :, None, :]).reshape(n * n, n * n)
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
            f"(residual {res_norm:.3e})"
        )

    if not is_stabilizing(A, B, K):
        raise StabilityError("computed gain does not stabilize the closed loop")
    return RiccatiSolution(P=P, K=K, residual=res_norm, iterations=it)


def lqr_gain(P, B, R) -> np.ndarray:
    """Feedback gain K = -R^-1 B^T P (sign convention u = K x).

    For an n x m B, P must be n x n and R m x m.
    """
    B = linalg.as_matrix(B, "B")
    n, m = B.shape
    P = linalg.as_matrix(P, "P", (n, n))
    R = linalg.as_matrix(R, "R", (m, m))
    linalg.require_psd(R, "R", definite=True)
    return -np.linalg.solve(R, B.T @ P)


def require_plant_kept(F: np.ndarray, GK: np.ndarray, states: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if the loop matrix F + G K rounds the plant's step away.

    A rollout of x_{k+1} = (F + G K) x_k stands for F x_k + G (K x_k). At a
    state x where eps * || |G K| |x| || exceeds ||F x||, the rounding of
    (F + G K) x is as large as the plant's own step F x, so the rollout says
    nothing about the plant: a huge K with K x_0 = 0 would seem to settle at
    once. Only the given ``states`` are checked, and none of them when
    eps * ||G K||_F < sigma_min(F) makes every state pass.
    """
    eps = np.finfo(float).eps
    absGK = np.abs(GK)
    with np.errstate(over="ignore", invalid="ignore"):
        if eps * np.linalg.norm(absGK) < np.linalg.svd(F, compute_uv=False)[-1]:
            return
        rounding = eps * np.linalg.norm(np.abs(states) @ absGK.T, axis=1)
        lost = rounding > np.linalg.norm(states @ F.T, axis=1)
    if lost.any():
        raise ValueError(
            f"{name} is too large for the plant: F + G K rounds the plant's step "
            f"F x away at step {int(np.argmax(lost))}"
        )


def is_stabilizing(A, B, K) -> bool:
    """True iff A + B K has all eigenvalues in the open left half-plane."""
    n, m = linalg.as_matrix(A, "A").shape[0], linalg.as_matrix(B, "B").shape[1]
    A, B, K = (
        linalg.as_matrix(M, name, shape)
        for M, name, shape in zip((A, B, K), "ABK", ((n, n), (n, m), (m, n)))
    )
    return linalg.spectral_abscissa(A + B @ K) < 0

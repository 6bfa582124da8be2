"""Continuous-time LQ plant model and LQR synthesis.

The plant is dx/dt = A x + B u with running cost x^T Q x + u^T R u. The
optimal policy is linear state feedback u = K x with K = -R^-1 B^T P,
where P solves the continuous algebraic Riccati equation

    A^T P + P A - P B R^-1 B^T P + Q = 0.

``care_solve`` starts from the stabilizing solution read off the stable
invariant subspace of the Hamiltonian matrix (Laub 1979): one eigen-
decomposition and one linear solve. Newton-Kleinman steps, each one
Lyapunov solve (via the n^2 x n^2 Kronecker-vectorized linear system, cheap
at this scale), refine that start only while its residual exceeds both
``CARE_TOL`` and the residual's own rounding, and only while each step
lowers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConvergenceError,
    DimensionError,
    LearnabilityError,
    StabilityError,
)

CARE_TOL = 1e-10  # Riccati residual tolerance, relative to 1 + ||P||_F
# Rows per stage-cost block: a block's x Q holds at most 4096 n floats (0.33 MB
# at n = 10) where case2's 40,000-step rollout would form a 1.28 MB one, and
# the bundled simulations and case1's rollouts still take a single block.
COST_BLOCK_ROWS = 4096


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
        """x_k^T Q x_k + u_k^T R u_k for each row pair of ``xs`` and ``us``.

        The costs are filled in blocks of ``COST_BLOCK_ROWS`` rows, so the
        products x Q and u R never span the whole trajectory. Each cost is
        computed from its own row alone, so the blocks do not change it.
        """
        costs = np.empty(len(xs))
        for k in range(0, len(xs), COST_BLOCK_ROWS):
            x, u = xs[k : k + COST_BLOCK_ROWS], us[k : k + COST_BLOCK_ROWS]
            costs[k : k + COST_BLOCK_ROWS] = (np.einsum("ki,ki->k", x @ self.Q, x)
                                              + np.einsum("ki,ki->k", u @ self.R, u))
        return costs


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing CARE solution P, its gain K = -R^-1 B^T P, residual norm and Newton steps.

    The residual is at most ``CARE_TOL`` (1 + ||P||_F) or its own rounding bound.
    """

    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int


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


def care_solve(A, B, Q, R) -> RiccatiSolution:
    """Stabilizing solution of the CARE, refined by Newton-Kleinman steps.

    The start is P_0 = X_2 X_1^-1, where the columns of [X_1; X_2] span the
    invariant subspace of the Hamiltonian [[A, -B R^-1 B^T], [-Q, -A^T]] for
    its eigenvalues in the open left half-plane. The spectrum is symmetric
    about the imaginary axis, so a stabilizing solution needs exactly n of
    them. The start is taken only then, and only if X_1 is invertible and
    K_0 = -R^-1 B^T P_0 is finite and stabilizes A + B K_0; otherwise
    ``StabilityError``. Each refinement step solves the Lyapunov
    equation (A + B K_i)^T P + P (A + B K_i) + Q + K_i^T R K_i = 0 for the
    next P, with K_{i+1} = -R^-1 B^T P; ``iterations`` counts those steps.

    P is returned once the residual r is at most ``CARE_TOL`` (1 + ||P||_F)
    or its rounding bound n eps || |A|^T |P| + |P| |A| + |P| |S| |P| + |Q| ||_F,
    S = B R^-1 B^T (Higham 2002, 3.5). Otherwise each step must lower r:
    ``ConvergenceError`` at the first that does not, or once r is not finite.
    """
    A, B, Q, R = lq_matrices(A, B, Q, R)
    n = A.shape[0]
    Rinv = np.linalg.inv(R)

    with np.errstate(over="ignore", invalid="ignore"):
        S = B @ Rinv @ B.T
        try:
            w, V = np.linalg.eig(np.block([[A, -S], [-Q, -A.T]]))
            stable = w.real < 0
            # a real basis of the same span: Re v and Im conj(v) = -Im v for
            # each conjugate pair, so that the solve below stays real (a
            # complex one pages in ~0.45 MB more of LAPACK's code)
            X = np.where(w[stable].imag < 0, V[:, stable].imag, V[:, stable].real)
            # X_1^T P^T = X_2^T, and P is symmetric; X_1 is square, as solve
            # requires, only when n eigenvalues are stable
            P = np.linalg.solve(X[:n].T, X[n:].T)
            P = 0.5 * (P + P.T)
            K = -Rinv @ (B.T @ P)
            found = np.isfinite(P).all() and np.isfinite(K).all()
        except np.linalg.LinAlgError:
            found = False
    if not (found and is_stabilizing(A, B, K)):
        raise StabilityError(
            "could not find an initial stabilizing gain; (A, B) appears unstabilizable"
        )

    it, prev = 0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            res_norm = float(np.linalg.norm(A.T @ P + P @ A - P @ S @ P + Q, "fro"))
            if not np.isfinite(res_norm):
                raise ConvergenceError(f"Riccati residual is not finite after {it} steps")
            if res_norm <= CARE_TOL * (1.0 + np.linalg.norm(P, "fro")):
                break
            aP = np.abs(P)  # the residual's componentwise rounding bound
            unit = n * np.finfo(float).eps * float(np.linalg.norm(
                np.abs(A).T @ aP + aP @ np.abs(A) + aP @ np.abs(S) @ aP + np.abs(Q), "fro"))
            if res_norm <= unit:
                break
            if not res_norm < prev:
                raise ConvergenceError(f"Riccati refinement stalled: residual {res_norm:.3e} "
                                       f"after {prev:.3e}, above its rounding {unit:.3e}")
            it, prev = it + 1, res_norm
            P = lyap_solve(A + B @ K, Q + K.T @ R @ K)
            K = -Rinv @ (B.T @ P)

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
    eps * ||G K||_F < sigma_min(F) makes every state pass. The states are
    checked in blocks of isqrt(N) + 1, as ``linalg.rollout`` builds them,
    up to the first block with a lost step.
    """
    eps = np.finfo(float).eps
    absGK = np.abs(GK)
    with np.errstate(over="ignore", invalid="ignore"):
        if eps * np.linalg.norm(absGK) < np.linalg.svd(F, compute_uv=False)[-1]:
            return
        b = math.isqrt(len(states)) + 1
        for start in range(0, len(states), b):
            block = states[start : start + b]
            rounding = eps * linalg.row_norms(np.abs(block) @ absGK.T)
            lost = rounding > linalg.row_norms(block @ F.T)
            if lost.any():
                raise ValueError(
                    f"{name} is too large for the plant: F + G K rounds the plant's step "
                    f"F x away at step {start + int(np.argmax(lost))}"
                )


def is_stabilizing(A, B, K) -> bool:
    """True iff A + B K has all eigenvalues in the open left half-plane."""
    n, m = linalg.as_matrix(A, "A").shape[0], linalg.as_matrix(B, "B").shape[1]
    A, B, K = (
        linalg.as_matrix(M, name, shape)
        for M, name, shape in zip((A, B, K), "ABK", ((n, n), (n, m), (m, n)))
    )
    return linalg.spectral_abscissa(A + B @ K) < 0

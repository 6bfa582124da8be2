"""Attack synthesis: drive a batch learner to a chosen feedback gain.

The attacker replaces the recorded states with the trajectory of a planted
system (Atilde, Bhat) driven by the original inputs, leaving inputs and
costs untouched. Atilde is chosen so that the target gain Ktarget is the
LQR-optimal policy of (Atilde, Bhat, Qhat, Rhat), i.e. so that some P >= 0
satisfies

    Atilde^T P + P (Atilde + Bhat Ktarget) + Qhat = 0,
    Rhat Ktarget + Bhat^T P = 0,

while staying as close to the identified Ahat as possible in Frobenius
norm. The constraint is bilinear in (Atilde, P), so the solver alternates
convex subproblems ADMM-style with penalty mu:

  A-step  exact minimizer of ||Atilde - Ahat||_F^2 + (mu/2)||first block||_F^2
          in closed form: in the eigenbasis of P the map
          Atilde -> Atilde^T P + P Atilde is diagonal, so the problem splits
          into independent 2x2 problems (the diagonalisation behind
          Bartels-Stewart), one eigh and a few n x n products in all.
  P-step  minimizer of the stacked-block Frobenius objective over P >= 0.
          The unconstrained symmetric minimizer is a small least-squares
          solve over a stacked orthonormal basis of symmetric matrices in
          ``linalg.sym_index`` order, by one Householder QR and a triangular
          solve (the SVD solve when R's diagonal shows rank deficiency);
          when it is already PSD (the common case on this problem's
          trajectories) it is the constrained minimizer outright, otherwise
          an accelerated projected-gradient loop finishes the job.
  Z-step  plain dual ascent Z <- Z + mu * W on the stacked constraint W.

Feasibility of an arbitrary target gain is not guaranteed (not every gain
is LQR-optimal for some plant), so a run that stalls above the primal
tolerance reports converged=False instead of raising.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import BatchDataset
from .errors import (
    AdmmDivergenceError,
    ConvergenceError,
    DimensionError,
    StabilityError,
)
from .lq import care_solve, lq_matrices

DIVERGENCE_LIMIT = 1e6
MAX_INNER_ITER = 5000
INNER_TOL = 1e-8  # P-step projected-gradient stationarity tolerance
# The P-step solves its least-squares system by QR unless the smallest |R_ii|
# is within this factor of the largest; then it takes the SVD solve. Since
# sigma_min(D) <= min |R_ii|, a small ratio proves D nearly rank deficient; a
# large one does not prove the converse, so the factor sits far above the
# SVD's own cut (~1e-14) and far below the bundled runs' ratios (>= 3.8e-4).
RANK_RTOL = 1e-6


@dataclass(frozen=True)
class AttackSpec:
    """Identified model, cost weights, and the attacker's target gain."""

    Ahat: np.ndarray
    Bhat: np.ndarray
    Qhat: np.ndarray
    Rhat: np.ndarray
    Ktarget: np.ndarray

    def __post_init__(self):
        Ahat, Bhat, Qhat, Rhat = lq_matrices(
            self.Ahat, self.Bhat, self.Qhat, self.Rhat,
            names=("Ahat", "Bhat", "Qhat", "Rhat"),
        )
        Kt = linalg.as_matrix(self.Ktarget, "Ktarget")
        n, m = Ahat.shape[0], Bhat.shape[1]
        if Kt.shape != (m, n):
            raise DimensionError(f"Ktarget must be {m}x{n}, got {Kt.shape}")
        for name, M in (("Ahat", Ahat), ("Bhat", Bhat), ("Qhat", Qhat),
                        ("Rhat", Rhat), ("Ktarget", Kt)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.Ahat.shape[0]

    @property
    def m(self) -> int:
        return self.Bhat.shape[1]


@dataclass(frozen=True)
class AdmmConfig:
    mu: float = 10.0
    n_iter: int = 500
    primal_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not self.primal_tol >= 0:
            raise ValueError(f"primal_tol must be non-negative, got {self.primal_tol}")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")


@dataclass
class AdmmState:
    """Mutable iterate carried through the alternating updates."""

    Atilde: np.ndarray
    P: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    iter: int = 0
    primal_residual: float = float("inf")
    converged: bool = False
    residuals: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class AttackResult:
    """Planted dynamics, certificate, and the poisoned dataset."""

    Atilde: np.ndarray
    P: np.ndarray
    gain_error: float
    poisoned: BatchDataset
    attack_cost: float
    attack_cost_series: np.ndarray  # cumulative squared state distortion per step
    converged: bool
    residuals: list[float] = field(default_factory=list, compare=False)


def constraint_blocks(
    Atilde: np.ndarray, P: np.ndarray, spec: AttackSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The two stacked constraint blocks W = (W1, W2) at a point (Atilde, P)."""
    W1 = Atilde.T @ P + P @ (Atilde + spec.Bhat @ spec.Ktarget) + spec.Qhat
    W2 = spec.Rhat @ spec.Ktarget + spec.Bhat.T @ P
    return W1, W2


def residual_norm(W1: np.ndarray, W2: np.ndarray) -> float:
    return float(np.sqrt(np.sum(W1 * W1) + np.sum(W2 * W2)))


def a_step(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> np.ndarray:
    """Exact minimizer of the proximal A-subproblem, in P's eigenbasis.

    Only the first constraint block depends on Atilde, so the objective is
    ||Atilde - Ahat||_F^2 + (mu/2) ||Atilde^T P + P Atilde + C||_F^2 with
    C = P Bhat Ktarget + Qhat + Z1/mu. With P = V diag(lam) V^T, the
    coordinates Y = V^T Atilde V turn the map into Y^T diag(lam) + diag(lam) Y,
    which is symmetric, so the skew part of V^T C V drops out and the
    problem splits into one 2x2 problem per pair (i, j), (j, i). With
    Yhat = V^T Ahat V and S = sym(V^T C V), the penalty entry at the optimum
    is T_ij = (lam_i Yhat_ij + lam_j Yhat_ji + S_ij) / (1 + mu (lam_i^2 + lam_j^2))
    and Y = Yhat - mu diag(lam) T.
    """
    P = 0.5 * (state.P + state.P.T)
    C = P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    lam, V = np.linalg.eigh(P)
    Yh = V.T @ spec.Ahat @ V
    Cv = V.T @ C @ V
    li, lj = lam[:, None], lam[None, :]
    T = (li * Yh + lj * Yh.T + 0.5 * (Cv + Cv.T)) / (1.0 + cfg.mu * (li * li + lj * lj))
    return V @ (Yh - cfg.mu * li * T) @ V.T


@functools.cache
def _sym_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of symmetric n x n matrices, as a stack.

    Element k is nonzero at the k-th ``linalg.sym_index`` entry and its
    mirror: 1 on the diagonal, 1/sqrt(2) off it. Built once per n and
    returned read-only.
    """
    r, c = linalg.sym_index(n)
    k = np.arange(len(r))
    basis = np.zeros((len(r), n, n))
    basis[k, r, c] = basis[k, c, r] = np.where(r == c, 1.0, 1.0 / np.sqrt(2.0))
    basis.flags.writeable = False
    return basis


def p_step(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> np.ndarray:
    """Minimize the stacked constraint objective over the PSD cone.

    Objective: g(P) = ||At^T P + P Ac + C1||_F^2 + ||Bhat^T P + C2||_F^2
    over symmetric P >= 0, with Ac = Atilde + Bhat Ktarget. The symmetric
    unconstrained minimizer solves the least-squares system D coef = rhs in
    the n(n+1)/2 free parameters: one R-only QR of [D | rhs] gives the
    triangle R_D and Q^T rhs, so coef = R_D^-1 (Q^T rhs). When R_D's diagonal
    shows D near rank deficient (``RANK_RTOL``) the SVD's minimum-norm
    solution is taken instead. If projecting the minimizer onto the PSD cone
    moves it by no more than rounding, the projection is returned directly
    (zero gradient implies projected-gradient stationarity). Otherwise an
    accelerated projected gradient loop with exact Lipschitz step
    (2 ||D||_2^2 = 2 ||R_D||_2^2) runs until the gradient-mapping norm drops
    below ``INNER_TOL``.
    """
    At = state.Atilde
    Ac = At + spec.Bhat @ spec.Ktarget
    C1 = spec.Qhat + state.Z1 / cfg.mu
    C2 = spec.Rhat @ spec.Ktarget + state.Z2 / cfg.mu
    Bh = spec.Bhat
    basis = _sym_basis(spec.n)
    k = len(basis)
    # column j: the column-major vec of both blocks of the map at basis[j]
    D = np.hstack([
        M.swapaxes(1, 2).reshape(k, -1) for M in (At.T @ basis + basis @ Ac, Bh.T @ basis)
    ]).T
    rhs = -np.concatenate([C1.flatten("F"), C2.flatten("F")])
    R = np.linalg.qr(np.column_stack([D, rhs]), mode="r")
    Rd = R[:k, :k]
    d = np.abs(np.diag(Rd))
    if d.min() > RANK_RTOL * d.max():
        coef = np.linalg.solve(Rd, R[:k, k])
    else:  # near rank deficient: the SVD's minimum-norm solution
        coef, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    Pu = np.tensordot(coef, basis, 1)
    P = linalg.psd_project(Pu)
    if np.linalg.norm(P - Pu, "fro") <= 1e-12 * (1.0 + np.linalg.norm(Pu, "fro")):
        return P  # Pu was PSD up to rounding

    def grad_obj(P):
        R1 = At.T @ P + P @ Ac + C1
        R2 = Bh.T @ P + C2
        g = 2.0 * (At @ R1 + R1 @ Ac.T + Bh @ R2)
        return float(np.sum(R1 * R1) + np.sum(R2 * R2)), 0.5 * (g + g.T)

    lip = 2.0 * np.linalg.norm(Rd, 2) ** 2  # ||D||_2 = ||Rd||_2
    step = 1.0 / lip
    P = linalg.psd_project(state.P)
    Y = P.copy()
    tk = 1.0
    f, _ = grad_obj(P)
    for _ in range(MAX_INNER_ITER):
        _, Gy = grad_obj(Y)
        Pn = linalg.psd_project(Y - step * Gy)
        fn, Gn = grad_obj(Pn)
        if fn > f:  # momentum overshoot: restart from the last monotone point
            Y = P.copy()
            tk = 1.0
            _, Gy = grad_obj(Y)
            Pn = linalg.psd_project(Y - step * Gy)
            fn, Gn = grad_obj(Pn)
        tk1 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        Y = Pn + ((tk - 1.0) / tk1) * (Pn - P)
        P, f, tk = Pn, fn, tk1
        gm = np.linalg.norm(P - linalg.psd_project(P - step * Gn), "fro") / step
        if gm <= INNER_TOL:
            return P
    raise ConvergenceError(
        f"P-step projected gradient hit {MAX_INNER_ITER} iterations "
        f"(stationarity {gm:.3e} > {INNER_TOL:.1e})",
        residual=float(gm),
    )


def z_step(
    state: AdmmState, W1: np.ndarray, W2: np.ndarray, cfg: AdmmConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Dual ascent: Z <- Z + mu * W on the stacked constraint W = (W1, W2).

    W1, W2 are the ``constraint_blocks`` at the current (Atilde, P).
    """
    return state.Z1 + cfg.mu * W1, state.Z2 + cfg.mu * W2


def admm_solve(spec: AttackSpec, cfg: AdmmConfig | None = None) -> AdmmState:
    """Alternate A-, P-, and Z-steps until the constraint residual is small.

    Starts from Atilde = Ahat with P at the nominal Riccati solution (the
    zero-attack fixed point: if Ktarget already is the nominal gain the
    first iteration terminates with Atilde = Ahat exactly). A residual
    above ``DIVERGENCE_LIMIT`` aborts with a hint to raise mu.
    """
    cfg = cfg or AdmmConfig()
    n = spec.n
    try:
        P0 = care_solve(spec.Ahat, spec.Bhat, spec.Qhat, spec.Rhat).P
    except (ConvergenceError, StabilityError):
        P0 = np.eye(n)
    state = AdmmState(
        Atilde=spec.Ahat.copy(),
        P=P0,
        Z1=np.zeros((n, n)),
        Z2=np.zeros((spec.m, n)),
    )
    for i in range(1, cfg.n_iter + 1):
        state.Atilde = a_step(state, spec, cfg)
        state.P = p_step(state, spec, cfg)
        W1, W2 = constraint_blocks(state.Atilde, state.P, spec)
        r = residual_norm(W1, W2)
        if not np.isfinite(r) or r > DIVERGENCE_LIMIT:
            raise AdmmDivergenceError(
                f"constraint residual {r:.3e} exceeded {DIVERGENCE_LIMIT:.0e} "
                f"at iteration {i}; try a larger penalty parameter mu"
            )
        state.Z1, state.Z2 = z_step(state, W1, W2, cfg)
        state.iter = i
        state.primal_residual = r
        state.residuals.append(r)
        if r <= cfg.primal_tol:
            state.converged = True
            break
    return state


def generate_poisoned(atilde, bhat, d: BatchDataset) -> BatchDataset:
    """Replace the states of ``d`` with the trajectory of (atilde, bhat).

    The planted system is discretized exactly (same ZOH, same dt) and driven
    by the original input sequence from the original initial state; inputs
    and costs are copied through untouched.
    """
    atilde = linalg.as_matrix(atilde, "atilde")
    bhat = linalg.as_matrix(bhat, "bhat")
    if atilde.shape != (d.n, d.n) or bhat.shape != (d.n, d.m):
        raise DimensionError(
            f"planted dynamics {atilde.shape}/{bhat.shape} do not match dataset "
            f"(n={d.n}, m={d.m})"
        )
    F, G = linalg.zoh_pair(atilde, bhat, d.dt)
    xs = np.empty_like(d.xs)
    x = d.xs[0].copy()
    for k in range(d.N):
        xs[k] = x
        x = F @ x + G @ d.us[k]
    return BatchDataset(xs=xs, us=d.us.copy(), cs=d.cs.copy(), dt=d.dt, seed=d.seed)


def attack_cost(
    original: BatchDataset, poisoned: BatchDataset
) -> tuple[float, np.ndarray]:
    """Total squared state distortion and its running cumulative series."""
    if (
        original.N != poisoned.N
        or original.n != poisoned.n
        or original.dt != poisoned.dt
    ):
        raise DimensionError("datasets do not share shape and sampling interval")
    per_step = np.sum((poisoned.xs - original.xs) ** 2, axis=1)
    return float(np.sum(per_step)), np.cumsum(per_step)

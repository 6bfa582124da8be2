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
          via the positive-definite normal equations of the vectorized map
          Atilde -> Atilde^T P + P Atilde (always solvable: 2I + mu M^T M > 0).
  P-step  minimizer of the stacked-block Frobenius objective over P >= 0.
          The unconstrained symmetric minimizer is a small least-squares
          solve; when it is already PSD (the common case on this problem's
          trajectories) it is the constrained minimizer outright, otherwise
          an accelerated projected-gradient loop finishes the job.
  Z-step  plain dual ascent Z <- Z + mu * W on the stacked constraint W.

Feasibility of an arbitrary target gain is not guaranteed (not every gain
is LQR-optimal for some plant), so a run that stalls above the primal
tolerance reports converged=False instead of raising.
"""

from __future__ import annotations

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
from .lq import care_solve, lqr_gain

DIVERGENCE_LIMIT = 1e6
MAX_INNER_ITER = 5000


@dataclass(frozen=True)
class AttackSpec:
    """Identified model, cost weights, and the attacker's target gain."""

    Ahat: np.ndarray
    Bhat: np.ndarray
    Qhat: np.ndarray
    Rhat: np.ndarray
    Ktarget: np.ndarray

    def __post_init__(self):
        Ahat = linalg.as_matrix(self.Ahat, "Ahat")
        Bhat = linalg.as_matrix(self.Bhat, "Bhat")
        Qhat = linalg.as_matrix(self.Qhat, "Qhat")
        Rhat = linalg.as_matrix(self.Rhat, "Rhat")
        Kt = linalg.as_matrix(self.Ktarget, "Ktarget")
        n = Ahat.shape[0]
        m = Bhat.shape[1]
        if Ahat.shape != (n, n) or Bhat.shape[0] != n:
            raise DimensionError(f"Ahat {Ahat.shape} / Bhat {Bhat.shape} do not conform")
        if Qhat.shape != (n, n) or Rhat.shape != (m, m):
            raise DimensionError("Qhat/Rhat dimensions do not match the model")
        if Kt.shape != (m, n):
            raise DimensionError(f"Ktarget must be {m}x{n}, got {Kt.shape}")
        linalg.require_psd(Qhat, "Qhat")
        linalg.require_psd(Rhat, "Rhat", definite=True)
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
    inner_tol: float = 1e-8

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
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
    objective: float = 0.0
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
    """Exact minimizer of the proximal A-subproblem.

    Only the first constraint block depends on Atilde, so the objective is
    ||Atilde - Ahat||_F^2 + (mu/2) ||Atilde^T P + P Atilde + C||_F^2 with
    C = P Bhat Ktarget + Qhat + Z1/mu. Vectorizing Atilde turns this into
    a strictly convex quadratic whose normal equations are solved directly.
    """
    n = spec.n
    P = 0.5 * (state.P + state.P.T)
    C = P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    cols = np.empty((n * n, n * n))
    E = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            E[i, j] = 1.0
            cols[:, j * n + i] = (E.T @ P + P @ E).flatten("F")
            E[i, j] = 0.0
    H = 2.0 * np.eye(n * n) + cfg.mu * (cols.T @ cols)
    rhs = 2.0 * spec.Ahat.flatten("F") - cfg.mu * (cols.T @ C.flatten("F"))
    return np.linalg.solve(H, rhs).reshape((n, n), order="F")


def _sym_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of symmetric n x n matrices."""
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = s
            basis.append(E)
    return basis


def p_step(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> np.ndarray:
    """Minimize the stacked constraint objective over the PSD cone.

    Objective: g(P) = ||At^T P + P Ac + C1||_F^2 + ||Bhat^T P + C2||_F^2
    over symmetric P >= 0, with Ac = Atilde + Bhat Ktarget. The symmetric
    unconstrained minimizer solves a least-squares system in the n(n+1)/2
    free parameters; if PSD it is returned directly (zero gradient implies
    projected-gradient stationarity). Otherwise an accelerated projected
    gradient loop with exact Lipschitz step runs until the gradient-mapping
    norm drops below ``cfg.inner_tol``.
    """
    At = state.Atilde
    Ac = At + spec.Bhat @ spec.Ktarget
    C1 = spec.Qhat + state.Z1 / cfg.mu
    C2 = spec.Rhat @ spec.Ktarget + state.Z2 / cfg.mu
    Bh = spec.Bhat
    n = spec.n
    basis = _sym_basis(n)
    D = np.column_stack(
        [
            np.concatenate([(At.T @ E + E @ Ac).flatten("F"), (Bh.T @ E).flatten("F")])
            for E in basis
        ]
    )
    rhs = -np.concatenate([C1.flatten("F"), C2.flatten("F")])
    coef, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    Pu = sum(c * E for c, E in zip(coef, basis))
    w = np.linalg.eigvalsh(Pu)
    scale = 1.0 + abs(w[-1])
    if w[0] >= -1e-12 * scale:
        return linalg.psd_project(Pu)

    def grad_obj(P):
        R1 = At.T @ P + P @ Ac + C1
        R2 = Bh.T @ P + C2
        g = 2.0 * (At @ R1 + R1 @ Ac.T + Bh @ R2)
        return float(np.sum(R1 * R1) + np.sum(R2 * R2)), 0.5 * (g + g.T)

    lip = 2.0 * np.linalg.norm(D, 2) ** 2
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
        if gm <= cfg.inner_tol:
            return P
    raise ConvergenceError(
        f"P-step projected gradient hit {MAX_INNER_ITER} iterations "
        f"(stationarity {gm:.3e} > {cfg.inner_tol:.1e})",
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
        state.objective = float(np.linalg.norm(state.Atilde - spec.Ahat, "fro") ** 2)
        state.residuals.append(r)
        if r <= cfg.primal_tol:
            state.converged = True
            break
    return state


def induced_gain(spec: AttackSpec, P: np.ndarray) -> np.ndarray:
    """The gain -Rhat^-1 Bhat^T P the learner would extract from P."""
    return lqr_gain(P, spec.Bhat, spec.Rhat)


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

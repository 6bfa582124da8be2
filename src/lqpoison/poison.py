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
  P-step  the PSD projection of the unconstrained symmetric minimizer of
          the stacked-block Frobenius objective: a small least-squares solve
          over the orthonormal basis ``linalg.sym_basis`` of symmetric
          matrices, by one Householder QR and a triangular solve. When that
          minimizer is PSD (every P-step of the bundled runs) it is the
          constrained minimizer outright; otherwise the projection is an
          approximate one, which is all ADMM needs, since the polish's
          certificate decides whether an answer stands.
  Z-step  plain dual ascent Z <- Z + mu * W on the stacked constraint W.

Not every gain is LQR-optimal for some plant, so the attack answers for
the attainable gain K' of ``certify.gain_slice`` (the target when it is
attainable). Scaling (Qhat, Rhat) by c scales P and every residual by c and
leaves K' and Atilde unchanged, so ``admm_solve`` works on the costs divided
by sigma = ||(Qhat, Rhat Ktarget)||_F, where mu and ``PRIMAL_TOL`` are
dimensionless. ADMM polishes its iterate once, at iteration ``POLISH_AT``,
with ``certify.polish``, and stops there if the polished point's certificate
(its constraint residual against K') is within ``PRIMAL_TOL``; otherwise it
runs until its own residual is, or to its iteration cap. ``converged`` means
the returned point is certified, so a stalled run returns converged=False;
``stationary`` that it is the polish's stationary point on the slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .certify import GainSlice, constraint_blocks, gain_slice, planted, polish, residual_norm
from .data import BatchDataset
from .errors import ConvergenceError, DimensionError, StabilityError
from .lq import care_solve, lq_matrices

PRIMAL_TOL = 1e-6  # constraint residual, in units of sigma, that certifies the answer
# The P-step solves its least-squares system by QR unless the smallest |R_ii|
# is within this factor of the largest; then it takes the SVD solve. Since
# sigma_min(D) <= min |R_ii|, a small ratio proves D nearly rank deficient; a
# large one does not prove the converse, so the factor sits far above the
# SVD's own cut (~1e-14) and far below the bundled runs' ratios (>= 3.8e-4).
RANK_RTOL = 1e-6
POLISH_AT = 10  # the ADMM iteration at which the polish is tried, once


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
        Kt = linalg.as_matrix(self.Ktarget, "Ktarget", (Bhat.shape[1], Ahat.shape[0]))
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
    mu: float = 100.0
    n_iter: int = 500

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")


@dataclass
class AdmmState:
    """Mutable iterate carried through the alternating updates.

    ``iter`` counts ADMM iterations and ``residuals`` holds each one's
    constraint residual; ``polish_iter`` is the step count of the polish
    whose point the state holds (0 if none), ``stationary`` whether that
    point is stationary on the slice, and ``certificate`` the returned
    point's residual against the attainable gain. ``admm_solve`` leaves all
    but P on the unit-scale spec, residuals in units of sigma.
    """

    Atilde: np.ndarray
    P: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    attainable: GainSlice | None = None  # set by ``admm_solve``
    iter: int = 0
    converged: bool = False
    residuals: list[float] = field(default_factory=list)
    polish_iter: int = 0
    stationary: bool = False
    certificate: float = math.inf


@dataclass(frozen=True)
class AttackResult:
    """Planted dynamics, certificate, and the poisoned dataset."""

    Atilde: np.ndarray
    gain_error: float
    poisoned: BatchDataset
    attack_cost: float
    attack_cost_series: np.ndarray  # cumulative squared state distortion per step
    converged: bool
    stationary: bool  # the point is the polish's, stationary on the slice
    floor: float  # ||Bhat^T P0 + Rhat Ktarget||_F: 0 when the target is attainable
    gain_attained: np.ndarray  # K', the gain the certificate is measured against
    certificate: float  # constraint residual of (Atilde, P) against K'
    objective: float  # ||Atilde - Ahat||_F^2
    polish_iterations: int
    residuals: list[float] = field(default_factory=list, compare=False)

    def to_json(self) -> dict:
        """The attack's fields as every output file that holds an attack records them."""
        return {
            "Atilde": self.Atilde.tolist(),
            "gain_error": self.gain_error,
            "attack_cost": self.attack_cost,
            "converged": self.converged,
            "stationary": self.stationary,
            "floor": self.floor,
            "gain_attained": self.gain_attained.tolist(),
            "certificate": self.certificate,
            "objective": self.objective,
            "admm_iterations": len(self.residuals),
            "polish_iterations": self.polish_iterations,
            "admm_residuals": self.residuals,
        }


def a_step(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> np.ndarray:
    """Exact minimizer of the proximal A-subproblem, in P's eigenbasis.

    Only the first constraint block depends on Atilde, so the objective is
    ||Atilde - Ahat||_F^2 + (mu/2) ||Atilde^T P + P Atilde + C||_F^2 with
    C = P Bhat Ktarget + Qhat + Z1/mu, solved in closed form by
    ``certify.planted``. A mu so large that its products overflow raises
    ``ValueError`` naming ``admm.mu``.
    """
    P = 0.5 * (state.P + state.P.T)
    C = P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    lam, V = np.linalg.eigh(P)
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, Y = planted(lam, V, spec.Ahat, C, cfg.mu)
    except FloatingPointError:
        raise ValueError(f"admm.mu = {cfg.mu:g} overflows the A-step; use a smaller mu") from None
    return V @ Y @ V.T


def p_step(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> np.ndarray:
    """The PSD projection of the stacked constraint objective's minimizer.

    Objective: g(P) = ||At^T P + P Ac + C1||_F^2 + ||Bhat^T P + C2||_F^2
    over symmetric P, with Ac = Atilde + Bhat Ktarget. In P's coordinates c
    in the orthonormal ``linalg.sym_basis`` it is ||D c - rhs||^2. One R-only
    QR of [D | rhs] gives the k x k triangle Rd and q = Q^T rhs, and the
    minimizer is c = Rd^-1 q; when Rd's diagonal shows D near rank deficient
    (``RANK_RTOL``) it is the SVD's minimum-norm solution of Rd c = q, which
    is D's. The QR stays because it is the cheap solve: at n = 10 it takes
    about a fifth of the time of ``np.linalg.lstsq`` on D. The minimizer's
    nearest PSD matrix is returned; it minimizes g over P >= 0 exactly when
    the minimizer is already PSD, and is a feasible approximation otherwise.
    """
    At = state.Atilde
    Ac = At + spec.Bhat @ spec.Ktarget
    C1 = spec.Qhat + state.Z1 / cfg.mu
    C2 = spec.Rhat @ spec.Ktarget + state.Z2 / cfg.mu
    basis = linalg.sym_basis(spec.n)
    k = len(basis)
    # column j: the column-major vec of both blocks of the map at basis[j]
    D = np.hstack([
        M.swapaxes(1, 2).reshape(k, -1) for M in (At.T @ basis + basis @ Ac, spec.Bhat.T @ basis)
    ]).T
    rhs = -np.concatenate([C1.flatten("F"), C2.flatten("F")])
    R = np.linalg.qr(np.column_stack([D, rhs]), mode="r")
    Rd, q = R[:k, :k], R[:k, k]
    d = np.abs(np.diag(Rd))
    if d.min() > RANK_RTOL * d.max():
        coef = np.linalg.solve(Rd, q)
    else:  # near rank deficient: the SVD's minimum-norm solution
        coef, *_ = np.linalg.lstsq(Rd, q, rcond=None)
    return linalg.psd_project(np.tensordot(coef, basis, 1))


def z_step(
    state: AdmmState, W1: np.ndarray, W2: np.ndarray, cfg: AdmmConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Dual ascent: Z <- Z + mu * W on the stacked constraint W = (W1, W2).

    W1, W2 are the ``constraint_blocks`` at the current (Atilde, P).
    """
    return state.Z1 + cfg.mu * W1, state.Z2 + cfg.mu * W2


def admm_iteration(state: AdmmState, spec: AttackSpec, cfg: AdmmConfig) -> float:
    """One A-, P- and Z-step on ``state``; returns the constraint residual.

    The residual is taken after the P-step and appended to
    ``state.residuals``. One that is not finite raises ``ConvergenceError``.
    """
    state.Atilde = a_step(state, spec, cfg)
    state.P = p_step(state, spec, cfg)
    W1, W2 = constraint_blocks(state.Atilde, state.P, spec)
    r = residual_norm(W1, W2)
    if not np.isfinite(r):
        raise ConvergenceError(
            f"constraint residual {r} at iteration {state.iter + 1} is not finite"
        )
    state.Z1, state.Z2 = z_step(state, W1, W2, cfg)
    state.iter += 1
    state.residuals.append(r)
    return r


def admm_solve(spec: AttackSpec, cfg: AdmmConfig | None = None) -> AdmmState:
    """ADMM iterations until a certified point, or ``cfg.n_iter`` of them.

    Solves the spec with Qhat and Rhat divided by sigma (as is if sigma = 0;
    one that overflows raises ``ValueError``) and returns its P times sigma.
    Starts from Atilde = Ahat with P at the nominal Riccati solution (the
    zero-attack fixed point: if Ktarget already is the nominal gain the
    first iteration terminates with Atilde = Ahat exactly). ADMM stops when
    its residual is within ``PRIMAL_TOL``, or at iteration ``POLISH_AT`` if
    the ``polish`` tried there, once, is certified, and then holds the
    polished point. ``converged``: the returned point's residual against K'
    is within ``PRIMAL_TOL``.
    """
    cfg = cfg or AdmmConfig()
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = residual_norm(spec.Qhat, spec.Rhat @ spec.Ktarget) or 1.0
    if not math.isfinite(sigma):
        raise ValueError("the attack's constraint scale ||(Qhat, Rhat Ktarget)||_F overflows; "
                         "rescale the costs or the target")
    spec = replace(spec, Qhat=spec.Qhat / sigma, Rhat=spec.Rhat / sigma)
    try:
        P0 = care_solve(spec.Ahat, spec.Bhat, spec.Qhat, spec.Rhat).P
    except (ConvergenceError, StabilityError):
        P0 = np.eye(n)
    state = AdmmState(
        Atilde=spec.Ahat.copy(),
        P=P0,
        Z1=np.zeros((n, n)),
        Z2=np.zeros((spec.m, n)),
        attainable=gain_slice(spec),
    )
    while state.iter < cfg.n_iter:
        if admm_iteration(state, spec, cfg) <= PRIMAL_TOL:
            break
        if state.iter == POLISH_AT:
            polished = polish(spec, state.P, state.attainable)
            if polished is not None and polished.certificate <= PRIMAL_TOL:
                state.Atilde, state.P = polished.Atilde, polished.P
                state.polish_iter, state.stationary = polished.iterations, polished.stationary
                break
    W1, W2 = constraint_blocks(state.Atilde, state.P, spec, state.attainable.gain)
    state.certificate = residual_norm(W1, W2)
    state.converged = state.certificate <= PRIMAL_TOL
    state.P = sigma * state.P
    return state


def generate_poisoned(atilde, bhat, d: BatchDataset) -> BatchDataset:
    """Replace the states of ``d`` with the trajectory of (atilde, bhat).

    The planted system is discretized exactly (same ZOH, same dt) and driven
    by the original input sequence from the original initial state; inputs
    and costs are copied through untouched. Planted dynamics whose states
    overflow raise ``ValueError``.
    """
    atilde = linalg.as_matrix(atilde, "atilde", (d.n, d.n))
    bhat = linalg.as_matrix(bhat, "bhat", (d.n, d.m))
    F, G = linalg.zoh_pair(atilde, bhat, d.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # BatchDataset refuses overflow
        xs = linalg.rollout(F, d.xs[0], d.N - 1, d.us[:-1] @ G.T)
    return BatchDataset(xs=xs, us=d.us.copy(), cs=d.cs.copy(), dt=d.dt)


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

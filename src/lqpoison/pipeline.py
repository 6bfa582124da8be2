"""End-to-end scenario orchestration.

A scenario run produces the full story: collect clean data, emulate the
learner on it (identification + Riccati solve with the true cost weights),
synthesize the attack, re-run the learner on the poisoned data, and compare
closed-loop behaviour of both learned gains on the true plant. Results are
collected in a ``ScenarioReport`` and written as JSON plus plot-ready CSVs.

Closed-loop rollouts advance in blocks: with M = F + G K, the next
``ROLLOUT_BLOCK`` states after x_k are M^1 x_k ... M^b x_k, taken from a
precomputed table of powers in one batched matmul. The divergence cut is
still found at the exact step.

The report JSON is byte-deterministic for a fixed config and seed; wall
clock timings go to a separate ``timings.json`` sidecar so reruns produce
identical reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import (
    BatchDataset,
    ExcitationPolicy,
    indexed_csv_lines,
    simulate_zoh,
    write_atomic,
    write_json,
)
from .lq import LQSystem, RiccatiSolution, care_solve, lqr_gain
from .poison import (
    AdmmConfig,
    AttackResult,
    AttackSpec,
    admm_solve,
    attack_cost,
    generate_poisoned,
)
from .sysid import SysIdEstimate, identify

DIVERGENCE_NORM = 1e9
ROLLOUT_BLOCK = 256  # closed-loop steps advanced per batched matmul
SETTLE_FRAC = 0.05  # settled once ||x|| stays below this fraction of ||x0||


@dataclass(frozen=True)
class Scenario:
    system: LQSystem
    excitation: ExcitationPolicy
    N: int
    Ktarget: np.ndarray
    admm: AdmmConfig = AdmmConfig()
    horizon: int = 1000

    def __post_init__(self):
        if self.N < self.system.n + self.system.m + 1:
            raise ValueError(
                f"N={self.N} too small for identification "
                f"(need {self.system.n + self.system.m + 1})"
            )
        object.__setattr__(
            self, "Ktarget", linalg.as_matrix(self.Ktarget, "Ktarget")
        )


@dataclass(frozen=True)
class ClosedLoopResult:
    """Trajectory of the true plant under a fixed gain, with Riemann cost."""

    states: np.ndarray  # (steps+1, n), truncated early when diverged
    cost: float
    diverged: bool


@dataclass
class ScenarioReport:
    name: str
    Kstar: np.ndarray | None = None
    Khat_clean: np.ndarray | None = None
    Atilde: np.ndarray | None = None
    Khat_poisoned: np.ndarray | None = None
    Ktarget: np.ndarray | None = None
    gain_error_to_target: float | None = None
    attack_cost: float | None = None
    attack_cost_series: np.ndarray | None = None
    converged: bool = False
    admm_residuals: list[float] = field(default_factory=list)
    clean_trajectory: np.ndarray | None = None
    poisoned_trajectory: np.ndarray | None = None
    clean_cost: float | None = None
    poisoned_cost: float | None = None
    timings: dict[str, float] = field(default_factory=dict)
    errors: dict[str, Exception] = field(default_factory=dict)  # stage -> what it raised


def run_learner(d: BatchDataset, Q, R) -> tuple[SysIdEstimate, RiccatiSolution]:
    """Emulate the victim: identify (A, B) from data, then solve for the gain.

    The learner is assumed to know the true cost weights, so only the
    dynamics come from data.
    """
    est = identify(d)
    sol = care_solve(est.Ahat, est.Bhat, Q, R)
    return est, sol


def run_attack(
    d: BatchDataset, Ktarget, cfg: AdmmConfig | None = None
) -> AttackResult:
    """Full attacker chain on a clean dataset.

    Identifies the dynamics and the cost weights from the data, solves for
    the planted Atilde, and rewrites the state column. A run that stalls
    above the primal tolerance still returns (converged=False) so callers
    can inspect the near-miss.
    """
    cfg = cfg or AdmmConfig()
    est = identify(d, with_qr=True)
    spec = AttackSpec(
        Ahat=est.Ahat, Bhat=est.Bhat, Qhat=est.Qhat, Rhat=est.Rhat, Ktarget=Ktarget
    )
    state = admm_solve(spec, cfg)
    poisoned = generate_poisoned(state.Atilde, est.Bhat, d)
    total, series = attack_cost(d, poisoned)
    gain_err = float(
        np.linalg.norm(lqr_gain(state.P, spec.Bhat, spec.Rhat) - spec.Ktarget, "fro")
    )
    return AttackResult(
        Atilde=state.Atilde,
        P=state.P,
        gain_error=gain_err,
        poisoned=poisoned,
        attack_cost=total,
        attack_cost_series=series,
        converged=state.converged,
        residuals=state.residuals,
    )


def evaluate_closed_loop(sys: LQSystem, K, horizon: int) -> ClosedLoopResult:
    """Simulate the true plant under u = K x with ZOH at the plant's dt.

    The states x_{k+1} = M x_k, M = F + G K, are filled in blocks of up to
    ``ROLLOUT_BLOCK`` rows: each block is M^1..M^c applied to the block's
    first state in one batched matmul. The cost is the Riemann sum of
    (x^T Q x + u^T R u) dt over every state but the last.

    An unstable loop is truncated at the first state whose norm is not
    within ``DIVERGENCE_NORM`` (a non-finite norm counts as past it); that
    state is kept and the run is flagged, not raised: diverging is a
    legitimate outcome the caller wants to see.
    """
    K = linalg.as_matrix(K, "K")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    M = F + G @ K
    states = np.empty((horizon + 1, sys.n))
    states[0] = sys.x0
    diverged = False
    # Far powers of a strongly unstable M may overflow. Blocks use only the
    # leading finite powers, so inf * 0 cannot put a NaN in a row the
    # step-by-step recursion keeps finite; rows past the cut are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        pows = np.empty((min(ROLLOUT_BLOCK, horizon), sys.n, sys.n))
        power = np.eye(sys.n)
        for p in pows:  # pows[j] = M^(j+1)
            power = np.matmul(M, power, out=p)
        finite = np.isfinite(pows).all(axis=(1, 2))
        b = max(1, len(pows) if finite.all() else int(np.argmin(finite)))
        for k in range(0, horizon, b):
            c = min(b, horizon - k)
            block = states[k + 1 : k + 1 + c]
            np.matmul(pows[:c], states[k], out=block)
            within = np.linalg.norm(block, axis=1) <= DIVERGENCE_NORM
            if not within.all():
                states = states[: k + 2 + int(np.argmin(within))].copy()
                diverged = True
                break
    X = states[:-1]
    U = X @ K.T
    stage = np.einsum("ki,ki->k", X @ sys.Q, X) + np.einsum("ki,ki->k", U @ sys.R, U)
    cost = float(np.sum(stage) * sys.dt)
    return ClosedLoopResult(states=states, cost=cost, diverged=diverged)


def settling_step(states: np.ndarray) -> int | None:
    """First step index after which ||x|| stays below SETTLE_FRAC * ||x0||, if any."""
    norms = np.linalg.norm(states, axis=1)
    tail_max = np.maximum.accumulate(norms[::-1])[::-1]  # max of norms[k:]
    settled = np.flatnonzero(tail_max < SETTLE_FRAC * norms[0])
    return int(settled[0]) if settled.size else None


def run_scenario(s: Scenario, name: str = "scenario") -> ScenarioReport:
    """Run all stages; a stage failure is recorded and truncates the run."""
    report = ScenarioReport(name=name, Ktarget=s.Ktarget)
    sys = s.system

    def stage(label, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # recorded; later stages are skipped
            report.errors[label] = e
            return None
        finally:
            report.timings[label] = time.perf_counter() - t0
        return out

    sol_true = stage("optimal_gain", lambda: care_solve(sys.A, sys.B, sys.Q, sys.R))
    if sol_true is not None:
        report.Kstar = sol_true.K

    d = stage("simulate", lambda: simulate_zoh(sys, s.excitation, s.N))
    if d is None:
        return report

    clean = stage("learn_clean", lambda: run_learner(d, sys.Q, sys.R))
    if clean is None:
        return report
    report.Khat_clean = clean[1].K

    attack = stage("attack", lambda: run_attack(d, s.Ktarget, s.admm))
    if attack is None:
        return report
    report.Atilde = attack.Atilde
    report.converged = attack.converged
    report.admm_residuals = list(attack.residuals)
    report.attack_cost = attack.attack_cost
    report.attack_cost_series = attack.attack_cost_series

    poisoned = stage(
        "learn_poisoned", lambda: run_learner(attack.poisoned, sys.Q, sys.R)
    )
    if poisoned is None:
        return report
    report.Khat_poisoned = poisoned[1].K
    report.gain_error_to_target = float(
        np.linalg.norm(report.Khat_poisoned - s.Ktarget, "fro")
    )

    evals = stage(
        "evaluate",
        lambda: (
            evaluate_closed_loop(sys, report.Khat_clean, s.horizon),
            evaluate_closed_loop(sys, report.Khat_poisoned, s.horizon),
        ),
    )
    if evals is not None:
        report.clean_trajectory = evals[0].states
        report.clean_cost = evals[0].cost
        report.poisoned_trajectory = evals[1].states
        report.poisoned_cost = evals[1].cost
    return report


def _mat(M) -> list | None:
    return None if M is None else np.asarray(M).tolist()


def trajectory_write(path: str, states: np.ndarray, dt: float) -> None:
    """Write a rollout as CSV (header step,t,x*), atomically."""
    header = ["step", "t"] + [f"x{i}" for i in range(states.shape[1])]
    write_atomic(path, indexed_csv_lines(header, dt, states))


def report_write(report: ScenarioReport, outdir: str, dt: float) -> None:
    """Write report.json, timings.json, and the plot-ready CSV series."""
    os.makedirs(outdir, exist_ok=True)
    doc = {
        "scenario": report.name,
        "Kstar": _mat(report.Kstar),
        "Khat_clean": _mat(report.Khat_clean),
        "Atilde": _mat(report.Atilde),
        "Khat_poisoned": _mat(report.Khat_poisoned),
        "Ktarget": _mat(report.Ktarget),
        "gain_error_to_target": report.gain_error_to_target,
        "attack_cost": report.attack_cost,
        "converged": report.converged,
        "admm_residuals": report.admm_residuals,
    }
    if report.errors:
        doc["errors"] = {
            label: f"{type(e).__name__}: {e}" for label, e in report.errors.items()
        }
    write_json(os.path.join(outdir, "report.json"), doc)
    write_json(os.path.join(outdir, "timings.json"), {"timings_s": report.timings})
    if report.clean_trajectory is not None:
        trajectory_write(
            os.path.join(outdir, "clean_trajectory.csv"), report.clean_trajectory, dt
        )
    if report.poisoned_trajectory is not None:
        trajectory_write(
            os.path.join(outdir, "poisoned_trajectory.csv"),
            report.poisoned_trajectory,
            dt,
        )
    if report.attack_cost_series is not None:
        series = report.attack_cost_series.tolist()
        write_atomic(
            os.path.join(outdir, "attack_cost.csv"),
            ["step,cumulative_cost\n"] + [f"{k},{v!r}\n" for k, v in enumerate(series)],
        )

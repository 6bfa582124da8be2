"""End-to-end scenario orchestration.

A scenario run produces the full story: collect clean data, emulate the
learner on it (identification + Riccati solve with the true cost weights),
synthesize the attack, re-run the learner on the poisoned data, and compare
closed-loop behaviour of both learned gains on the true plant. Results are
kept in a ``ScenarioReport`` as each stage returned them, under the stage's
label, and written as JSON plus plot-ready CSVs: both trajectories and the
attack's cumulative cost, each through ``data.indexed_csv_lines``, so every
float in them is ``repr``'s text.

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
    _shown,
    indexed_csv_lines,
    simulate_zoh,
    write_atomic,
    write_json,
)
from .lq import LQSystem, RiccatiSolution, care_solve, lqr_gain, require_plant_kept
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
        n, m = self.system.n, self.system.m
        if self.N < n + m + 1:
            raise ValueError(f"N={_shown(int(self.N))} too small for identification "
                             f"(need {n + m + 1})")
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {_shown(int(self.horizon))}")
        object.__setattr__(self, "Ktarget", linalg.as_matrix(self.Ktarget, "Ktarget", (m, n)))
        if self.excitation.kind == "gain-plus-dither":
            linalg.as_matrix(self.excitation.gain, "excitation gain", (m, n))


@dataclass(frozen=True)
class ClosedLoopResult:
    """Trajectory of the true plant under a fixed gain, with Riemann cost."""

    states: np.ndarray  # (steps+1, n), truncated early when diverged
    cost: float
    diverged: bool


@dataclass
class ScenarioReport:
    """Each stage's result under its label; None if the stage failed or never ran."""

    name: str
    Ktarget: np.ndarray
    optimal_gain: RiccatiSolution | None = None
    learn_clean: tuple[SysIdEstimate, RiccatiSolution] | None = None
    attack: AttackResult | None = None
    learn_poisoned: tuple[SysIdEstimate, RiccatiSolution] | None = None
    evaluate: tuple[ClosedLoopResult, ClosedLoopResult] | None = None
    checks: list[tuple] | None = None  # (label, ok, detail, got, expected) per gate, if run
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
    the planted Atilde, and rewrites the state column. A run that ends
    without a certified point still returns (converged=False) so callers
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
        floor=state.attainable.floor,
        gain_attained=state.attainable.gain,
        certificate=state.certificate,
        objective=float(np.sum((state.Atilde - spec.Ahat) ** 2)),
        polish_iterations=state.polish_iter,
        residuals=state.residuals,
    )


def evaluate_closed_loop(sys: LQSystem, K, horizon: int) -> ClosedLoopResult:
    """Simulate the true plant under u = K x with ZOH at the plant's dt.

    The states x_{k+1} = M x_k, M = F + G K, come from ``linalg.rollout``.
    The cost is the Riemann sum of (x^T Q x + u^T R u) dt over every state
    but the last.

    An unstable loop is truncated at the first state whose norm is not
    within ``DIVERGENCE_NORM`` (a non-finite norm counts as past it); that
    state is kept and the run is flagged, not raised: diverging is a
    legitimate outcome the caller wants to see. A gain so large that M
    loses the plant's step at a kept state is refused
    (``lq.require_plant_kept``).
    """
    K = linalg.as_matrix(K, "K", (sys.m, sys.n))
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    GK = G @ K
    # Rows past the divergence cut may overflow; they are discarded.
    with np.errstate(over="ignore", invalid="ignore"):
        with linalg.sized_by("horizon"):
            states = linalg.rollout(F + GK, sys.x0, horizon)
        within = np.linalg.norm(states[1:], axis=1) <= DIVERGENCE_NORM
    diverged = not within.all()
    if diverged:
        states = states[: int(np.argmin(within)) + 2].copy()
    X = states[:-1]
    require_plant_kept(F, GK, X, "gain")
    cost = float(np.sum(sys.stage_costs(X, X @ K.T)) * sys.dt)
    return ClosedLoopResult(states=states, cost=cost, diverged=diverged)


def settling_step(states: np.ndarray) -> int | None:
    """First step index after which ||x|| stays below SETTLE_FRAC * ||x0||, if any."""
    norms = np.linalg.norm(states, axis=1)
    tail_max = np.maximum.accumulate(norms[::-1])[::-1]  # max of norms[k:]
    settled = np.flatnonzero(tail_max < SETTLE_FRAC * norms[0])
    return int(settled[0]) if settled.size else None


def run_scenario(s: Scenario, name: str = "scenario") -> ScenarioReport:
    """Run all stages; a failure is recorded and skips the stages that need its result."""
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

    report.optimal_gain = stage("optimal_gain", lambda: care_solve(sys.A, sys.B, sys.Q, sys.R))
    d = stage("simulate", lambda: simulate_zoh(sys, s.excitation, s.N))
    if d is not None:
        report.learn_clean = stage("learn_clean", lambda: run_learner(d, sys.Q, sys.R))
    if report.learn_clean is not None:
        report.attack = stage("attack", lambda: run_attack(d, s.Ktarget, s.admm))
    if report.attack is not None:
        report.learn_poisoned = stage(
            "learn_poisoned", lambda: run_learner(report.attack.poisoned, sys.Q, sys.R)
        )
    if report.learn_poisoned is not None:
        gains = (report.learn_clean[1].K, report.learn_poisoned[1].K)
        report.evaluate = stage(
            "evaluate", lambda: tuple(evaluate_closed_loop(sys, K, s.horizon) for K in gains)
        )
    return report


def trajectory_write(path: str, states: np.ndarray, dt: float) -> None:
    """Write a rollout as CSV (header step,t,x*), atomically."""
    header = ["step", "t"] + [f"x{i}" for i in range(states.shape[1])]
    write_atomic(path, indexed_csv_lines(header, dt, states))


def report_write(report: ScenarioReport, outdir: str, dt: float) -> None:
    """Write report.json, timings.json, and the plot-ready CSV series.

    report.json holds ``scenario``, ``Ktarget`` and the keys of each result
    the report has; a stage that failed or never ran adds none. The series
    are the two trajectories (``step,t,x*``) and ``attack_cost.csv``
    (``step,cumulative_cost``, no time column).
    """
    os.makedirs(outdir, exist_ok=True)
    doc = {"scenario": report.name, "Ktarget": report.Ktarget.tolist()}
    if report.optimal_gain is not None:
        doc["Kstar"] = report.optimal_gain.K.tolist()
    if report.learn_clean is not None:
        doc["Khat_clean"] = report.learn_clean[1].K.tolist()
    attack = report.attack
    if attack is not None:
        doc.update(attack.to_json())
    if report.learn_poisoned is not None:
        Khat = report.learn_poisoned[1].K
        doc["Khat_poisoned"] = Khat.tolist()
        doc["gain_error_to_target"] = float(np.linalg.norm(Khat - report.Ktarget, "fro"))
    if report.checks is not None:
        doc["checks"] = [{"label": label, "ok": ok, "detail": detail}
                         for label, ok, detail, *_ in report.checks]
    if report.errors:
        doc["errors"] = {
            label: f"{type(e).__name__}: {e}" for label, e in report.errors.items()
        }
    write_json(os.path.join(outdir, "report.json"), doc)
    write_json(os.path.join(outdir, "timings.json"), {"timings_s": report.timings})
    if report.evaluate is not None:
        for label, res in zip(("clean", "poisoned"), report.evaluate):
            trajectory_write(os.path.join(outdir, f"{label}_trajectory.csv"), res.states, dt)
    if attack is not None:
        series = attack.attack_cost_series[:, None]
        write_atomic(os.path.join(outdir, "attack_cost.csv"),
                     indexed_csv_lines(["step", "cumulative_cost"], None, series))

"""Batch-learned LQ control and minimally perturbed data-poisoning attacks.

The package has two halves. The victim side samples a continuous-time LQ
plant under zero-order hold, identifies the dynamics from the batch, and
synthesizes an LQR gain. The attacker side rewrites the recorded states so
that the very same learning pipeline converges to a target gain of the
attacker's choosing, while perturbing the recorded states as little as
possible (an ADMM scheme splits the bilinear Riccati-feasibility
constraint across alternating convex subproblems).
"""

from .data import BatchDataset, ExcitationPolicy, dataset_read, dataset_write, simulate_zoh
from .lq import LQSystem, RiccatiSolution, care_solve, is_stabilizing, lqr_gain
from .pipeline import (
    ClosedLoopResult,
    Scenario,
    ScenarioReport,
    evaluate_closed_loop,
    run_attack,
    run_learner,
    run_scenario,
    settling_step,
)
from .poison import (
    AdmmConfig,
    AdmmState,
    AttackResult,
    AttackSpec,
    admm_solve,
    attack_cost,
    generate_poisoned,
)
from .sysid import DiscreteModel, SysIdEstimate, estimate_fg, estimate_qr, identify, log_indirect

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "AttackResult",
    "AttackSpec",
    "BatchDataset",
    "ClosedLoopResult",
    "DiscreteModel",
    "ExcitationPolicy",
    "LQSystem",
    "RiccatiSolution",
    "Scenario",
    "ScenarioReport",
    "SysIdEstimate",
    "admm_solve",
    "attack_cost",
    "care_solve",
    "dataset_read",
    "dataset_write",
    "estimate_fg",
    "estimate_qr",
    "evaluate_closed_loop",
    "generate_poisoned",
    "identify",
    "is_stabilizing",
    "log_indirect",
    "lqr_gain",
    "run_attack",
    "run_learner",
    "run_scenario",
    "settling_step",
    "simulate_zoh",
]

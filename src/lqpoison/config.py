"""Scenario configuration files and the bundled case studies.

A scenario config is a JSON document with explicit matrices (arrays of row
arrays), a single seed that drives all randomness, and the solver knobs:

    {
      "name": "case1",
      "system": {"A": [[...]], "B": [[...]], "Q": [[...]], "R": [[...]],
                 "x0": [...], "dt": 0.01},
      "excitation": {"kind": "iid-uniform", "amplitude": 1.0},
      "N": 500,
      "seed": 42,
      "Ktarget": [[...]],
      "admm": {"mu": 100.0, "n_iter": 500},
      "horizon": 1000
    }

Only ``system``, ``N`` and ``Ktarget`` are required. An absent optional
field takes the default of the dataclass it fills, and unknown keys are
ignored.

Two configs ship with the package: ``case1`` (a 4-state plant with two
inputs and an unstable open loop) and ``case2`` (a quarter-car active
suspension driven by the actuator force). The suspension matrices can also
be rebuilt from the physical constants, which the reproduction gates
(``reproduction_checks``) use to cross-check the bundled target gain.
"""

from __future__ import annotations

import dataclasses
import json
from importlib import resources

import numpy as np

from .data import ExcitationPolicy, json_array, json_int, json_number, read_json_object
from .errors import ConfigError, LearnabilityError
from .lq import LQSystem, care_solve
from .pipeline import Scenario, ScenarioReport, settling_step
from .poison import AdmmConfig

BUNDLED_CASES = ("case1", "case2")

# Reference gains the bundled case studies are expected to reproduce
# (2-decimal reference values; see tests/test_acceptance.py for tolerances).
CASE1_KSTAR_REF = np.array(
    [[-2.87, -0.38, -0.34, -1.24], [4.32, 1.14, 3.63, 4.71]]
)
CASE2_KSTAR_REF = np.array([[-0.31, -2.57, 30.6, 2.22]])

# Quarter-car suspension constants shared by case2 and its cross-check.
SUSPENSION_BODY_MASS = 300.0  # kg
SUSPENSION_WHEEL_MASS = 60.0  # kg
SUSPENSION_DAMPER = 1000.0  # N/(m/s)
SUSPENSION_SPRING = 16000.0  # N/m
SUSPENSION_TIRE_STIFFNESS = 190000.0  # N/m
CASE2_ATTACK_SPRING = 2000.0  # N/m, the softened spring the attacker plants


def suspension_matrices(spring: float = SUSPENSION_SPRING) -> tuple[np.ndarray, np.ndarray]:
    """State-space (A, B) of the quarter-car model in kN actuator units.

    State order: body travel, body velocity, wheel travel, wheel velocity.
    Only the spring varies; the other constants are the ``SUSPENSION_*`` values.
    """
    mb, mw = SUSPENSION_BODY_MASS, SUSPENSION_WHEEL_MASS
    bs, ks, kt = SUSPENSION_DAMPER, spring, SUSPENSION_TIRE_STIFFNESS
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-ks / mb, -bs / mb, ks / mb, bs / mb],
            [0.0, 0.0, 0.0, 1.0],
            [ks / mw, bs / mw, (-ks - kt) / mw, -bs / mw],
        ]
    )
    B = np.array([[0.0], [1e3 / mb], [0.0], [-1e3 / mw]])
    return A, B


def reproduction_checks(case: str, report: ScenarioReport, scenario: Scenario) -> list[tuple]:
    """The bundled ``case``'s gates on a report that has every stage's result.

    One (label, ok, detail, got, expected) per gate: ``got`` and ``expected``
    are the gains the gate compares element-wise, or None for the settling gate.
    """
    Khat, Kt = report.learn_poisoned[1].K, report.Ktarget
    if case == "case1":
        dev = float(np.max(np.abs(Khat - Kt)))
        cs, ps = (settling_step(res.states) for res in report.evaluate)
        return [
            ("poisoned gain within 0.2 of target", dev <= 0.2, f"max |diff| {dev:.4f}", Khat, Kt),
            ("poisoned loop settles later than clean", cs is not None and (ps is None or ps > cs),
             f"clean {cs}, poisoned {'never' if ps is None else ps}", None, None),
        ]
    rel = float(np.max(np.abs((Khat - Kt) / Kt)))
    A_phys, B_phys = suspension_matrices(spring=CASE2_ATTACK_SPRING)
    K_phys = care_solve(A_phys, B_phys, scenario.system.Q, scenario.system.R).K
    dev = float(np.max(np.abs(K_phys - Kt)))
    return [
        ("poisoned gain within 5% of target per element", rel <= 0.05,
         f"max rel {rel:.4%}", Khat, Kt),
        ("target gain consistent with rebuilt physics", dev <= 0.05,
         f"max |diff| {dev:.4f}", K_phys, Kt),
    ]


# JSON value -> dataclass field value, by the field's annotation.
_FROM_JSON = {
    "float": json_number,
    "int": json_int,
    "str": str,
    "np.ndarray": json_array,
    "np.ndarray | None": lambda v: None if v is None else json_array(v),
}


def _read(cls, doc, where: str | None, **built):
    """``cls`` from the JSON object ``doc`` plus the already-built fields ``built``.

    Only the fields ``doc`` has are passed, each converted by its annotation,
    so an absent field keeps its dataclass default; keys that are not fields
    are ignored. A value that does not convert is a ConfigError naming its
    field; one the dataclass refuses is a ConfigError naming the section
    ``where``. The learnability gate's LearnabilityError passes through.
    """
    if not isinstance(doc, dict):
        raise ConfigError("must be a JSON object", field=where)
    given = {}
    for f in dataclasses.fields(cls):
        if f.name in built:
            continue
        label = f"{where}.{f.name}" if where else f.name
        if f.name not in doc:
            if f.default is dataclasses.MISSING:
                raise ConfigError("missing required field", field=label)
            continue
        try:
            given[f.name] = _FROM_JSON[f.type](doc[f.name])
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e), field=label) from e
    try:
        return cls(**built, **given)
    except LearnabilityError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e


def scenario_from_dict(doc: dict) -> tuple[Scenario, str]:
    """Build a Scenario from a parsed config document; returns (scenario, name)."""
    # The one seed sits at the top level; absent, the policy's default applies.
    seed = _seed(doc.get("seed", ExcitationPolicy.seed))
    scenario = _read(
        Scenario,
        doc,
        None,
        system=_read(LQSystem, doc.get("system", {}), "system"),
        excitation=_read(ExcitationPolicy, doc.get("excitation", {}), "excitation", seed=seed),
        admm=_read(AdmmConfig, doc.get("admm", {}), "admm"),
    )
    return scenario, doc.get("name", "scenario")


def _seed(value) -> int:
    try:
        return json_int(value, minimum=0)
    except ValueError as e:
        raise ConfigError(str(e), field="seed") from e


def with_seed(scenario: Scenario, seed: int | None) -> Scenario:
    """``scenario`` with its seed replaced by ``seed``, unless that is None."""
    if seed is None:
        return scenario
    excitation = dataclasses.replace(scenario.excitation, seed=_seed(seed))
    return dataclasses.replace(scenario, excitation=excitation)


def load_scenario(path: str) -> tuple[Scenario, str]:
    return scenario_from_dict(read_json_object(path, ConfigError, "config"))


def load_bundled(case: str) -> tuple[Scenario, str]:
    if case not in BUNDLED_CASES:
        raise ConfigError(
            f"unknown case {case!r}; bundled cases: {', '.join(BUNDLED_CASES)}"
        )
    text = (
        resources.files("lqpoison").joinpath(f"scenarios/{case}.json").read_text()
    )
    return scenario_from_dict(json.loads(text))

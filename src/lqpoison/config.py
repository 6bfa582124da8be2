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
      "admm": {"mu": 10.0, "n_iter": 500, "primal_tol": 1e-6},
      "horizon": 1000
    }

Only ``system``, ``N`` and ``Ktarget`` are required. An absent optional
field takes the default of the dataclass it fills, and unknown keys are
ignored.

Two configs ship with the package: ``case1`` (a 4-state plant with two
inputs and an unstable open loop) and ``case2`` (a quarter-car active
suspension driven by the actuator force). The suspension matrices can also
be rebuilt from the physical constants, which the reproduction harness uses
to cross-check the bundled target gain.
"""

from __future__ import annotations

import dataclasses
import json
from importlib import resources

import numpy as np

from .data import ExcitationPolicy
from .errors import ConfigError, LearnabilityError
from .lq import LQSystem
from .pipeline import Scenario
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


# JSON value -> dataclass field value, by the field's annotation.
_FROM_JSON = {
    "float": float,
    "int": int,
    "str": str,
    "np.ndarray": lambda v: np.array(v, dtype=float),
    "np.ndarray | None": lambda v: None if v is None else np.array(v, dtype=float),
}


def _read(cls, doc, where: str | None, **built):
    """``cls`` from the JSON object ``doc`` plus the already-built fields ``built``.

    Only the fields ``doc`` has are passed, each converted by its annotation,
    so an absent field keeps its dataclass default; keys that are not fields
    are ignored. Errors are raised as a ConfigError naming the section
    ``where``; the learnability gate's LearnabilityError passes through.
    """
    if not isinstance(doc, dict):
        raise ConfigError("must be a JSON object", field=where)
    fields = [f for f in dataclasses.fields(cls) if f.name not in built]
    for f in fields:
        if f.name not in doc and f.default is dataclasses.MISSING:
            label = f"{where}.{f.name}" if where else f.name
            raise ConfigError("missing required field", field=label)
    try:
        given = {f.name: _FROM_JSON[f.type](doc[f.name]) for f in fields if f.name in doc}
        return cls(**built, **given)
    except LearnabilityError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e


def scenario_from_dict(doc: dict) -> tuple[Scenario, str]:
    """Build a Scenario from a parsed config document; returns (scenario, name)."""
    # The one seed sits at the top level; absent, the policy's default applies.
    seed = int(doc.get("seed", ExcitationPolicy.seed))
    scenario = _read(
        Scenario,
        doc,
        None,
        system=_read(LQSystem, doc.get("system", {}), "system"),
        excitation=_read(ExcitationPolicy, doc.get("excitation", {}), "excitation", seed=seed),
        admm=_read(AdmmConfig, doc.get("admm", {}), "admm"),
    )
    return scenario, doc.get("name", "scenario")


def load_scenario(path: str) -> tuple[Scenario, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return scenario_from_dict(doc)


def load_bundled(case: str) -> tuple[Scenario, str]:
    if case not in BUNDLED_CASES:
        raise ConfigError(
            f"unknown case {case!r}; bundled cases: {', '.join(BUNDLED_CASES)}"
        )
    text = (
        resources.files("lqpoison").joinpath(f"scenarios/{case}.json").read_text()
    )
    return scenario_from_dict(json.loads(text))

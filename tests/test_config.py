import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from lqpoison.config import (
    BUNDLED_CASES,
    CASE2_ATTACK_SPRING,
    load_bundled,
    scenario_from_dict,
    suspension_matrices,
)
from lqpoison.data import ExcitationPolicy, json_array, json_number
from lqpoison.errors import ConfigError
from lqpoison.lq import LQSystem
from lqpoison.pipeline import Scenario
from lqpoison.poison import AdmmConfig


def bundled_doc(case):
    return json.loads(
        resources.files("lqpoison").joinpath(f"scenarios/{case}.json").read_text()
    )


def fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_bundled_configs_round_trip(case):
    doc = bundled_doc(case)
    s, name = scenario_from_dict(doc)
    # every key of the bundled file is one the parser reads, not one it ignores
    assert set(doc) <= fields(Scenario) | {"name", "seed"}
    assert set(doc["system"]) <= fields(LQSystem)
    assert set(doc["excitation"]) <= fields(ExcitationPolicy) - {"seed"}  # read at the top level
    assert set(doc["admm"]) <= fields(AdmmConfig)
    assert name == doc["name"]
    for key in ("A", "B", "Q", "R", "x0"):
        np.testing.assert_array_equal(getattr(s.system, key), doc["system"][key])
    assert s.system.dt == doc["system"]["dt"]
    assert s.excitation.kind == doc["excitation"]["kind"]
    assert s.excitation.amplitude == doc["excitation"]["amplitude"]
    assert s.excitation.gain is None
    assert s.excitation.seed == doc["seed"]
    assert s.N == doc["N"]
    np.testing.assert_array_equal(s.Ktarget, doc["Ktarget"])
    assert s.admm.mu == doc["admm"]["mu"]
    assert s.admm.n_iter == doc["admm"]["n_iter"]
    assert s.horizon == doc["horizon"]


def test_case2_matrices_match_physics(case2):
    A_phys, B_phys = suspension_matrices()
    # the bundled A is quoted at two decimals; B is exact
    assert np.max(np.abs(case2.system.A - A_phys)) <= 0.005
    np.testing.assert_array_equal(case2.system.B, B_phys)


def test_attack_spring_softer_than_nominal():
    A_soft, _ = suspension_matrices(spring=CASE2_ATTACK_SPRING)
    A_nom, _ = suspension_matrices()
    assert A_soft[1, 0] > A_nom[1, 0]  # weaker spring pulls less on the body


def test_unknown_bundled_case():
    with pytest.raises(ConfigError):
        load_bundled("case3")


def test_missing_field_names_it():
    with pytest.raises(ConfigError) as ei:
        scenario_from_dict({"system": {}})
    assert "system.A" in str(ei.value)


def test_excitation_gain_round_trips():
    doc = bundled_doc("case1")
    gain = np.ones((2, 4))
    doc["excitation"] = {"kind": "gain-plus-dither", "amplitude": 0.5,
                         "gain": gain.tolist()}
    doc["seed"] = 7
    back, _ = scenario_from_dict(doc)
    assert back.excitation.kind == "gain-plus-dither"
    assert back.excitation.amplitude == 0.5
    np.testing.assert_array_equal(back.excitation.gain, gain)
    assert back.excitation.seed == 7


def test_absent_fields_take_dataclass_defaults_and_unknown_keys_are_ignored():
    doc = bundled_doc("case1")
    for key in ("excitation", "admm", "seed", "horizon"):
        del doc[key]
    s, _ = scenario_from_dict(doc)
    assert s.admm == AdmmConfig()
    assert s.excitation == ExcitationPolicy()
    assert s.horizon == Scenario.horizon

    doc = bundled_doc("case1")
    doc["admm"]["inner_tol"] = 1e-8  # keys older configs carry
    doc["admm"]["primal_tol"] = 1e-6
    doc["excitation"]["note"] = "unused"
    doc["extra"] = {}
    s, _ = scenario_from_dict(doc)
    assert s.admm == AdmmConfig(mu=100.0, n_iter=500)


@pytest.mark.parametrize("field,value", [
    ("mu", float("nan")), ("mu", float("inf")), ("n_iter", 0),
])
def test_admm_field_check_names_section_and_field(field, value):
    doc = bundled_doc("case1")
    doc["admm"][field] = value
    with pytest.raises(ConfigError, match=f"^admm: {field} must be"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [1.5, 500.0, True, "7"])
@pytest.mark.parametrize("path", [("N",), ("horizon",), ("admm", "n_iter"), ("seed",)])
def test_integer_fields_take_only_json_integers(path, value):
    doc = bundled_doc("case1")
    *section, key = path
    (doc[section[0]] if section else doc)[key] = value
    with pytest.raises(ConfigError, match=f"^{'.'.join(path)}: must be an integer") as ei:
        scenario_from_dict(doc)
    assert ei.value.field == ".".join(path)


@pytest.mark.parametrize("value", [True, "0.01", None, [1.0]])
@pytest.mark.parametrize("path", [("system", "dt"), ("excitation", "amplitude"),
                                  ("admm", "mu")])
def test_float_fields_take_only_json_numbers(path, value):
    doc = bundled_doc("case1")
    doc[path[0]][path[1]] = value
    with pytest.raises(ConfigError, match=f"^{'.'.join(path)}: must be a number") as ei:
        scenario_from_dict(doc)
    assert ei.value.field == ".".join(path)


@pytest.mark.parametrize("value", [True, "1", None])
@pytest.mark.parametrize("path", [("system", "A"), ("system", "B"), ("system", "Q"),
                                  ("system", "R"), ("system", "x0"), ("Ktarget",),
                                  ("excitation", "gain")])
def test_matrix_entries_take_only_json_numbers(path, value):
    doc = bundled_doc("case1")
    doc["excitation"].update(kind="gain-plus-dither", gain=np.zeros((2, 4)).tolist())
    *section, key = path
    parent = doc[section[0]] if section else doc
    entries = parent[key]
    if isinstance(entries[-1], list):
        entries = entries[-1]
    entries[-1] = value
    with pytest.raises(ConfigError, match=f"^{'.'.join(path)}: must be a number"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [0, 3, -2.5, 1e300])
def test_json_number_takes_numbers(value):
    assert json_number(value) == value and type(json_number(value)) is float


@pytest.mark.parametrize("value", [False, "1", None, [1.0], {"v": 1.0}, 10**400])
def test_json_number_refuses_everything_else(value):
    with pytest.raises(ValueError, match="^must be a number"):
        json_number(value)


@pytest.mark.parametrize("depth", [3, 100_000])
def test_json_array_walks_at_most_two_levels(depth):
    value = 1.0
    for _ in range(depth):  # built in a loop: no recursion here either
        value = [value]
    with pytest.raises(ValueError, match="^must be a vector or a matrix, got arrays nested"):
        json_array(value)
    assert json_array([[1.0, 2.0]]).shape == (1, 2) and json_array([1.0]).shape == (1,)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_x0_names_system(value):
    doc = bundled_doc("case1")
    doc["system"]["x0"][0] = value
    with pytest.raises(ConfigError, match="^system: x0 has non-finite entries"):
        scenario_from_dict(doc)


def test_negative_seed_rejected():
    doc = bundled_doc("case1")
    doc["seed"] = -3
    with pytest.raises(ConfigError, match="^seed: must be at least 0, got -3"):
        scenario_from_dict(doc)

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
from lqpoison.data import ExcitationPolicy
from lqpoison.errors import ConfigError
from lqpoison.pipeline import Scenario
from lqpoison.poison import AdmmConfig


def bundled_doc(case):
    return json.loads(
        resources.files("lqpoison").joinpath(f"scenarios/{case}.json").read_text()
    )


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_bundled_configs_round_trip(case):
    doc = bundled_doc(case)
    s, name = scenario_from_dict(doc)
    # every key of the bundled file is one the parser reads
    assert set(doc) == {"name", "system", "excitation", "N", "seed", "Ktarget",
                        "admm", "horizon"}
    assert set(doc["system"]) == {"A", "B", "Q", "R", "x0", "dt"}
    assert set(doc["excitation"]) == {"kind", "amplitude"}
    assert set(doc["admm"]) == {"mu", "n_iter", "primal_tol"}
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
    assert s.admm.primal_tol == doc["admm"]["primal_tol"]
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
    doc["admm"]["inner_tol"] = 1e-8  # a key older configs carry
    doc["excitation"]["note"] = "unused"
    doc["extra"] = {}
    s, _ = scenario_from_dict(doc)
    assert s.admm == AdmmConfig(mu=10.0, n_iter=500, primal_tol=1e-6)


@pytest.mark.parametrize("field,value", [("mu", float("nan")), ("primal_tol", -1.0)])
def test_admm_field_check_names_section_and_field(field, value):
    doc = bundled_doc("case1")
    doc["admm"][field] = value
    with pytest.raises(ConfigError, match=f"^admm: {field} must be"):
        scenario_from_dict(doc)

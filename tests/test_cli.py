import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lqpoison.data import BatchDataset, dataset_read, dataset_write
from lqpoison.pipeline import run_learner


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lqpoison", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def case1_config(tmp_path_factory):
    from importlib import resources

    path = tmp_path_factory.mktemp("cfg") / "case1.json"
    path.write_text(
        resources.files("lqpoison").joinpath("scenarios/case1.json").read_text()
    )
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, case1_config):
    d = tmp_path_factory.mktemp("sim")
    out = str(d / "data.csv")
    res = cli("simulate", "--config", case1_config, "--out", out)
    assert res.returncode == 0, res.stderr
    return d


def test_version():
    res = cli("--version")
    assert res.returncode == 0
    assert "lqpoison" in res.stdout


def test_simulate_writes_n_rows(sim_dir):
    lines = (sim_dir / "data.csv").read_text().splitlines()
    assert len(lines) == 501  # header + N
    assert (sim_dir / "data.meta.json").exists()


def test_simulate_bad_dt_exit_2(tmp_path, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    doc["system"]["dt"] = -0.5
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    res = cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 2
    assert "dt" in res.stderr


def test_simulate_learnability_exit_3(tmp_path, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    doc["system"]["A"] = (2.0 * np.eye(4)).tolist()
    doc["system"]["dt"] = 1.0
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps(doc))
    res = cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 3


def test_simulate_log_series_gate_exit_3(tmp_path):
    # rho(A) dt = 0.8 passes the aliasing check, but e^0.8 - 1 = 1.226 >= 1
    # would make the learner's log series diverge in sysid and attack.
    doc = {
        "system": {
            "A": [[0.8, 0.0], [0.0, -0.5]],
            "B": [[1.0], [0.5]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "x0": [1.0, -1.0],
            "dt": 1.0,
        },
        "N": 100,
        "Ktarget": [[0.0, 0.0]],
    }
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    res = cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 3, res.stderr
    assert "e^(A dt) - I is 1.226 >= 1" in res.stderr
    assert not (tmp_path / "d.csv").exists()


def test_sysid_recovers_generator(tmp_path):
    doc = {
        "name": "small",
        "system": {
            "A": [[-0.5, 0.2], [0.0, -0.3]],
            "B": [[1.0], [0.5]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "x0": [1.0, -1.0],
            "dt": 0.001,
        },
        "N": 100,
        "seed": 5,
        "Ktarget": [[0.0, 0.0]],
    }
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(doc))
    data = str(tmp_path / "d.csv")
    assert cli("simulate", "--config", str(cfg), "--out", data).returncode == 0
    model = str(tmp_path / "m.json")
    res = cli("sysid", "--data", data, "--out", model)
    assert res.returncode == 0, res.stderr
    got = json.loads(Path(model).read_text())
    assert np.max(np.abs(np.array(got["Ahat"]) - np.array(doc["system"]["A"]))) <= 1e-5


def test_sysid_missing_file_exit_2(tmp_path):
    res = cli("sysid", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"))
    assert res.returncode == 2


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_sysid_non_finite_dt_exit_2(tmp_path, sim_dir, dt):
    d = dataset_read(str(sim_dir / "data.csv"))
    path = tmp_path / "data.csv"
    dataset_write(d, str(path))
    meta = tmp_path / "data.meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "dt": dt}))
    model = tmp_path / "m.json"
    res = cli("sysid", "--data", str(path), "--out", str(model))
    assert res.returncode == 2, res.stderr
    assert "dt must be positive and finite" in res.stderr
    assert not model.exists()


def test_sysid_degenerate_exit_4(tmp_path):
    d = BatchDataset(xs=np.zeros((30, 2)), us=np.zeros((30, 1)), cs=np.zeros(30), dt=0.1)
    path = str(tmp_path / "zero.csv")
    dataset_write(d, path)
    res = cli("sysid", "--data", path, "--out", str(tmp_path / "m.json"))
    assert res.returncode == 4


def test_sysid_default_series_tolerance_recovers_a(tmp_path, sim_dir, case1_config):
    # the default log-series tolerance is the learner's 1e-10, not 0.01
    model = str(tmp_path / "m.json")
    res = cli("sysid", "--data", str(sim_dir / "data.csv"), "--out", model)
    assert res.returncode == 0, res.stderr
    A = np.array(json.loads(Path(case1_config).read_text())["system"]["A"])
    assert np.max(np.abs(np.array(json.loads(Path(model).read_text())["Ahat"]) - A)) <= 1e-10


def test_sysid_term_cap_exit_5(tmp_path, sim_dir):
    model = tmp_path / "m.json"
    res = cli("sysid", "--data", str(sim_dir / "data.csv"), "--out", str(model),
              "--eps", "1e-10", "--max-iter", "3")
    assert res.returncode == 5, res.stderr
    assert "log series did not reach eps" in res.stderr
    assert not model.exists()


def test_sysid_negative_control_weight_exit_4(tmp_path, sim_dir):
    d = dataset_read(str(sim_dir / "data.csv"))
    neg = BatchDataset(xs=d.xs, us=d.us, cs=-d.cs, dt=d.dt)
    path = str(tmp_path / "neg.csv")
    dataset_write(neg, path)
    res = cli("sysid", "--data", path, "--out", str(tmp_path / "m.json"), "--with-qr")
    assert res.returncode == 4, res.stderr
    assert "fitted control weight R must be positive definite" in res.stderr


def test_attack_self_target_exit_0(tmp_path, sim_dir, case1_config):
    d = dataset_read(str(sim_dir / "data.csv"))
    doc = json.loads(Path(case1_config).read_text())
    _, sol = run_learner(d, np.array(doc["system"]["Q"]), np.array(doc["system"]["R"]))
    target = tmp_path / "self.json"
    target.write_text(json.dumps({"Ktarget": sol.K.tolist()}))
    out = str(tmp_path / "out")
    res = cli("attack", "--data", str(sim_dir / "data.csv"), "--target", str(target),
              "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads(Path(f"{out}/attack_report.json").read_text())
    assert report["attack_cost"] <= 1e-10
    assert report["converged"] is True


def test_attack_case1_target_exit_5_with_outputs(tmp_path, sim_dir, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"Ktarget": doc["Ktarget"]}))
    out = str(tmp_path / "out")
    res = cli("attack", "--config", case1_config, "--data", str(sim_dir / "data.csv"),
              "--target", str(target), "--out", out)
    assert res.returncode == 5  # stalls above primal_tol but still succeeds
    report = json.loads(Path(f"{out}/attack_report.json").read_text())
    assert report["converged"] is False
    assert report["gain_error"] <= 0.2 * np.sqrt(2 * 4)
    err = np.abs(np.array(report["Atilde"]) - np.array(doc["system"]["A"]))
    assert err.max() > 0.1  # a genuine perturbation was planted

    # u and c columns must be byte-identical between clean and poisoned CSVs
    def columns(path, picks):
        rows = Path(path).read_text().splitlines()
        idx = [rows[0].split(",").index(c) for c in picks]
        return [tuple(r.split(",")[i] for i in idx) for r in rows[1:]]

    picks = ["u0", "u1", "c"]
    assert columns(f"{out}/poisoned.csv", picks) == columns(
        str(sim_dir / "data.csv"), picks
    )


def test_attack_nonconformable_target_exit_2(tmp_path, sim_dir):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"Ktarget": [[1.0, 2.0]]}))
    res = cli("attack", "--data", str(sim_dir / "data.csv"), "--target", str(target),
              "--out", str(tmp_path / "out"))
    assert res.returncode == 2


def test_evaluate(tmp_path, case1_config):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": np.zeros((2, 4)).tolist()}))
    out = str(tmp_path / "ev")
    res = cli("evaluate", "--config", case1_config, "--gain", str(gain),
              "--out", out, "--horizon", "50")
    assert res.returncode == 0, res.stderr
    lines = Path(f"{out}/trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,t,x0,x1,x2,x3"
    assert len(lines) == 52  # header + horizon + initial state


@pytest.mark.parametrize("section,value", [("excitation", []), ("admm", []),
                                           ("excitation", 3), ("system", None)])
def test_simulate_section_not_an_object_exit_2(tmp_path, case1_config, section, value):
    doc = json.loads(Path(case1_config).read_text())
    doc[section] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "d.csv"
    res = cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"error: {section}: must be a JSON object" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("root", [3, None, "K"])
def test_evaluate_gain_root_not_an_object_exit_2(tmp_path, case1_config, root):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps(root))
    out = tmp_path / "ev"
    res = cli("evaluate", "--config", case1_config, "--gain", str(gain), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"error: {gain}: gain file root must be a JSON object" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--mu", "nan", "mu"), ("--mu", "inf", "mu"),
    ("--tol", "nan", "primal_tol"), ("--tol", "-1", "primal_tol"),
])
def test_reproduce_bad_admm_setting_exit_2_before_work(tmp_path, flag, value, field):
    out = tmp_path / "r"
    res = cli("reproduce", "case1", "--out", str(out), flag, value)
    assert res.returncode == 2, res.stdout + res.stderr
    assert f"error: {field} must be" in res.stderr
    assert res.stdout == "" and not out.exists()


def test_attack_bad_mu_exit_2_without_outputs(tmp_path, sim_dir, case1_config):
    target = tmp_path / "target.json"
    Kt = json.loads(Path(case1_config).read_text())["Ktarget"]
    target.write_text(json.dumps({"Ktarget": Kt}))
    out = tmp_path / "out"
    res = cli("attack", "--data", str(sim_dir / "data.csv"), "--target", str(target),
              "--out", str(out), "--mu", "nan")
    assert res.returncode == 2, res.stderr
    assert "error: mu must be positive and finite, got nan" in res.stderr
    assert not out.exists()


def test_reproduce_unknown_case_exit_2(tmp_path):
    res = cli("reproduce", "case9", "--out", str(tmp_path / "r"))
    assert res.returncode == 2


def test_reproduce_case2_passes(tmp_path):
    res = cli("reproduce", "case2", "--out", str(tmp_path / "r2"))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS]" in res.stdout and "[FAIL]" not in res.stdout


def test_reproduce_failing_check_exit_6(tmp_path):
    # one ADMM iteration cannot reach the target: the gate must trip
    res = cli("reproduce", "case1", "--out", str(tmp_path / "r"), "--iters", "1")
    assert res.returncode == 6
    assert "[FAIL]" in res.stdout
    assert "element-wise comparison" in res.stdout


def test_reproduce_stage_failure_exits_with_its_code(tmp_path):
    # at mu = 0.05 the P-step's projected-gradient loop hits its cap in the
    # attack stage: a ConvergenceError, so exit 5 as for `attack`, not 1
    out = tmp_path / "r"
    res = cli("reproduce", "case1", "--out", str(out), "--mu", "0.05")
    assert res.returncode == 5, res.stderr
    assert "stage attack failed: ConvergenceError" in res.stderr
    errors = json.loads((out / "report.json").read_text())["errors"]
    assert list(errors) == ["attack"]
    assert errors["attack"].startswith("ConvergenceError: P-step projected gradient")

import dataclasses
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lqpoison import poison
from lqpoison.data import BatchDataset, dataset_read, dataset_write
from lqpoison.pipeline import run_learner


CASE1 = json.loads(resources.files("lqpoison").joinpath("scenarios/case1.json").read_text())


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lqpoison", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def case1_config(tmp_path_factory):
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
    assert os.listdir(sim_dir) == ["data.csv"]  # a dataset is this one file


def test_simulate_bad_dt_exit_2(tmp_path, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    doc["system"]["dt"] = -0.5
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    res = cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 2
    assert "dt" in res.stderr


def coarse_config(tmp_path, A, N=100, dt=1.0):
    doc = {
        "system": {
            "A": A,
            "B": [[1.0], [0.5]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "x0": [1.0, -1.0],
            "dt": dt,
        },
        "N": N,
        "Ktarget": [[0.0, 0.0]],
    }
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def test_simulate_aliasing_exit_3(tmp_path):
    # The one learnability condition: every eigenvalue has |Im| dt < pi.
    w = 1.1 * np.pi
    cfg = coarse_config(tmp_path, [[0.0, w], [-w, 0.0]])
    res = cli("simulate", "--config", cfg, "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 3, res.stderr
    assert "max |Im eig(A)| * dt = 3.456 >= pi" in res.stderr
    assert not (tmp_path / "d.csv").exists()
    w = 0.9 * np.pi
    cfg = coarse_config(tmp_path, [[0.0, w], [-w, 0.0]])
    res = cli("simulate", "--config", cfg, "--out", str(tmp_path / "d.csv"))
    assert res.returncode == 0, res.stderr


def test_coarse_real_mode_simulates_and_identifies(tmp_path):
    # e^0.8 - 1 = 1.226 > 1, where the log series alone diverges: sysid
    # takes square roots of F before it.
    A = [[0.8, 0.0], [0.0, -0.5]]
    data, model = str(tmp_path / "d.csv"), tmp_path / "m.json"
    res = cli("simulate", "--config", coarse_config(tmp_path, A, N=20), "--out", data)
    assert res.returncode == 0, res.stderr
    res = cli("sysid", "--data", data, "--out", str(model))
    assert res.returncode == 0, res.stderr
    doc = json.loads(model.read_text())
    Ahat = np.array(doc["Ahat"])
    assert np.linalg.norm(Ahat - A) <= 1e-8 * np.linalg.norm(A)
    assert set(doc) == {"n", "m", "dt", "Ahat", "Bhat", "Qhat", "Rhat", "series_terms"}
    assert f"({doc['series_terms']} series terms)" in res.stdout  # as sysid prints it


def test_sysid_unresolved_fast_mode_exit_4(tmp_path):
    # e^(-1000 * 0.1) is far below the fit's rounding: the gate (no complex
    # eigenvalue) passes, but the data cannot give that mode back.
    data, model = str(tmp_path / "d.csv"), tmp_path / "m.json"
    cfg = coarse_config(tmp_path, [[-1000.0, 0.0], [0.0, -1.0]], N=200, dt=0.1)
    res = cli("simulate", "--config", cfg, "--out", data)
    assert res.returncode == 0, res.stderr
    res = cli("sysid", "--data", data, "--out", str(model))
    assert res.returncode == 4, res.stderr
    assert "decays too fast to resolve at sampling interval dt = 0.1" in res.stderr
    assert not model.exists()


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


def sysid_with_second_time(tmp_path, sim_dir, t1):
    """``sysid`` on case1's dataset with the second row's t, its dt, set to ``t1``."""
    rows = (sim_dir / "data.csv").read_text().splitlines()
    k, _, rest = rows[2].split(",", 2)
    path = tmp_path / "data.csv"
    path.write_text("\n".join([*rows[:2], f"{k},{t1},{rest}", *rows[3:]]) + "\n")
    model = tmp_path / "m.json"
    res = cli("sysid", "--data", str(path), "--out", str(model))
    assert res.returncode == 2, res.stderr
    assert not model.exists()
    return res


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_sysid_non_finite_dt_exit_2(tmp_path, sim_dir, dt):
    res = sysid_with_second_time(tmp_path, sim_dir, repr(dt))
    assert res.stderr == f'error: line 3: non-finite value "{dt!r}" in column t\n'


@pytest.mark.parametrize("t1", ["0.0", "-0.01"])
def test_sysid_non_positive_dt_exit_2(tmp_path, sim_dir, t1):
    res = sysid_with_second_time(tmp_path, sim_dir, t1)
    assert res.stderr == f"error: sample 1: time {t1} in column t gives dt, " \
                         "which must be positive and finite\n"


def test_sysid_time_column_not_k_dt_exit_2(tmp_path, sim_dir):
    # the learner reads only x, u and c, but a t column that is not k*dt
    # means the rows are not samples at one spacing dt
    rows = (sim_dir / "data.csv").read_text().splitlines()
    body = [",".join([k, "123.0", *rest]) for k, _, *rest in (r.split(",") for r in rows[1:])]
    path = tmp_path / "data.csv"
    path.write_text("\n".join([rows[0], *body]) + "\n")
    model = tmp_path / "m.json"
    res = cli("sysid", "--data", str(path), "--out", str(model))
    assert res.returncode == 2, res.stderr
    assert res.stderr.endswith("sample 0: time 123.0 in column t is not k*dt = 0.0\n")
    assert not model.exists()


def test_sysid_degenerate_exit_4(tmp_path):
    d = BatchDataset(xs=np.zeros((30, 2)), us=np.zeros((30, 1)), cs=np.zeros(30), dt=0.1)
    path = str(tmp_path / "zero.csv")
    dataset_write(d, path)
    res = cli("sysid", "--data", path, "--out", str(tmp_path / "m.json"))
    assert res.returncode == 4


def test_sysid_default_series_tolerance_recovers_a(tmp_path, sim_dir, case1_config):
    # the log series runs to its own rounding, so A comes back to 1e-10
    model = str(tmp_path / "m.json")
    res = cli("sysid", "--data", str(sim_dir / "data.csv"), "--out", model)
    assert res.returncode == 0, res.stderr
    A = np.array(json.loads(Path(case1_config).read_text())["system"]["A"])
    assert np.max(np.abs(np.array(json.loads(Path(model).read_text())["Ahat"]) - A)) <= 1e-10


def test_sysid_eps_is_ignored(tmp_path, sim_dir):
    # perfbench's chain-n10 argv still passes --eps 1e-10: it must change nothing
    data = str(sim_dir / "data.csv")
    plain, with_eps, bad = tmp_path / "plain.json", tmp_path / "eps.json", tmp_path / "bad.json"
    assert cli("sysid", "--data", data, "--out", str(plain)).returncode == 0
    res = cli("sysid", "--data", data, "--out", str(with_eps), "--eps", "1e-10")
    assert res.returncode == 0, res.stderr
    assert with_eps.read_bytes() == plain.read_bytes()
    res = cli("sysid", "--data", data, "--out", str(bad), "--eps", "abc")
    assert res.returncode == 2
    assert "--eps: invalid float value: 'abc'" in res.stderr
    assert not bad.exists()


def test_sysid_no_real_log_exit_3(tmp_path):
    # F has the eigenvalue -0.5, which e^(A dt) never has: the plant was
    # sampled too coarsely (or is not a sampled continuous-time plant).
    rng = np.random.default_rng(3)
    F, G = np.diag([-0.5, 0.9]), np.array([[1.0], [0.5]])
    us = rng.uniform(-1.0, 1.0, size=(50, 1))
    xs = np.zeros((50, 2))
    xs[0] = [1.0, -1.0]
    for k in range(49):
        xs[k + 1] = F @ xs[k] + G @ us[k]
    data, model = str(tmp_path / "d.csv"), tmp_path / "m.json"
    dataset_write(BatchDataset(xs=xs, us=us, cs=np.zeros(50), dt=0.1), data)
    res = cli("sysid", "--data", data, "--out", str(model))
    assert res.returncode == 3, res.stderr
    assert "sampling interval dt = 0.1" in res.stderr
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


def test_attack_case1_target_certified_exit_0_with_outputs(tmp_path, sim_dir, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"Ktarget": doc["Ktarget"]}))
    out = str(tmp_path / "out")
    res = cli("attack", "--config", case1_config, "--data", str(sim_dir / "data.csv"),
              "--target", str(target), "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads(Path(f"{out}/attack_report.json").read_text())
    # the target is not attainable: certified for K', 6.98e-4 sigma from the floor
    assert report["converged"] is True
    assert report["certificate"] <= poison.PRIMAL_TOL
    assert report["floor"] == pytest.approx(6.98e-4, abs=5e-6)
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


def test_attack_stalled_exit_5_with_outputs(tmp_path, sim_dir, case1_config):
    # 3 iterations end before the first polish: not certified, outputs still written
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({**CASE1, "admm": {"n_iter": 3}}))
    out = tmp_path / "out"
    res = cli("attack", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
              "--target", case1_config, "--out", str(out))
    assert res.returncode == 5, res.stderr
    assert "attack NOT converged" in res.stdout
    report = json.loads((out / "attack_report.json").read_text())
    assert report["converged"] is False and report["polish_iterations"] == 0
    assert report["stationary"] is False
    assert report["admm_iterations"] == len(report["admm_residuals"]) == 3
    assert report["certificate"] > poison.PRIMAL_TOL
    assert (out / "poisoned.csv").exists()


def test_attack_fields_agree_across_writers(tmp_path, sim_dir, case1_config):
    # `attack` on the case1 dataset and `reproduce case1` run the same attack
    out = tmp_path / "attack"
    res = cli("attack", "--config", case1_config, "--data", str(sim_dir / "data.csv"),
              "--target", case1_config, "--out", str(out))
    assert res.returncode == 0, res.stderr
    attack = json.loads((out / "attack_report.json").read_text())
    res = cli("reproduce", "case1", "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    fields = set(attack) - {"Ktarget"}
    assert fields == {"Atilde", "gain_error", "attack_cost", "converged", "admm_residuals",
                      "floor", "gain_attained", "certificate", "objective",
                      "admm_iterations", "polish_iterations", "stationary"}
    assert {k: report[k] for k in fields} == {k: attack[k] for k in fields}
    # report.json records the gates that stdout prints
    printed = [line for line in res.stdout.splitlines() if line.startswith("  [")]
    assert printed == [f"  [{'PASS' if c['ok'] else 'FAIL'}] {c['label']} ({c['detail']})"
                       for c in report["checks"]]
    assert len(printed) == 2


def test_attack_nonconformable_target_exit_2(tmp_path, sim_dir):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"Ktarget": [[1.0, 2.0]]}))
    res = cli("attack", "--data", str(sim_dir / "data.csv"), "--target", str(target),
              "--out", str(tmp_path / "out"))
    assert res.returncode == 2


def test_evaluate(tmp_path, case1_config):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": np.zeros((2, 4)).tolist()}))
    cfg = tmp_path / "h50.json"
    cfg.write_text(json.dumps({**json.loads(Path(case1_config).read_text()), "horizon": 50}))
    out = str(tmp_path / "ev")
    res = cli("evaluate", "--config", str(cfg), "--gain", str(gain), "--out", out)
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


def simulate_with(tmp_path, config, **changes):
    """Run ``simulate`` on ``config`` with top-level keys replaced; return (result, out)."""
    doc = json.loads(Path(config).read_text())
    doc.update(changes)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "d.csv"
    return cli("simulate", "--config", str(cfg), "--out", str(out)), out


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["iid-uniform", "prbs"])
def test_simulate_non_finite_amplitude_exit_2(tmp_path, case1_config, kind, amplitude):
    res, out = simulate_with(
        tmp_path, case1_config, excitation={"kind": kind, "amplitude": amplitude}
    )
    assert res.returncode == 2, res.stderr
    assert "amplitude must be positive and finite" in res.stderr
    assert not out.exists()


def test_simulate_amplitude_with_infinite_draw_width_exit_2(tmp_path, case1_config):
    # 1e308 is finite, but the uniform draw's width 2e308 is not
    res, out = simulate_with(tmp_path, case1_config, excitation={"amplitude": 1e308})
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("error: excitation: amplitude must be positive and finite, "
                          "and so must 2*amplitude, got 1e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("mu", [1e307, 1e308])
def test_attack_mu_that_overflows_the_a_step_exit_2(tmp_path, sim_dir, case1_config, capsys,
                                                    mu):
    # in process, so pytest's filters turn any RuntimeWarning into an error;
    # P is unit-scale, so only mu itself overflows the A-step (1e305 certifies)
    from lqpoison import cli as cli_module

    cfg = tmp_path / "big_mu.json"
    cfg.write_text(json.dumps({**CASE1, "admm": {"mu": mu}}))
    out = tmp_path / "out"
    code = cli_module.main(["attack", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
                            "--target", case1_config, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: admm.mu = {mu:g} overflows the A-step; " \
                                      "use a smaller mu\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("seed", "array"), ("seed", "object")])
def test_nested_value_named_by_its_json_type(tmp_path, case1_config, key, value):
    deep = 1.0
    for _ in range(300):
        deep = [deep] if value == "array" else {"v": deep}
    res, out = simulate_with(tmp_path, case1_config, **{key: deep})
    assert res.returncode == 2, res.stderr
    # the value itself is not echoed
    assert res.stderr == f"error: {key}: must be an integer, got an {value}\n"
    assert not out.exists()


def test_config_nested_past_the_parser_exit_2(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(CASE1)[:-1] + ', "extra": ' + '{"a": ' * 2000 + "1" + "}" * 2001)
    out = tmp_path / "d.csv"
    res = cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: {cfg}: cannot read config: ")
    assert res.stderr.endswith("; the document is nested too deeply\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [None, [42], "forty-two"])
def test_simulate_bad_seed_exit_2(tmp_path, case1_config, seed):
    res, out = simulate_with(tmp_path, case1_config, seed=seed)
    assert res.returncode == 2, res.stderr
    assert "error: seed: " in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("gain,message", [
    ([[1.0, 0.0, 0.0, 0.0]], "excitation gain must be 2x4, got (1, 4)"),
    ([[float("nan")] * 4] * 2, "excitation gain has non-finite entries"),
])
def test_simulate_bad_dither_gain_exit_2(tmp_path, case1_config, gain, message):
    excitation = {"kind": "gain-plus-dither", "amplitude": 0.5, "gain": gain}
    res, out = simulate_with(tmp_path, case1_config, excitation=excitation)
    assert res.returncode == 2, res.stderr
    assert f"error: {message}" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("gain,message", [
    ([1.0, 0.0, 0.0, 0.0], "gain must be 2-D, got ndim=1"),
    ([[1.0, 0.0, 0.0, 0.0]], "gain must be 2x4, got (1, 4)"),
], ids=["1-D", "1x4"])
@pytest.mark.parametrize("key", ["K", "Ktarget"])
@pytest.mark.parametrize("command", ["attack", "evaluate"])
def test_wrong_shaped_gain_file_exit_2_without_outputs(tmp_path, sim_dir, case1_config,
                                                       command, key, gain, message):
    path = tmp_path / "gain.json"
    path.write_text(json.dumps({key: gain}))
    if command == "attack":
        args = ["--data", str(sim_dir / "data.csv"), "--target", str(path)]
    else:
        args = ["--config", case1_config, "--gain", str(path)]
    res = cli(command, *args, "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"error: {key}: {message}\n"
    assert res.stdout == "" and sorted(os.listdir(tmp_path)) == ["gain.json"]


@pytest.mark.parametrize("change,message", [
    ({"Ktarget": [[1.0, 0.0, 0.0, 0.0]]}, "Ktarget must be 2x4, got (1, 4)"),
    ({"excitation": {"kind": "gain-plus-dither", "amplitude": 0.5,
                     "gain": [[1.0, 0.0, 0.0, 0.0]]}},
     "excitation gain must be 2x4, got (1, 4)"),
    ({"horizon": -1}, "horizon must be non-negative, got -1"),
    ({"excitation": {"kind": "iid-uniform", "gain": [[1.0]]}},
     "excitation: gain is taken only by gain-plus-dither, not by iid-uniform"),
    # four numbers, as case1 has states, but not a vector
    ({"system": {**CASE1["system"], "x0": [[1.0, 0.0], [0.0, 1.0]]}},
     "system: x0 must be a vector, got ndim=2"),
], ids=["Ktarget", "dither-gain", "horizon", "gain-without-dither", "x0-matrix"])
@pytest.mark.parametrize("command", ["simulate", "attack", "evaluate"])
def test_config_refused_at_load_exit_2_without_outputs(tmp_path, sim_dir, case1_config,
                                                       command, change, message):
    doc = json.loads(Path(case1_config).read_text())
    doc.update(change)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    args = {
        "simulate": [],
        "attack": ["--data", str(sim_dir / "data.csv"), "--target", case1_config],
        "evaluate": ["--gain", case1_config],
    }[command]
    res = cli(command, "--config", str(cfg), *args, "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == "" and sorted(os.listdir(tmp_path)) == ["bad.json"]


def nested(depth):
    """JSON text of the number 1.0 inside ``depth`` arrays."""
    return "[" * depth + "1.0" + "]" * depth


@pytest.mark.parametrize("depth", [500, 100_000])
@pytest.mark.parametrize("where", ["config", "gain file"])
def test_deeply_nested_array_exit_2_without_outputs(tmp_path, case1_config, where, depth):
    # 500 deep loads and is refused by the array rule, naming the field;
    # 100,000 deep is past what json.load parses, and names the file
    doc = json.loads(Path(case1_config).read_text())
    if where == "config":
        doc["system"]["x0"] = "@"
        path, field = tmp_path / "bad.json", "system.x0"
        args = ["simulate", "--config", str(path)]
    else:
        doc = {"K": "@"}
        path, field = tmp_path / "bad.json", "K"
        args = ["evaluate", "--config", case1_config, "--gain", str(path)]
    path.write_text(json.dumps(doc).replace('"@"', nested(depth)))
    before = sorted(os.listdir(tmp_path))
    res = cli(*args, "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    if depth == 500:
        assert res.stderr == f"error: {field}: must be a vector or a matrix, " \
                             "got arrays nested deeper\n"
    else:
        assert res.stderr.startswith(f"error: {path}: cannot read {where}: "
                                     "maximum recursion depth exceeded")
        assert res.stderr.endswith("; the document is nested too deeply\n")
    assert res.stdout == "" and sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "c.json", "--out", "d.csv", "--seed", "1"],
    ["attack", "--data", "d.csv", "--target", "t.json", "--out", "o", "--mu", "1"],
    ["attack", "--data", "d.csv", "--target", "t.json", "--out", "o", "--iters", "1"],
    ["attack", "--data", "d.csv", "--target", "t.json", "--out", "o", "--tol", "1"],
    ["evaluate", "--config", "c.json", "--gain", "g.json", "--out", "o", "--horizon", "5"],
    ["reproduce", "case1", "--out", "o", "--mu", "1"],
    ["reproduce", "case1", "--out", "o", "--iters", "1"],
    ["reproduce", "case1", "--out", "o", "--tol", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_scenario_setting_flags_are_refused(tmp_path, monkeypatch, capsys, argv):
    # every scenario setting comes from the config; reproduce takes only --seed
    from lqpoison import cli as cli_module

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        cli_module.main(argv)
    assert ei.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("root", [3, None, "K"])
def test_evaluate_gain_root_not_an_object_exit_2(tmp_path, case1_config, root):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps(root))
    out = tmp_path / "ev"
    res = cli("evaluate", "--config", case1_config, "--gain", str(gain), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"error: {gain}: gain file root must be a JSON object" in res.stderr
    assert not out.exists()


def test_attack_bad_mu_exit_2_without_outputs(tmp_path, sim_dir, case1_config):
    doc = json.loads(Path(case1_config).read_text())
    doc["admm"]["mu"] = float("nan")  # json.dumps writes the NaN token
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = cli("attack", "--config", str(cfg), "--data", str(sim_dir / "data.csv"),
              "--target", case1_config, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "error: admm: mu must be positive and finite, got nan" in res.stderr
    assert not out.exists()


def test_reproduce_unknown_case_exit_2(tmp_path):
    res = cli("reproduce", "case9", "--out", str(tmp_path / "r"))
    assert res.returncode == 2


def test_reproduce_case2_passes(tmp_path):
    res = cli("reproduce", "case2", "--out", str(tmp_path / "r2"))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS]" in res.stdout and "[FAIL]" not in res.stdout


def reproduce_case1_with(monkeypatch, capsys, out, **admm):
    """Run ``reproduce case1`` in-process with the case's ADMM settings changed.

    Returns (exit code, stdout, stderr).
    """
    from lqpoison import cli as cli_module
    from lqpoison.config import load_bundled

    scenario, name = load_bundled("case1")
    changed = dataclasses.replace(scenario, admm=dataclasses.replace(scenario.admm, **admm))
    monkeypatch.setattr(cli_module, "load_bundled", lambda case: (changed, name))
    code = cli_module.main(["reproduce", "case1", "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_failing_check_exit_6(tmp_path, monkeypatch, capsys):
    # one ADMM iteration cannot reach the target: the gate must trip
    code, stdout, _ = reproduce_case1_with(monkeypatch, capsys, tmp_path / "r", n_iter=1)
    assert code == 6
    assert "[FAIL]" in stdout
    assert "element-wise comparison" in stdout
    checks = json.loads((tmp_path / "r" / "report.json").read_text())["checks"]
    assert [c["ok"] for c in checks].count(False) == stdout.count("[FAIL]")


def test_reproduce_uncertified_attack_exit_5_with_outputs(tmp_path, monkeypatch, capsys):
    # the gates pass on ADMM's own answer, but it is not certified: exit 5 as for `attack`
    monkeypatch.setattr(poison, "polish", lambda spec, P, attainable: None)
    out = tmp_path / "r"
    code, stdout, stderr = reproduce_case1_with(monkeypatch, capsys, out)
    assert code == 5, stdout + stderr
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["admm_iterations"] == 500
    assert [c["ok"] for c in report["checks"]] == [True, True]
    assert stdout.count("[PASS]") == 2 and "[FAIL]" not in stdout
    assert "attack converged: False" in stdout


def nan_p_step(state, spec, cfg):
    return np.full_like(state.P, np.nan)


def test_reproduce_stage_failure_exits_with_its_code(tmp_path, monkeypatch, capsys):
    # a non-finite ADMM residual fails the attack stage: a ConvergenceError,
    # so exit 5 as for `attack`, not 1
    monkeypatch.setattr(poison, "p_step", nan_p_step)
    out = tmp_path / "r"
    code, _, stderr = reproduce_case1_with(monkeypatch, capsys, out)
    assert code == 5, stderr
    assert "stage attack failed: ConvergenceError" in stderr
    doc = json.loads((out / "report.json").read_text())
    assert "checks" not in doc  # the gates need every stage's result
    errors = doc["errors"]
    assert list(errors) == ["attack"]
    assert errors["attack"].startswith("ConvergenceError: constraint residual ")


def test_reproduce_without_stabilizing_solution_exit_7(tmp_path, monkeypatch, capsys):
    from lqpoison import cli as cli_module, pipeline
    from lqpoison.errors import StabilityError

    def no_solution(*args, **kwargs):
        raise StabilityError("no stabilizing solution")

    monkeypatch.setattr(pipeline, "care_solve", no_solution)
    out = tmp_path / "out"
    assert cli_module.main(["reproduce", "case1", "--out", str(out)]) == 7
    doc = json.loads((out / "report.json").read_text())
    assert doc["errors"]["optimal_gain"] == "StabilityError: no stabilizing solution"
    assert "stage optimal_gain failed: StabilityError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reproduce"])  # the one command with --seed
def test_negative_seed_override_exit_2_without_outputs(tmp_path, command):
    out = tmp_path / "out"
    res = cli(command, "case1", "--out", str(out), "--seed", "-3")
    assert res.returncode == 2, res.stderr
    assert "error: seed: must be at least 0, got -3" in res.stderr
    assert res.stdout == "" and not out.exists()


@pytest.mark.parametrize("section,key,value,field", [
    ("admm", "mu", True, "admm.mu"),
    ("system", "dt", "0.01", "system.dt"),
    ("excitation", "amplitude", "1", "excitation.amplitude"),
    ("system", "A", [["1", True, 0.0, 0.0]] * 4, "system.A"),
])
def test_simulate_non_number_exit_2(tmp_path, case1_config, section, key, value, field):
    doc = json.loads(Path(case1_config).read_text())
    res, out = simulate_with(tmp_path, case1_config, **{section: {**doc[section], key: value}})
    assert res.returncode == 2, res.stderr
    assert f"error: {field}: must be a number" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("entry", ["1", True])
def test_evaluate_gain_entry_not_a_number_exit_2(tmp_path, case1_config, entry):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": [[entry, 0.0, 0.0, 0.0], [0.0] * 4]}))
    out = tmp_path / "ev"
    res = cli("evaluate", "--config", case1_config, "--gain", str(gain), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "error: K: must be a number" in res.stderr
    assert not out.exists()


def test_sysid_ignores_older_sidecar_dimensions(tmp_path, sim_dir):
    # a sidecar an older writer left beside the CSV, well formed (its n and m
    # huge, its dt wrong) or not, is neither read nor removed
    clean = tmp_path / "clean.json"
    res = cli("sysid", "--data", str(sim_dir / "data.csv"), "--out", str(clean))
    assert res.returncode == 0, res.stderr
    path = tmp_path / "data.csv"
    path.write_text((sim_dir / "data.csv").read_text())
    meta = tmp_path / "data.meta.json"
    for text in [json.dumps({"dt": 0.5, "seed": 42, "n": 10**12, "m": 2}), "{"]:
        meta.write_text(text)
        model = tmp_path / "m.json"
        res = cli("sysid", "--data", str(path), "--out", str(model))
        assert res.returncode == 0, res.stderr
        assert model.read_bytes() == clean.read_bytes()
        assert meta.read_text() == text


def test_sysid_out_is_a_directory_leaves_no_tmp(tmp_path, sim_dir):
    out = tmp_path / "model"
    out.mkdir()
    res = cli("sysid", "--data", str(sim_dir / "data.csv"), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "Is a directory" in res.stderr
    assert os.listdir(tmp_path) == ["model"] and os.listdir(out) == []


@pytest.mark.parametrize("command", ["simulate", "sysid"])
def test_out_in_missing_directory_names_the_path(tmp_path, sim_dir, case1_config, command):
    out = tmp_path / "missing" / "x.csv"
    source = ("--config", case1_config) if command == "simulate" else (
        "--data", str(sim_dir / "data.csv"))
    res = cli(command, *source, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"No such file or directory: '{out}'" in res.stderr
    assert ".tmp" not in res.stderr


def test_simulate_non_finite_costs_exit_2_without_dataset(tmp_path, case1_config):
    # x0 = 1e200 * 1 keeps the states finite, but x^T Q x overflows
    doc = json.loads(Path(case1_config).read_text())
    res, out = simulate_with(tmp_path, case1_config, system={**doc["system"], "x0": [1e200] * 4})
    assert res.returncode == 2, res.stderr
    assert "error: cs has non-finite entries" in res.stderr
    assert "Warning" not in res.stderr
    assert not out.exists()


def test_simulate_last_time_overflows_exit_2_without_dataset(tmp_path, capsys):
    # every state and cost is finite, but t = 4 * 1e308 is not: without the
    # check, simulate warned of an overflow and wrote a t column sysid refused
    from lqpoison import cli as cli_module

    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({
        "system": {"A": [[0.0]], "B": [[1e-300]], "Q": [[1.0]], "R": [[1.0]],
                   "x0": [1.0], "dt": 1e308},
        "N": 5, "Ktarget": [[0.0]],
    }))
    out = tmp_path / "d.csv"
    assert cli_module.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: the last sample time (N - 1)*dt is not finite (N = 5, dt = 1e+308)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_indefinite_q_near_overflow_exit_2_without_outputs(tmp_path, case1_config, capsys,
                                                           command):
    # in process, so pytest's filters turn any RuntimeWarning into an error
    from lqpoison import cli as cli_module

    doc = json.loads(Path(case1_config).read_text())
    doc["system"]["Q"][0][0] = -1e308
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "simulate" else ["--gain", case1_config,
                                                              "--out", str(out)]
    assert cli_module.main([command, "--config", str(cfg), *args]) == 2
    assert capsys.readouterr().err.startswith(
        "error: system: Q must be positive semidefinite (min eig -1.000e+308)")
    assert not out.exists()


def test_evaluate_gain_that_loses_the_plant_exit_2(tmp_path, case1_config):
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"K": [[1e200] * 4, [0.0] * 4]}))
    out = tmp_path / "ev"
    res = cli("evaluate", "--config", case1_config, "--gain", str(gain), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "error: gain is too large for the plant" in res.stderr
    assert not out.exists()


def test_evaluate_non_finite_x0_exit_2_without_trajectory(tmp_path, case1_config):
    # json.dumps writes the non-standard token NaN, which json.load accepts
    doc = json.loads(Path(case1_config).read_text())
    doc["system"]["x0"][0] = float("nan")
    cfg = tmp_path / "nan_x0.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "ev"
    res = cli("evaluate", "--config", str(cfg), "--gain", case1_config, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "error: system: x0 has non-finite entries" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize("big_a,dt", [(True, 0.01), (False, 1e4)])
def test_overflowing_exponential_exit_2_without_outputs(tmp_path, case1_config, command,
                                                        big_a, dt):
    doc = json.loads(Path(case1_config).read_text())
    if big_a:  # ||A dt||_F overflows; with dt = 1e4, e^(A dt) does
        doc["system"]["A"][0][:2] = [1e308, 1e308]
    doc["system"]["dt"] = dt
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "simulate" else ["--gain", case1_config,
                                                              "--out", str(out)]
    res = cli(command, "--config", str(cfg), *args)
    assert res.returncode == 2, res.stderr
    assert f"error: e^(M dt) is not finite at dt = {dt:g}" in res.stderr
    assert "Warning" not in res.stderr
    assert not out.exists()


def test_import_loads_no_submodule():
    # the package root defines __version__ and nothing it would have to import
    code = ("import sys; sys.modules['numpy'] = None; import lqpoison; "
            "assert lqpoison.__version__; "
            "print(sorted(m for m in sys.modules if m.startswith('lqpoison.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_one_error_class_per_exit_code():
    from lqpoison import errors

    owners = {}
    for name, value in vars(errors).items():
        if isinstance(value, type) and hasattr(value, "exit_code"):
            owners.setdefault(value.exit_code, []).append(name)
    assert owners == {3: ["LearnabilityError"], 4: ["IdentifiabilityError"],
                      5: ["ConvergenceError"], 7: ["StabilityError"]}


@pytest.mark.parametrize("error,code", [
    (KeyError("K"), 1), (TypeError("bug"), 1),
    (ValueError("bad"), 2), (OSError("gone"), 2), (FileNotFoundError("x"), 2),
])
def test_exit_code_of_other_errors(error, code):
    from lqpoison.cli import _exit_code

    assert _exit_code(error) == code


def test_attack_divergence_exit_5_without_outputs(tmp_path, sim_dir, case1_config,
                                                  monkeypatch, capsys):
    from lqpoison import cli as cli_module, poison

    monkeypatch.setattr(poison, "p_step", nan_p_step)
    out = tmp_path / "out"
    code = cli_module.main(["attack", "--config", case1_config,
                            "--data", str(sim_dir / "data.csv"),
                            "--target", case1_config, "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: constraint residual ")
    assert err.endswith(" at iteration 1 is not finite\n")
    assert not out.exists()


def attack_scaled(tmp_path, sim_dir, case1_config, costs=1.0, target=1.0):
    """``attack`` (RuntimeWarnings as errors) on case1's dataset with its cost
    column times ``costs``, toward case1's target times ``target``; its files
    go under ``tmp_path``. Returns (result, output directory, report or None)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    d = dataset_read(str(sim_dir / "data.csv"))
    data = tmp_path / "scaled.csv"
    dataset_write(BatchDataset(xs=d.xs, us=d.us, cs=costs * d.cs, dt=d.dt), str(data))
    gain = tmp_path / "target.json"
    gain.write_text(json.dumps({"Ktarget": (target * np.array(CASE1["Ktarget"])).tolist()}))
    out = tmp_path / "out"
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lqpoison",
                          "attack", "--config", case1_config, "--data", str(data),
                          "--target", str(gain), "--out", str(out)],
                         capture_output=True, text=True)
    report = out / "attack_report.json"
    return res, out, json.loads(report.read_text()) if report.exists() else None


def test_attack_certificate_relative_to_the_cost_scale(tmp_path, sim_dir, case1_config):
    # the attack divides the costs by their scale sigma, so costs times s
    # certify the same point
    base = attack_scaled(tmp_path / "s1", sim_dir, case1_config)[2]
    res, _, report = attack_scaled(tmp_path / "s6", sim_dir, case1_config, costs=1e6)
    assert res.returncode == 0, res.stderr
    assert report["converged"] is True and report["stationary"] is True
    assert report["admm_iterations"] == base["admm_iterations"] == poison.POLISH_AT
    assert report["objective"] == pytest.approx(base["objective"], rel=1e-9)
    assert report["objective"] == pytest.approx(7.11748, abs=1e-5)


@pytest.mark.parametrize("costs", [1e-8, 1e-3, 1e150, 1e153])
def test_attack_tiny_or_huge_cost_scale_certified_exit_0(tmp_path, sim_dir, case1_config, costs):
    # mu is the penalty of the costs divided by sigma, so it means the same
    # at any cost scale whose sigma is finite
    res, out, report = attack_scaled(tmp_path, sim_dir, case1_config, costs=costs)
    assert res.returncode == 0, res.stderr
    assert report["converged"] is True and report["stationary"] is True
    assert report["admm_iterations"] == poison.POLISH_AT
    assert report["objective"] == pytest.approx(7.11748014, rel=1e-9)
    assert (out / "poisoned.csv").exists()


@pytest.mark.parametrize("costs,target", [(1e160, 1.0), (1.0, 1e200), (1e300, 1.0)])
def test_attack_overflowing_constraint_scale_exit_2_without_outputs(tmp_path, sim_dir,
                                                                   case1_config, costs, target):
    res, out, _ = attack_scaled(tmp_path, sim_dir, case1_config, costs=costs, target=target)
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("error: the attack's constraint scale ||(Qhat, Rhat Ktarget)||_F "
                          "overflows; rescale the costs or the target\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sysid", "attack"])
def test_prbs_with_two_inputs_cannot_fit_r_exit_4(tmp_path, case1_config, command):
    # every u_i^2 is amplitude^2 at every sample, so the u0^2 and u1^2
    # features are equal columns and only their sum is identifiable
    res, data = simulate_with(tmp_path, case1_config,
                              excitation={"kind": "prbs", "amplitude": 1.0})
    assert res.returncode == 0, res.stderr
    out = tmp_path / "out"
    if command == "sysid":
        res = cli("sysid", "--data", str(data), "--out", str(out), "--with-qr")
    else:
        res = cli("attack", "--config", case1_config, "--data", str(data),
                  "--target", case1_config, "--out", str(out))
    assert res.returncode == 4, res.stderr
    assert "quadratic features are rank deficient (12 < 13)" in res.stderr
    combination = re.search(r"dependent combinations: ([+-])0\.71\*u0\^2 ([+-])0\.71\*u1\^2\n$",
                            res.stderr)
    assert combination and combination[1] != combination[2], res.stderr
    assert not out.exists()


def test_attack_small_mu_certified_exit_0_with_outputs(tmp_path, sim_dir, case1_config,
                                                      capsys):
    # at the small penalty mu = 1.75 ADMM's own P is clipped singular, but
    # its projection onto the slice is definite: the one polish, at
    # iteration 10, certifies a stationary point
    from lqpoison import cli as cli_module

    cfg = tmp_path / "mu.json"
    cfg.write_text(json.dumps({**CASE1, "admm": {**CASE1["admm"], "mu": 1.75}}))
    out = tmp_path / "out"
    code = cli_module.main(["attack", "--config", str(cfg),
                            "--data", str(sim_dir / "data.csv"),
                            "--target", str(cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (out / "poisoned.csv").exists()
    report = json.loads((out / "attack_report.json").read_text())
    assert report["converged"] is True and report["stationary"] is True
    assert report["admm_iterations"] == poison.POLISH_AT


def test_reproduce_small_mu_passes_its_gate_exit_0(tmp_path, monkeypatch, capsys):
    # the same certified run inside `reproduce`: every gate passes, no stage fails
    out = tmp_path / "r"
    code, stdout, stderr = reproduce_case1_with(monkeypatch, capsys, out, mu=1.75)
    assert code == 0, stdout + stderr
    doc = json.loads((out / "report.json").read_text())
    assert "errors" not in doc
    assert doc["converged"] is True and doc["stationary"] is True
    assert doc["admm_iterations"] == poison.POLISH_AT
    assert all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("key,value", [
    ("seed", "x" * 5000), ("seed", -10**400),
], ids=["seed-string", "seed-negative"])
def test_long_value_echoed_bounded(tmp_path, case1_config, capsys, key, value):
    from lqpoison import cli as cli_module

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**CASE1, key: value}))
    out = tmp_path / "d.csv"
    code = cli_module.main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {key}: must be ")
    assert len(err) < 160 and " characters)" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["N", "horizon"])
def test_huge_negative_size_echoed_bounded(tmp_path, capsys, key):
    from lqpoison import cli as cli_module

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**CASE1, key: -10**4000}))
    out = tmp_path / "d.csv"
    code = cli_module.main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err) < 160 and "-1000000000" in err and "(4002 characters)" in err
    assert not out.exists()


# Only sizes numpy refuses at once, without committing memory: 10**30 does
# not fit its dimension type, and 2**62 rows exceed its largest array (or
# the address space). A size like 2**32 rows could be committed lazily.
@pytest.mark.parametrize("size", [10**30, 2**62], ids=["1e30", "2^62"])
@pytest.mark.parametrize("command,key", [("evaluate", "horizon"), ("simulate", "N")])
def test_size_that_cannot_be_allocated_exit_2_without_outputs(tmp_path, case1_config, capsys,
                                                              command, key, size):
    from lqpoison import cli as cli_module

    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({**CASE1, key: size}))
    out = tmp_path / "out"
    args = ["--gain", case1_config] if command == "evaluate" else []
    code = cli_module.main([command, "--config", str(cfg), *args, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {key} is too large: its arrays cannot be allocated (")
    assert sorted(os.listdir(tmp_path)) == ["big.json"]


def test_horizon_refused_before_any_rollout_loop(tmp_path, case1_config, capsys, monkeypatch):
    # 10**12 states of n = 4 need 32 TB, which numpy refuses at once; the
    # rollout must allocate them before it tabulates a power or loops.
    from lqpoison import cli as cli_module
    from lqpoison import linalg

    def unreachable(M, count):
        raise AssertionError("power_table called before the output was allocated")

    monkeypatch.setattr(linalg, "power_table", unreachable)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({**CASE1, "horizon": 10**12}))
    out = tmp_path / "out"
    code = cli_module.main(["evaluate", "--config", str(cfg), "--gain", case1_config,
                            "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: horizon is too large: its arrays cannot be allocated (")
    assert sorted(os.listdir(tmp_path)) == ["big.json"]


def test_sample_count_refused_before_any_jump_constant(tmp_path, capsys, monkeypatch):
    # 10**12 samples of m = 2 inputs need 16 TB, which numpy refuses at once;
    # the draw must allocate its output before it computes a jump constant.
    from lqpoison import cli as cli_module
    from lqpoison import pcg64

    def unreachable(inc):
        raise AssertionError("jump_constants called before the output was allocated")

    monkeypatch.setattr(pcg64, "jump_constants", unreachable)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({**CASE1, "N": 10**12}))
    out = tmp_path / "out.csv"
    code = cli_module.main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: N is too large: its arrays cannot be allocated (")
    assert sorted(os.listdir(tmp_path)) == ["big.json"]


def test_cli_does_not_import_numpy_random(tmp_path, case1_config):
    # in a fresh interpreter, as the tests' own process imports numpy.random;
    # so do secrets and OpenSSL's _hashlib, which it pulls in
    code = (
        "import sys\n"
        "from lqpoison.cli import main\n"
        f"assert main(['simulate', '--config', {case1_config!r}, "
        f"'--out', {str(tmp_path / 'data.csv')!r}]) == 0\n"
        f"assert main(['reproduce', 'case1', '--out', {str(tmp_path / 'case1')!r}]) == 0\n"
        "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"

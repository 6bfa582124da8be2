import json
import os
from pathlib import Path
import warnings

import numpy as np
import pytest

from lqpoison import linalg
from lqpoison.data import BatchDataset, ExcitationPolicy
from lqpoison.errors import IdentifiabilityError
from lqpoison.lq import LQSystem, care_solve
from lqpoison.pipeline import (
    DIVERGENCE_NORM,
    SETTLE_FRAC,
    ClosedLoopResult,
    Scenario,
    evaluate_closed_loop,
    report_write,
    run_attack,
    run_learner,
    run_scenario,
    settling_step,
    trajectory_write,
)
from lqpoison.poison import AdmmConfig


def sequential_rollout(sys, K, horizon):
    """Reference oracle: the step-by-step closed-loop recursion x <- Fx + GKx."""
    K = linalg.as_matrix(K, "K")
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    states = [sys.x0.copy()]
    cost = 0.0
    x = sys.x0.copy()
    diverged = False
    for _ in range(horizon):
        u = K @ x
        cost += float(x @ sys.Q @ x + u @ sys.R @ u) * sys.dt
        x = F @ x + G @ u
        states.append(x.copy())
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            diverged = True
            break
    return ClosedLoopResult(states=np.array(states), cost=cost, diverged=diverged)


def assert_matches_oracle(sys, K, horizon):
    ref = sequential_rollout(sys, K, horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = evaluate_closed_loop(sys, K, horizon)
    assert res.states.shape == ref.states.shape
    assert res.diverged == ref.diverged
    scale = np.max(np.linalg.norm(ref.states, axis=1))
    assert np.max(np.abs(res.states - ref.states)) <= 1e-9 * scale
    assert abs(res.cost - ref.cost) <= 1e-12 * abs(ref.cost)
    return res


def csv_reference(header, dt, rows):
    """Reference formatting: one ``repr(float(v))`` per value, joined in memory."""
    lines = [",".join(header)]
    for k, row in enumerate(rows):
        lines.append(",".join([str(k), repr(k * dt)] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


class TestRunLearner:
    def test_clean_case1_matches_true_gain(self, case1, case1_clean_learner):
        s = case1.system
        est, sol = case1_clean_learner
        K_true = care_solve(s.A, s.B, s.Q, s.R).K
        assert np.max(np.abs(est.Ahat - s.A)) <= 1e-6
        assert np.max(np.abs(sol.K - K_true)) <= 1e-4

    def test_unidentifiable_data(self):
        d = BatchDataset(
            xs=np.zeros((20, 2)), us=np.zeros((20, 1)), cs=np.zeros(20), dt=0.1
        )
        with pytest.raises(IdentifiabilityError):
            run_learner(d, np.eye(2), np.eye(1))


class TestRunAttack:
    def test_self_target_is_free(self, case1, case1_data, case1_clean_learner):
        _, sol = case1_clean_learner
        result = run_attack(case1_data, sol.K, case1.admm)
        assert result.attack_cost <= 1e-10
        assert result.converged

    def test_case1_target(self, case1, case1_attack):
        _, sol = run_learner(case1_attack.poisoned, case1.system.Q, case1.system.R)
        assert np.max(np.abs(sol.K - case1.Ktarget)) <= 0.2

    def test_result_invariants(self, case1_data, case1_attack):
        assert np.array_equal(case1_attack.poisoned.us, case1_data.us)
        assert np.array_equal(case1_attack.poisoned.cs, case1_data.cs)
        assert np.array_equal(case1_attack.poisoned.xs[0], case1_data.xs[0])


class TestEvaluateClosedLoop:
    def test_stable_gain_decays(self, case1):
        s = case1.system
        K = care_solve(s.A, s.B, s.Q, s.R).K
        res = evaluate_closed_loop(s, K, 2000)
        assert not res.diverged
        assert np.linalg.norm(res.states[-1]) < 0.01 * np.linalg.norm(s.x0)

    def test_zero_gain_on_stable_plant_costs_state_only(self):
        sys = LQSystem(
            A=-np.eye(2), B=np.eye(2), Q=2.0 * np.eye(2), R=np.eye(2),
            x0=np.array([1.0, 2.0]), dt=0.01,
        )
        res = evaluate_closed_loop(sys, np.zeros((2, 2)), 500)
        from lqpoison.linalg import zoh_pair

        F, _ = zoh_pair(sys.A, sys.B, sys.dt)
        x = sys.x0.copy()
        expected = 0.0
        for _ in range(500):
            expected += float(x @ sys.Q @ x) * sys.dt
            x = F @ x
        assert res.cost == pytest.approx(expected, rel=1e-12)

    def test_unstable_gain_flagged(self, case1):
        s = case1.system
        K = np.zeros((s.m, s.n))  # open loop is unstable for case1
        res = evaluate_closed_loop(s, K, 100000)
        assert res.diverged
        assert len(res.states) < 100001


class TestBlockRolloutMatchesSequential:
    """The block-power rollout against the step-by-step recursion."""

    @pytest.fixture(scope="class", params=["case1", "case2"])
    def case_gains(self, request):
        scenario = request.getfixturevalue(request.param)
        s = scenario.system
        d = request.getfixturevalue(f"{request.param}_data")
        Kstar = care_solve(s.A, s.B, s.Q, s.R).K
        _, clean = run_learner(d, s.Q, s.R)
        attack = run_attack(d, scenario.Ktarget, scenario.admm)
        _, poisoned = run_learner(attack.poisoned, s.Q, s.R)
        return scenario, (Kstar, clean.K, poisoned.K)

    def test_optimal_and_learned_gains(self, case_gains):
        scenario, gains = case_gains
        for K in gains:
            res = assert_matches_oracle(scenario.system, K, scenario.horizon)
            assert res.states.shape == (scenario.horizon + 1, scenario.system.n)

    @pytest.mark.parametrize("horizon", [0, 1, 255, 256, 257, 1000])
    def test_block_boundaries(self, case1, horizon):
        s = case1.system
        K = care_solve(s.A, s.B, s.Q, s.R).K
        res = assert_matches_oracle(s, K, horizon)
        assert res.states.shape == (horizon + 1, s.n)
        assert np.array_equal(res.states[0], s.x0)
        assert not res.diverged
        if horizon == 0:
            assert res.cost == 0.0

    def test_open_loop_cut_at_same_step(self, case1):
        s = case1.system
        res = assert_matches_oracle(s, np.zeros((s.m, s.n)), 100000)
        assert res.diverged
        assert np.linalg.norm(res.states[-1]) > DIVERGENCE_NORM
        assert np.all(np.linalg.norm(res.states[:-1], axis=1) <= DIVERGENCE_NORM)

    def test_strongly_unstable_gain_no_overflow_warning(self, case1):
        s = case1.system
        F, G = linalg.zoh_pair(s.A, s.B, s.dt)
        K = 2000.0 * np.linalg.pinv(G)  # G K = 2000 * projector onto range(G)
        M = F + G @ K
        assert linalg.spectral_radius(M) >= 1e3
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(np.linalg.matrix_power(M, 256)))
        res = assert_matches_oracle(s, K, 1000)
        assert res.diverged

    def test_overflowing_power_on_unexcited_mode(self):
        # M = diag(1e200, 0.5) and x0 = e2: M^2 overflows, yet the state
        # decays and never leaves the limit, so no NaN may cut the run.
        sys = LQSystem(
            A=np.diag([0.5, -1.0]), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
            x0=np.array([0.0, 1.0]), dt=0.1,
        )
        F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
        K = np.linalg.solve(G, np.diag([1e200, 0.5]) - F)
        res = assert_matches_oracle(sys, K, 600)
        assert not res.diverged
        assert res.states.shape == (601, 2)

    def test_negative_horizon_rejected(self, case1):
        s = case1.system
        with pytest.raises(ValueError, match="horizon"):
            evaluate_closed_loop(s, np.zeros((s.m, s.n)), -1)


def settling_step_brute(states):
    norms = np.linalg.norm(states, axis=1)
    below = norms < SETTLE_FRAC * norms[0]
    for k in range(len(norms)):
        if below[k:].all():
            return k
    return None


class TestSettlingStep:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        cases = [
            np.ones((1, 2)),
            np.zeros((1, 3)),
            np.ones((40, 2)),  # never settles
            np.vstack([np.ones((1, 2)), 0.01 * np.ones((30, 2))]),  # all below
            np.array([[1.0], [0.01], [0.9], [0.01], [0.01]]),  # relapse
        ]
        for _ in range(200):
            N = int(rng.integers(1, 60))
            decay = np.exp(-rng.uniform(0, 0.3) * np.arange(N))[:, None]
            cases.append(rng.normal(size=(N, int(rng.integers(1, 4)))) * decay)
        for states in cases:
            assert settling_step(states) == settling_step_brute(states)
        assert settling_step(cases[3]) == 1
        assert settling_step(cases[2]) is None and settling_step(cases[0]) is None

    def test_monotone_decay(self):
        states = np.array([[1.0], [0.5], [0.04], [0.03], [0.02]])
        assert settling_step(states) == 2

    def test_never_settles(self):
        states = np.ones((10, 1))
        assert settling_step(states) is None

    def test_relapse_pushes_settling_later(self):
        states = np.array([[1.0], [0.01], [0.9], [0.01], [0.01]])
        assert settling_step(states) == 3


class TestRunScenario:
    def test_case1_report_consistency(self, case1):
        report = run_scenario(case1, "case1")
        assert report.errors == {}
        recomputed = float(
            np.linalg.norm(report.Khat_poisoned - report.Ktarget, "fro")
        )
        assert abs(report.gain_error_to_target - recomputed) <= 1e-12
        assert abs(report.attack_cost - report.attack_cost_series[-1]) <= 1e-12 * (
            1.0 + report.attack_cost
        )
        assert report.clean_trajectory.shape[0] == case1.horizon + 1
        assert set(report.timings) == {
            "optimal_gain", "simulate", "learn_clean", "attack",
            "learn_poisoned", "evaluate",
        }

    def test_learner_determinism(self, case1):
        a = run_scenario(case1, "case1")
        b = run_scenario(case1, "case1")
        assert np.array_equal(a.Khat_clean, b.Khat_clean)
        assert np.array_equal(a.Khat_poisoned, b.Khat_poisoned)
        assert np.array_equal(a.Atilde, b.Atilde)

    def test_partial_report_on_stage_failure(self, case1):
        import dataclasses

        bad = dataclasses.replace(case1, Ktarget=np.ones((3, 3)))
        report = run_scenario(bad, "broken")
        assert "attack" in report.errors
        assert report.Khat_clean is not None
        assert report.Khat_poisoned is None

    def test_attack_never_benefits_victim(self, case1, case2):
        for scenario, name in ((case1, "case1"), (case2, "case2")):
            report = run_scenario(scenario, name)
            assert report.poisoned_cost >= report.clean_cost


class TestReportWrite:
    def test_files_and_schema(self, tmp_path, case1):
        report = run_scenario(case1, "case1")
        outdir = str(tmp_path / "out")
        report_write(report, outdir, case1.system.dt)
        with open(os.path.join(outdir, "report.json")) as fh:
            doc = json.load(fh)
        assert set(doc) == {
            "scenario", "Kstar", "Khat_clean", "Atilde", "Khat_poisoned",
            "Ktarget", "gain_error_to_target", "attack_cost", "converged",
            "admm_residuals",
        }
        assert doc["scenario"] == "case1"
        np.testing.assert_allclose(np.array(doc["Khat_poisoned"]), report.Khat_poisoned)
        for name in (
            "timings.json", "clean_trajectory.csv",
            "poisoned_trajectory.csv", "attack_cost.csv",
        ):
            assert os.path.exists(os.path.join(outdir, name))
        header = Path(outdir, "clean_trajectory.csv").read_text().splitlines()[0]
        assert header == "step,t,x0,x1,x2,x3"
        header = Path(outdir, "attack_cost.csv").read_text().splitlines()[0]
        assert header == "step,cumulative_cost"

    def test_trajectory_csv_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(300, 3)) * np.logspace(-300, 300, 300)[:, None]
        states[7] = [0.0, -0.0, 1.0 / 3.0]
        states[9] = [np.inf, -np.inf, np.nan]
        path = str(tmp_path / "traj.csv")
        trajectory_write(path, states, 5e-5)
        header = ["step", "t", "x0", "x1", "x2"]
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == csv_reference(header, 5e-5, states)
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_write_is_deterministic(self, tmp_path, case1):
        report = run_scenario(case1, "case1")
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        report_write(report, d1, case1.system.dt)
        report_write(report, d2, case1.system.dt)
        for name in ("report.json", "clean_trajectory.csv", "attack_cost.csv"):
            assert Path(d1, name).read_bytes() == Path(d2, name).read_bytes()


class TestScenarioValidation:
    def test_n_too_small(self, case1):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(case1, N=4)

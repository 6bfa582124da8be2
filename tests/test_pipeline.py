import json
import os
from pathlib import Path
import tracemalloc
import warnings

import numpy as np
import pytest

from lqpoison import linalg
from lqpoison.config import reproduction_checks
from lqpoison.data import (
    CSV_PIECE_VALUES, BatchDataset, ExcitationPolicy, indexed_csv_lines, simulate_zoh,
)
from lqpoison.errors import ConvergenceError, DimensionError, IdentifiabilityError
from lqpoison.lq import LQSystem, care_solve, require_plant_kept
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
        if np.linalg.norm(x) > DIVERGENCE_NORM * np.linalg.norm(sys.x0):
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
    """Reference formatting: one ``repr(float(v))`` per value, joined in memory.

    ``dt=None`` leaves out the time column.
    """
    lines = [",".join(header)]
    for k, row in enumerate(rows):
        time = [repr(k * dt)] if dt is not None else []
        lines.append(",".join([str(k)] + time + [repr(float(v)) for v in row]))
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

    def test_wrong_sized_gain_is_named(self, case1):
        with pytest.raises(DimensionError, match=r"^K must be 2x4, got \(1, 3\)$"):
            evaluate_closed_loop(case1.system, np.ones((1, 3)), 10)


class TestGainThatLosesThePlant:
    """A gain so large that F + G K rounds F away is refused, not rolled out."""

    HUGE = [[1e200] * 4, [0.0] * 4]  # case1's x0 = (0.5, -0.5, 0.5, -0.5) is in its kernel

    def test_refused_where_the_step_recursion_diverges(self, case1):
        s = case1.system
        with np.errstate(over="ignore"):  # the oracle's cost overflows
            assert sequential_rollout(s, self.HUGE, 10).diverged
        with pytest.raises(ValueError, match="^gain is too large for the plant: .* at step 0$"):
            evaluate_closed_loop(s, self.HUGE, 1000)

    def test_bundled_target_passes(self, case1):
        res = assert_matches_oracle(case1.system, case1.Ktarget, case1.horizon)
        assert res.states.shape == (case1.horizon + 1, case1.system.n)

    def test_dither_gain_refused(self, case1):
        policy = ExcitationPolicy(kind="gain-plus-dither", amplitude=0.5, gain=np.array(self.HUGE))
        with pytest.raises(ValueError, match="^excitation gain is too large for the plant"):
            simulate_zoh(case1.system, policy, 50)

    # 1,000 states are checked in blocks of 32: a lost step last in its
    # block, first in its block, the last state, and the first of two
    @pytest.mark.parametrize("lost,step", [([31], 31), ([32], 32), ([999], 999),
                                           ([40, 700], 40)])
    def test_first_lost_step_is_named(self, lost, step):
        F = 0.5 * np.eye(2)
        GK = np.diag([1e200, 0.0])  # loses the step at every state with x[0] != 0
        states = np.tile([0.0, 1.0], (1000, 1))
        states[lost, 0] = 1.0
        with pytest.raises(ValueError, match=f"^gain is too large for the plant: .* at step {step}$"):
            require_plant_kept(F, GK, states, "gain")

    def test_check_footprint_is_one_block(self):
        # test_overflowing_power_on_unexcited_mode's gain passes, but only
        # after every state is checked; the parent's pass peaked at 2.24 MB
        sys = LQSystem(
            A=np.diag([0.5, -1.0]), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
            x0=np.array([0.0, 1.0]), dt=0.1,
        )
        F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
        K = np.linalg.solve(G, np.diag([1e200, 0.5]) - F)
        states = evaluate_closed_loop(sys, K, 40_000).states
        GK = G @ K
        tracemalloc.start()
        try:
            require_plant_kept(F, GK, states, "gain")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1e6


def test_evaluate_footprint_is_the_trajectory(case2):
    # the 40,001-state trajectory is 1.28 MB; with a squared copy of it for
    # the norms and a whole-trajectory x Q for the costs, this peaked at 3.25 MB
    s = case2.system
    K = care_solve(s.A, s.B, s.Q, s.R).K
    tracemalloc.start()
    try:
        res = evaluate_closed_loop(s, K, 40_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.diverged
    assert peak <= 2.25e6


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

    @pytest.mark.parametrize("horizon", [0, 1, 15, 16, 17, 255, 256, 257, 1000])
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
        cut = DIVERGENCE_NORM * np.linalg.norm(s.x0)
        assert np.linalg.norm(res.states[-1]) > cut
        assert np.all(np.linalg.norm(res.states[:-1], axis=1) <= cut)

    @pytest.mark.parametrize("scale", [0.0, 1e-10, 1.0, 1e8, 1e10, 1e100])
    def test_cut_relative_to_x0(self, case1, scale):
        # the closed loop is linear: a scaled x0 scales every state, and the
        # stabilizing loop neither diverges nor settles later at any scale
        s = case1.system
        sys = LQSystem(A=s.A, B=s.B, Q=s.Q, R=s.R, x0=scale * s.x0, dt=s.dt)
        K = care_solve(s.A, s.B, s.Q, s.R).K
        res = assert_matches_oracle(sys, K, case1.horizon)
        assert not res.diverged and res.states.shape == (case1.horizon + 1, s.n)
        assert settling_step(res.states) == (None if scale == 0.0 else 944)
        if scale == 0.0:
            assert not res.states.any() and res.cost == 0.0

    def test_x0_whose_norm_overflows_is_cut_at_once(self, case1):
        # ||x0|| overflows to inf, and so does every later state's norm: each
        # is past the cut, which stays finite
        s = case1.system
        sys = LQSystem(A=s.A, B=s.B, Q=s.Q, R=s.R, x0=1e155 * s.x0, dt=s.dt)
        K = care_solve(s.A, s.B, s.Q, s.R).K
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = evaluate_closed_loop(sys, K, case1.horizon)
        assert res.diverged and res.states.shape == (2, s.n)

    def test_strongly_unstable_gain_no_overflow_warning(self, case1):
        s = case1.system
        F, G = linalg.zoh_pair(s.A, s.B, s.dt)
        K = 2000.0 * np.linalg.pinv(G)  # G K = 2000 * projector onto range(G)
        M = F + G @ K
        assert np.max(np.abs(np.linalg.eigvals(M))) >= 1e3
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
        attack = report.attack
        assert abs(attack.attack_cost - attack.attack_cost_series[-1]) <= 1e-12 * (
            1.0 + attack.attack_cost
        )
        assert report.evaluate[0].states.shape[0] == case1.horizon + 1
        s = case1.system
        assert np.array_equal(report.optimal_gain.K, care_solve(s.A, s.B, s.Q, s.R).K)
        for est, sol in (report.learn_clean, report.learn_poisoned):
            # the Hamiltonian start already meets CARE_TOL on case1's models
            assert est.series_terms >= 1 and sol.iterations == 0
            assert np.array_equal(sol.K, care_solve(est.Ahat, est.Bhat, s.Q, s.R).K)
        assert set(report.timings) == {
            "optimal_gain", "simulate", "learn_clean", "attack",
            "learn_poisoned", "evaluate",
        }

    def test_learner_determinism(self, case1):
        a = run_scenario(case1, "case1")
        b = run_scenario(case1, "case1")
        assert np.array_equal(a.learn_clean[1].K, b.learn_clean[1].K)
        assert np.array_equal(a.learn_poisoned[1].K, b.learn_poisoned[1].K)
        assert np.array_equal(a.attack.Atilde, b.attack.Atilde)

    def test_partial_report_on_stage_failure(self, tmp_path, case1, monkeypatch):
        def diverge(spec, cfg):
            raise ConvergenceError("constraint residual exceeded the limit")

        monkeypatch.setattr("lqpoison.pipeline.admm_solve", diverge)
        report = run_scenario(case1, "broken")
        assert list(report.errors) == ["attack"]
        assert report.learn_clean is not None
        assert report.attack is None
        assert report.learn_poisoned is None and report.evaluate is None
        outdir = tmp_path / "out"
        report_write(report, str(outdir), case1.system.dt)
        assert sorted(os.listdir(outdir)) == ["report.json", "timings.json"]
        doc = json.loads((outdir / "report.json").read_text())
        assert doc.pop("Kstar") == report.optimal_gain.K.tolist()
        assert doc.pop("Khat_clean") == report.learn_clean[1].K.tolist()
        e = report.errors["attack"]
        assert doc.pop("errors") == {"attack": f"{type(e).__name__}: {e}"}
        # the failed attack and the stages after it add no keys
        assert doc == {"scenario": "broken", "Ktarget": case1.Ktarget.tolist()}

    def test_attack_never_benefits_victim(self, case1, case2):
        for scenario, name in ((case1, "case1"), (case2, "case2")):
            clean, poisoned = run_scenario(scenario, name).evaluate
            assert poisoned.cost >= clean.cost


class TestReportWrite:
    def test_files_and_schema(self, tmp_path, case1):
        report = run_scenario(case1, "case1")
        report.checks = reproduction_checks("case1", report, case1)
        outdir = str(tmp_path / "out")
        report_write(report, outdir, case1.system.dt)
        with open(os.path.join(outdir, "report.json")) as fh:
            doc = json.load(fh)
        assert set(doc) == {
            "scenario", "Kstar", "Khat_clean", "Atilde", "Khat_poisoned",
            "Ktarget", "gain_error_to_target", "attack_cost", "converged",
            "admm_residuals", "gain_error", "checks", "floor", "gain_attained",
            "certificate", "objective", "admm_iterations", "polish_iterations",
            "stationary",
        }
        assert doc["gain_error"] == report.attack.gain_error
        assert doc["checks"] == [
            {"label": label, "ok": ok, "detail": detail} for label, ok, detail, *_ in report.checks
        ]
        assert doc["scenario"] == "case1"
        Khat_poisoned = report.learn_poisoned[1].K
        np.testing.assert_allclose(np.array(doc["Khat_poisoned"]), Khat_poisoned)
        recomputed = float(np.linalg.norm(Khat_poisoned - report.Ktarget, "fro"))
        assert doc["gain_error_to_target"] == recomputed
        assert doc["attack_cost"] == report.attack.attack_cost
        assert doc["admm_residuals"] == report.attack.residuals
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

    # the value columns, in the blocks the writer takes, and the time step:
    # attack_cost.csv, a case trajectory, an n = 10, m = 3 and an n = 10, m = 4 dataset
    @pytest.mark.parametrize("widths,dt", [((1,), None), ((4,), 0.01), ((10, 3, 1), 0.01),
                                           ((10, 4, 1), 0.01)],
                             ids=["2-columns", "6-columns", "16-columns", "17-columns"])
    @pytest.mark.parametrize("pieces,extra", [(1, 0), (1, 1), (2, 3)],
                             ids=["1-piece", "1-piece+1", "2-pieces+3"])
    def test_csv_bytes_across_pieces(self, widths, dt, pieces, extra):
        columns = 1 + (dt is not None) + sum(widths)
        rows = pieces * (CSV_PIECE_VALUES // columns) + extra
        values = np.random.default_rng(rows).normal(size=(rows, sum(widths)))
        blocks = np.split(values, np.cumsum(widths)[:-1], axis=1)
        header = [f"c{i}" for i in range(columns)]
        same = "".join(indexed_csv_lines(header, dt, *blocks)) == csv_reference(header, dt, values)
        assert same  # a bare bool: pytest's diff of two long texts takes minutes

    # blocks above 16 pieces take a 16th of their values per piece, up to
    # twice CSV_PIECE_VALUES: a trajectory of 4 states (1,365-row pieces past
    # 21,845 rows) and a 16-column dataset (rows // 16 rows per piece), each
    # ending a row before, at and after a piece boundary
    @pytest.mark.parametrize("widths,dt,rows,piece_rows,pieces", [
        ((4,), 5e-5, 40_001, 1365, 30),
        ((4,), 5e-5, 29 * 1365 - 1, 1365, 29),
        ((4,), 5e-5, 29 * 1365, 1365, 29),
        ((4,), 5e-5, 29 * 1365 + 1, 1365, 30),
        ((10, 3, 1), 0.01, 5000, 312, 17),
        ((10, 3, 1), 0.01, 16 * 312 - 1, 311, 17),
        ((10, 3, 1), 0.01, 16 * 312, 312, 16),
        ((10, 3, 1), 0.01, 16 * 312 + 1, 312, 17),
    ])
    def test_csv_bytes_across_block_sized_pieces(self, widths, dt, rows, piece_rows, pieces):
        columns = 2 + sum(widths)
        values = np.random.default_rng(rows).normal(size=(rows, sum(widths)))
        blocks = np.split(values, np.cumsum(widths)[:-1], axis=1)
        header = [f"c{i}" for i in range(columns)]
        lines = list(indexed_csv_lines(header, dt, *blocks))
        assert len(lines) == 1 + pieces
        assert lines[1].count("\n") == piece_rows
        same = "".join(lines) == csv_reference(header, dt, values)
        assert same

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

    @pytest.mark.parametrize("field,value,error,message", [
        ("Ktarget", np.ones((1, 4)), DimensionError, r"^Ktarget must be 2x4, got \(1, 4\)$"),
        ("excitation", ExcitationPolicy(kind="gain-plus-dither", gain=np.ones((1, 4))),
         DimensionError, r"^excitation gain must be 2x4, got \(1, 4\)$"),
        ("horizon", -1, ValueError, "^horizon must be non-negative, got -1$"),
    ], ids=["Ktarget", "dither-gain", "horizon"])
    def test_field_refused_at_construction(self, case1, field, value, error, message):
        import dataclasses

        with pytest.raises(error, match=message):
            dataclasses.replace(case1, **{field: value})

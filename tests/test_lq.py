import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import random_stabilizable
from lqpoison import linalg, lq
from lqpoison.errors import ConvergenceError, DimensionError, LearnabilityError, StabilityError
from lqpoison.lq import LQSystem, care_solve, is_stabilizing, lqr_gain
from lqpoison.poison import AttackSpec

SQRT2 = math.sqrt(2.0)


def care_residual(A, B, Q, R, P):
    """The CARE residual norm, formed as ``care_solve`` forms it, and the
    bound it is accepted under: max(CARE_TOL (1 + ||P||_F), u), where
    u = n eps || |A|^T |P| + |P| |A| + |P| |S| |P| + |Q| ||_F is the
    residual's componentwise rounding bound and S = B R^-1 B^T."""
    S = B @ np.linalg.inv(R) @ B.T
    r = float(np.linalg.norm(A.T @ P + P @ A - P @ S @ P + Q, "fro"))
    aP = np.abs(P)
    u = A.shape[0] * np.finfo(float).eps * float(np.linalg.norm(
        np.abs(A).T @ aP + aP @ np.abs(A) + aP @ np.abs(S) @ aP + np.abs(Q), "fro"))
    return r, max(lq.CARE_TOL * (1.0 + np.linalg.norm(P, "fro")), u)


def zoh_interval_cost(A, B, Q, R, dt):
    """Oracle: exact cost matrix of one ZOH interval via the block exponential.

    Returns W such that the integral of x' Q x + u' R u over one interval
    with constant u equals [x; u]' W [x; u].
    """
    n, m = A.shape[0], B.shape[1]
    na = n + m
    M = np.block([[A, B], [np.zeros((m, na))]])
    Wd = np.block([[Q, np.zeros((n, m))], [np.zeros((m, n)), R]])
    Z = np.block([[-M.T, Wd], [np.zeros((na, na)), M]])
    E = scipy.linalg.expm(Z * dt)
    return E[na:, na:].T @ E[:na, na:]


class TestCareSolve:
    def test_scalar_integrator(self):
        sol = care_solve([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert sol.K[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_scalar_unstable(self):
        sol = care_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(1.0 + SQRT2, abs=1e-9)
        assert sol.K[0, 0] == pytest.approx(-(1.0 + SQRT2), abs=1e-9)

    def test_case1_against_scipy(self, case1):
        s = case1.system
        sol = care_solve(s.A, s.B, s.Q, s.R)
        P_ref = scipy.linalg.solve_continuous_are(s.A, s.B, s.Q, s.R)
        np.testing.assert_allclose(sol.P, P_ref, rtol=1e-8, atol=1e-10)
        assert sol.iterations == 0  # the Hamiltonian start already meets CARE_TOL

    def test_case2_against_scipy(self, case2):
        s = case2.system
        sol = care_solve(s.A, s.B, s.Q, s.R)
        P_ref = scipy.linalg.solve_continuous_are(s.A, s.B, s.Q, s.R)
        np.testing.assert_allclose(sol.P, P_ref, rtol=1e-7, atol=1e-9)
        assert sol.iterations == 0

    def test_solution_invariants_random(self):
        # the first 25 draws, and three whose residual cannot meet CARE_TOL
        rng = np.random.default_rng(5)
        for draw in range(1993):
            A, B, Q, R = random_stabilizable(rng)
            if draw >= 25 and draw not in (1314, 1553, 1992):
                continue
            sol = care_solve(A, B, Q, R)
            r, bound = care_residual(A, B, Q, R, sol.P)
            assert r <= bound
            np.testing.assert_allclose(sol.K, -np.linalg.inv(R) @ B.T @ sol.P, atol=1e-10)
            assert linalg.spectral_abscissa(A + B @ sol.K) < 0

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(6)
        A, B, Q, R = random_stabilizable(rng, n=3, m=2)
        K1 = care_solve(A, B, Q, R).K
        K2 = care_solve(A, B, 7.5 * Q, 7.5 * R).K
        assert np.max(np.abs(K1 - K2)) <= 1e-8

    # the unstable mode at 0.5 is reached only through a 1e-7 input weight
    WEAK = np.diag([1.0, 0.5]), np.array([[1.0], [1e-7]])

    def test_weakly_controllable_plant(self):
        # Newton-Kleinman refines the Hamiltonian start in four steps. The
        # start is 22 % off scipy's P, yet its residual is within the
        # normwise rounding eps (||Q|| + 2 ||A|| ||P|| + ||P||^2 ||S||): only
        # the componentwise bound tells that it is not converged.
        A, B = self.WEAK
        sol = care_solve(A, B, np.eye(2), np.eye(1))
        P_ref = scipy.linalg.solve_continuous_are(A, B, np.eye(2), np.eye(1))
        np.testing.assert_allclose(sol.P, P_ref, rtol=1e-8)
        assert sol.iterations == 4
        assert linalg.spectral_abscissa(A + B @ sol.K) < 0

    def test_stalled_refinement_raises(self, monkeypatch):
        # a step that doubles the Lyapunov solution raises the residual
        lyap_solve = lq.lyap_solve
        monkeypatch.setattr(lq, "lyap_solve", lambda Acl, S: 2.0 * lyap_solve(Acl, S))
        A, B = self.WEAK
        with pytest.raises(ConvergenceError, match=r"^Riccati refinement stalled: residual "
                           r"\S+ after \S+, above its rounding \S+$"):
            care_solve(A, B, np.eye(2), np.eye(1))

    def test_non_finite_residual_raises_at_once(self):
        # the start P = 2e160 is right, but P S P overflows; no warning escapes
        with pytest.raises(ConvergenceError,
                           match="^Riccati residual is not finite after 0 steps$"):
            care_solve([[1e160]], [[1.0]], [[1.0]], [[1.0]])

    def test_sweep_stops_within_rounding(self):
        # 300 random plants, n in 2..10, m in 1..3, Q = I, R = I. Draws 10,
        # 125 and 227 never meet CARE_TOL for long, and at rounding level
        # Newton steps move P away from scipy's; their starts are within u
        rng = np.random.default_rng(0)
        for draw in range(300):
            n, m = rng.integers(2, 11), rng.integers(1, 4)
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
            Q, R = np.eye(n), np.eye(m)
            sol = care_solve(A, B, Q, R)
            r, bound = care_residual(A, B, Q, R, sol.P)
            assert r <= bound, draw
            if draw in (10, 125, 227):
                P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
                assert np.linalg.norm(sol.P - P_ref) <= 1e-8 * np.linalg.norm(P_ref), draw

    def test_unstabilizable_pair(self):
        for A, B, Q in (
            ([[1.0]], [[0.0]], [[1.0]]),  # unstable and uncontrollable: X_1 is singular
            ([[0.0]], [[1.0]], [[0.0]]),  # the Hamiltonian's eigenvalues are both 0
        ):
            with pytest.raises(StabilityError, match="could not find an initial stabilizing gain"):
                care_solve(A, B, Q, [[1.0]])

    def test_overflowing_start_is_refused(self):
        # B R^-1 B^T overflows: the start is not finite, which is a
        # StabilityError and not the gain check's "non-finite entries"
        with pytest.raises(StabilityError, match="could not find an initial stabilizing gain"):
            care_solve([[0.0]], [[1e200]], [[1.0]], [[1.0]])

    def test_wrong_sized_q_not_broadcast(self, case1):
        # a 1x1 Q must not broadcast to the all-ones 4x4 matrix
        with pytest.raises(DimensionError, match="^Q must be 4x4"):
            care_solve(case1.system.A, case1.system.B, [[1.0]], case1.system.R)

    def test_deterministic(self, case1):
        s = case1.system
        a = care_solve(s.A, s.B, s.Q, s.R)
        b = care_solve(s.A, s.B, s.Q, s.R)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.K, b.K)


class TestLqrGain:
    def test_identity(self):
        np.testing.assert_allclose(lqr_gain(np.eye(2), np.eye(2), np.eye(2)), -np.eye(2))

    def test_scalar(self):
        K = lqr_gain([[1.0 + SQRT2]], [[1.0]], [[1.0]])
        assert K[0, 0] == pytest.approx(-(1.0 + SQRT2))

    def test_case2_reference(self, case2):
        from lqpoison.config import CASE2_KSTAR_REF

        s = case2.system
        sol = care_solve(s.A, s.B, s.Q, s.R)
        K = lqr_gain(sol.P, s.B, s.R)
        assert np.max(np.abs(K - CASE2_KSTAR_REF)) <= 0.05

    def test_singular_r(self):
        with pytest.raises(ValueError):
            lqr_gain(np.eye(2), np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("wrong", ["P", "R"])
    def test_wrong_sized_p_or_r_is_named(self, wrong):
        P, B, R = np.eye(2), np.eye(2), np.eye(2)
        if wrong == "P":
            P = np.eye(3)
        else:
            R = np.eye(3)
        with pytest.raises(DimensionError, match=rf"^{wrong} must be 2x2, got \(3, 3\)$"):
            lqr_gain(P, B, R)


class TestIsStabilizing:
    def test_open_loop_stable(self):
        assert is_stabilizing(-np.eye(2), np.eye(2), 0.01 * np.ones((2, 2)))

    def test_uncontrollable_unstable(self):
        assert not is_stabilizing([[1.0]], [[0.0]], [[5.0]])

    def test_case1_target_gain_evaluated(self, case1):
        # recorded, not asserted either way: just has to evaluate cleanly
        result = is_stabilizing(case1.system.A, case1.system.B, case1.Ktarget)
        assert isinstance(result, bool)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            is_stabilizing(np.eye(2), np.eye(2), np.ones((1, 3)))

    def test_b_rows_checked_against_a(self):
        with pytest.raises(DimensionError, match=r"^B must be 2x2, got \(3, 2\)"):
            is_stabilizing(np.eye(2), np.ones((3, 2)), np.ones((2, 2)))


class TestOptimalValue:
    """The optimal cost-to-go from x0 is x0' P x0 with P from ``care_solve``."""

    def test_scalar_care(self):
        sol = care_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0, 0] == pytest.approx(1.0 + SQRT2, abs=1e-9)

    def test_lower_bounds_trajectory_cost(self):
        # any ZOH-implemented stabilizing policy is an admissible control,
        # so its exact trajectory cost can never undercut x0' P x0
        rng = np.random.default_rng(7)
        dt = 0.01
        for _ in range(5):
            n = 2
            A = rng.normal(size=(n, n))
            A -= (linalg.spectral_abscissa(A) + 1.0) * np.eye(n)
            B = rng.normal(size=(n, 1))
            Q, R = np.eye(n), np.eye(1)
            x0 = rng.normal(size=n)
            sol = care_solve(A, B, Q, R)
            F, G = linalg.zoh_pair(A, B, dt)
            for _ in range(3):
                while True:
                    K = sol.K + rng.normal(size=sol.K.shape)
                    if linalg.spectral_abscissa(A + B @ K) < -0.1:
                        break
                W = zoh_interval_cost(A, B, Q, R, dt)
                Fc = F + G @ K
                x = x0.copy()
                cost = 0.0
                for _ in range(200000):
                    z = np.concatenate([x, K @ x])
                    cost += float(z @ W @ z)
                    x = Fc @ x
                    if np.linalg.norm(x) <= 1e-9 * np.linalg.norm(x0):
                        break
                assert np.linalg.norm(x) <= 1e-9 * np.linalg.norm(x0)
                assert float(x0 @ sol.P @ x0) <= cost + 1e-9 * (1.0 + cost)


class TestLQSystem:
    def test_learnability_gate_at_pi(self):
        # The one condition is max |Im eig(A)| dt < pi: a rotation at
        # omega dt = 1.1 pi aliases and 0.9 pi does not, and a real
        # eigenvalue never aliases, so A = 2I at dt = 1 is learnable.
        def plant(A):
            return LQSystem(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                            x0=np.zeros(2), dt=1.0)

        rotation = np.array([[0.0, np.pi], [-np.pi, 0.0]])
        with pytest.raises(LearnabilityError, match="= 3.456 >= pi"):
            plant(1.1 * rotation)
        plant(0.9 * rotation)
        plant(2.0 * np.eye(2))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            LQSystem(
                A=-np.eye(2),
                B=np.eye(2),
                Q=np.diag([1.0, -1.0]),
                R=np.eye(2),
                x0=np.zeros(2),
                dt=0.1,
            )

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            LQSystem(
                A=-np.eye(2),
                B=np.eye(2),
                Q=np.eye(2),
                R=np.eye(2),
                x0=np.zeros(2),
                dt=0.0,
            )

    @pytest.mark.parametrize("x0,message", [
        ([0.0, 0.0, 0.0], "x0 must have length 2, got 3"),
        ([[1.0, 0.0], [0.0, 1.0]], "x0 must be a vector, got ndim=2"),
        (0.0, "x0 must be a vector, got ndim=0"),
    ])
    def test_x0_must_be_a_state_vector(self, x0, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            LQSystem(A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2), x0=x0, dt=0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_x0(self, bad):
        with pytest.raises(ValueError, match="^x0 has non-finite entries"):
            LQSystem(A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                     x0=[bad, 0.0], dt=0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            LQSystem(
                A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2), x0=np.zeros(2), dt=dt
            )

    @pytest.mark.parametrize("N", [0, 1, 4095, 4096, 4097, 3 * 4096 + 1, 40_001])
    def test_stage_costs_blocks_match_one_shot_formula(self, N):
        rng = np.random.default_rng(N)
        Qr, Rr = rng.normal(size=(4, 4)), rng.normal(size=(2, 2))
        Q, R = Qr @ Qr.T, Rr @ Rr.T + np.eye(2)
        sys = LQSystem(A=-np.eye(4), B=rng.normal(size=(4, 2)), Q=Q, R=R,
                       x0=np.zeros(4), dt=0.1)
        xs, us = rng.normal(size=(N, 4)), rng.normal(size=(N, 2))
        one_shot = np.einsum("ki,ki->k", xs @ Q, xs) + np.einsum("ki,ki->k", us @ R, us)
        assert np.array_equal(sys.stage_costs(xs, us), one_shot)

    def test_stage_costs_footprint_is_a_block(self, case2):
        # the one-shot formula peaked at 1.60 MB here: x Q was a second copy of xs
        rng = np.random.default_rng(7)
        xs, us = rng.normal(size=(40_001, 4)), rng.normal(size=(40_001, 1))
        tracemalloc.start()
        try:
            case2.system.stage_costs(xs, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6


def _lq_system(A, B, Q, R):
    return LQSystem(A=A, B=B, Q=Q, R=R, x0=np.zeros(A.shape[0]), dt=0.01)


def _attack_spec(A, B, Q, R):
    Kt = np.zeros((B.shape[1], A.shape[0]))
    return AttackSpec(Ahat=A, Bhat=B, Qhat=Q, Rhat=R, Ktarget=Kt)


@pytest.mark.parametrize("build, names", [
    (_lq_system, ("Q", "R")),
    (_attack_spec, ("Qhat", "Rhat")),
    (care_solve, ("Q", "R")),
], ids=["LQSystem", "AttackSpec", "care_solve"])
@pytest.mark.parametrize("wrong", ["Q", "R"])
def test_wrong_sized_cost_weight_is_named(case1, build, names, wrong):
    # every entry point checks (A, B, Q, R) the same way and names the culprit
    A, B, Q, R = case1.system.A, case1.system.B, case1.system.Q, case1.system.R
    n, m = B.shape
    if wrong == "Q":
        Q, name, shape = np.eye(n - 1), names[0], f"{n}x{n}"
    else:
        R, name, shape = np.eye(m + 1), names[1], f"{m}x{m}"
    with pytest.raises(DimensionError, match=f"^{name} must be {shape}, got"):
        build(A, B, Q, R)

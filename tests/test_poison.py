import numpy as np
import pytest

import lqpoison.poison as poison
from lqpoison import linalg
from lqpoison.data import BatchDataset
from lqpoison.errors import AdmmDivergenceError, DimensionError
from lqpoison.lq import care_solve
from lqpoison.poison import (
    AdmmConfig,
    AdmmState,
    AttackSpec,
    a_step,
    admm_solve,
    attack_cost,
    constraint_blocks,
    generate_poisoned,
    induced_gain,
    p_step,
    z_step,
)
from lqpoison.sysid import estimate_fg, identify, log_indirect


def make_state(spec, P=None, Z1=None, Z2=None, Atilde=None):
    n, m = spec.n, spec.m
    return AdmmState(
        Atilde=spec.Ahat.copy() if Atilde is None else np.asarray(Atilde, float),
        P=np.eye(n) if P is None else np.asarray(P, float),
        Z1=np.zeros((n, n)) if Z1 is None else np.asarray(Z1, float),
        Z2=np.zeros((m, n)) if Z2 is None else np.asarray(Z2, float),
    )


def a_objective(At, spec, state, cfg):
    C = state.P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    pen = At.T @ state.P + state.P @ At + C
    return (
        np.linalg.norm(At - spec.Ahat, "fro") ** 2
        + 0.5 * cfg.mu * np.linalg.norm(pen, "fro") ** 2
    )


@pytest.fixture(scope="module")
def case1_spec(case1, case1_data):
    est = identify(case1_data, eps=1e-10)
    from lqpoison.sysid import estimate_qr

    Qhat, Rhat = estimate_qr(case1_data)
    return AttackSpec(
        Ahat=est.Ahat, Bhat=est.Bhat, Qhat=Qhat, Rhat=Rhat, Ktarget=case1.Ktarget
    )


class TestAStep:
    def test_zero_p_returns_ahat(self, case1_spec):
        state = make_state(case1_spec, P=np.zeros((4, 4)))
        At = a_step(state, case1_spec, AdmmConfig())
        np.testing.assert_allclose(At, case1_spec.Ahat, atol=1e-12)

    def test_vanishing_mu_returns_ahat(self, case1_spec):
        sol = care_solve(
            case1_spec.Ahat, case1_spec.Bhat, case1_spec.Qhat, case1_spec.Rhat
        )
        state = make_state(case1_spec, P=sol.P)
        At = a_step(state, case1_spec, AdmmConfig(mu=1e-12))
        assert np.max(np.abs(At - case1_spec.Ahat)) <= 1e-8

    def test_scalar_calculus_oracle(self):
        # minimize (a-1)^2 + (mu/2)(2a + C)^2 with p=1, C=-2, mu=2: minimum at a=1
        spec = AttackSpec(
            Ahat=[[1.0]], Bhat=[[1.0]], Qhat=[[0.0]], Rhat=[[1.0]], Ktarget=[[-2.0]]
        )
        state = make_state(spec, P=[[1.0]])
        At = a_step(state, spec, AdmmConfig(mu=2.0))
        assert At[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_stationarity_vs_finite_differences(self, case1_spec):
        cfg = AdmmConfig()
        sol = care_solve(
            case1_spec.Ahat, case1_spec.Bhat, case1_spec.Qhat, case1_spec.Rhat
        )
        rng = np.random.default_rng(20)
        state = make_state(
            case1_spec, P=sol.P, Z1=0.1 * rng.normal(size=(4, 4))
        )
        At = a_step(state, case1_spec, cfg)

        def num_grad(A0):
            g = np.zeros_like(A0)
            h = 1e-6
            for i in range(4):
                for j in range(4):
                    Ap, Am = A0.copy(), A0.copy()
                    Ap[i, j] += h
                    Am[i, j] -= h
                    g[i, j] = (
                        a_objective(Ap, case1_spec, state, cfg)
                        - a_objective(Am, case1_spec, state, cfg)
                    ) / (2 * h)
            return g

        ref = np.linalg.norm(num_grad(case1_spec.Ahat), "fro")
        assert np.linalg.norm(num_grad(At), "fro") <= 1e-6 * (1.0 + ref)


class TestPStep:
    def test_exact_feasibility_returns_care_solution(self, case1_spec):
        sol = care_solve(
            case1_spec.Ahat, case1_spec.Bhat, case1_spec.Qhat, case1_spec.Rhat
        )
        spec = AttackSpec(
            Ahat=case1_spec.Ahat,
            Bhat=case1_spec.Bhat,
            Qhat=case1_spec.Qhat,
            Rhat=case1_spec.Rhat,
            Ktarget=sol.K,
        )
        state = make_state(spec, P=sol.P)
        P = p_step(state, spec, AdmmConfig())
        W1, W2 = constraint_blocks(spec.Ahat, P, spec)
        assert poison.residual_norm(W1, W2) <= 1e-9

    def test_scalar_exact_psd_solution(self):
        # blocks p(2*0.5 - 2) + 2 and -2 + p vanish together at p = 2
        spec = AttackSpec(
            Ahat=[[0.5]], Bhat=[[1.0]], Qhat=[[2.0]], Rhat=[[1.0]], Ktarget=[[-2.0]]
        )
        state = make_state(spec, P=[[1.0]], Atilde=[[0.5]])
        P = p_step(state, spec, AdmmConfig())
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_scalar_clipped_at_zero(self):
        # unconstrained minimizer of (p + 0.5)^2 + (1 + p)^2 sits at p = -0.75
        spec = AttackSpec(
            Ahat=[[0.0]], Bhat=[[1.0]], Qhat=[[0.5]], Rhat=[[1.0]], Ktarget=[[1.0]]
        )
        state = make_state(spec, P=[[1.0]], Atilde=[[0.0]])
        P = p_step(state, spec, AdmmConfig())
        assert P[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_indefinite_unconstrained_minimizer_2x2(self):
        # frozen instance whose unconstrained symmetric minimizer has
        # eigenvalues (-0.585, -0.111); the cone-constrained answer must be
        # PSD and at least as good as projecting that minimizer
        At = np.array([[2.04091912, -2.55566503], [0.41809885, -0.56776961]])
        Bh = np.array([[-0.45264929], [-0.21559716]])
        Kt = np.array([[-6.05995839, -0.69579713]])
        spec = AttackSpec(
            Ahat=At, Bhat=Bh, Qhat=0.5 * np.eye(2), Rhat=np.eye(1), Ktarget=Kt
        )
        cfg = AdmmConfig()
        state = make_state(spec, P=np.eye(2), Atilde=At)

        basis = []
        for i in range(2):
            E = np.zeros((2, 2))
            E[i, i] = 1.0
            basis.append(E)
        E = np.zeros((2, 2))
        E[0, 1] = E[1, 0] = 1.0 / np.sqrt(2.0)
        basis.append(E)
        Ac = At + Bh @ Kt
        D = np.column_stack(
            [
                np.concatenate(
                    [(At.T @ E + E @ Ac).flatten("F"), (Bh.T @ E).flatten("F")]
                )
                for E in basis
            ]
        )
        rhs = -np.concatenate(
            [spec.Qhat.flatten("F"), (spec.Rhat @ Kt).flatten("F")]
        )
        coef, *_ = np.linalg.lstsq(D, rhs, rcond=None)
        Pu = sum(c * E for c, E in zip(coef, basis))
        assert np.linalg.eigvalsh(Pu).min() < -0.05  # instance is genuinely clipped

        def obj(P):
            W1, W2 = constraint_blocks(At, P, spec)
            return poison.residual_norm(W1, W2) ** 2

        P = p_step(state, spec, cfg)
        assert np.linalg.eigvalsh(P).min() >= -1e-10
        assert obj(P) <= obj(linalg.psd_project(Pu)) + 1e-9


class TestZStep:
    def test_feasible_point_leaves_dual(self, case1_spec):
        sol = care_solve(
            case1_spec.Ahat, case1_spec.Bhat, case1_spec.Qhat, case1_spec.Rhat
        )
        spec = AttackSpec(
            Ahat=case1_spec.Ahat,
            Bhat=case1_spec.Bhat,
            Qhat=case1_spec.Qhat,
            Rhat=case1_spec.Rhat,
            Ktarget=sol.K,
        )
        state = make_state(spec, P=sol.P)
        W1, W2 = constraint_blocks(state.Atilde, state.P, spec)
        Z1a, Z2a = z_step(state, W1, W2, AdmmConfig())
        state.Z1, state.Z2 = Z1a, Z2a
        Z1b, Z2b = z_step(state, W1, W2, AdmmConfig())
        assert np.max(np.abs(Z1a)) <= 1e-10 and np.max(np.abs(Z2a)) <= 1e-10
        np.testing.assert_allclose(Z1b, Z1a, atol=1e-10)
        np.testing.assert_allclose(Z2b, Z2a, atol=1e-10)

    def test_unit_mu_copies_w(self, case1_spec):
        state = make_state(case1_spec, P=np.eye(4))
        W1, W2 = constraint_blocks(state.Atilde, state.P, case1_spec)
        Z1, Z2 = z_step(state, W1, W2, AdmmConfig(mu=1.0))
        np.testing.assert_allclose(Z1, W1)
        np.testing.assert_allclose(Z2, W2)


class TestAdmmSolve:
    def test_zero_attack_fixed_point(self, case1_spec):
        nominal = care_solve(
            case1_spec.Ahat, case1_spec.Bhat, case1_spec.Qhat, case1_spec.Rhat
        ).K
        spec = AttackSpec(
            Ahat=case1_spec.Ahat,
            Bhat=case1_spec.Bhat,
            Qhat=case1_spec.Qhat,
            Rhat=case1_spec.Rhat,
            Ktarget=nominal,
        )
        state = admm_solve(spec, AdmmConfig())
        assert state.converged
        assert np.linalg.norm(state.Atilde - spec.Ahat, "fro") <= 1e-6
        assert state.primal_residual <= 1e-6
        # feasibility at convergence: both blocks within the primal tolerance,
        # so the gain the learner extracts from P is the target
        W1, W2 = constraint_blocks(state.Atilde, state.P, spec)
        assert np.linalg.norm(W1, "fro") <= 1e-6
        assert np.linalg.norm(W2, "fro") <= 1e-6
        np.testing.assert_allclose(induced_gain(spec, state.P), nominal, atol=1e-5)

    def test_case1_induced_gain(self, case1_spec):
        state = admm_solve(case1_spec, AdmmConfig())
        K_ind = induced_gain(case1_spec, state.P)
        assert np.max(np.abs(K_ind - case1_spec.Ktarget)) <= 0.2
        assert len(state.residuals) == state.iter
        assert state.primal_residual == state.residuals[-1]

    def test_case2_induced_gain(self, case2, case2_data):
        from lqpoison.sysid import estimate_qr

        est = identify(case2_data, eps=1e-10)
        Qhat, Rhat = estimate_qr(case2_data)
        spec = AttackSpec(
            Ahat=est.Ahat, Bhat=est.Bhat, Qhat=Qhat, Rhat=Rhat, Ktarget=case2.Ktarget
        )
        state = admm_solve(spec, case2.admm)
        K_ind = induced_gain(spec, state.P)
        rel = np.abs((K_ind - case2.Ktarget) / case2.Ktarget)
        assert np.max(rel) <= 0.05

    def test_divergence_guard(self, case1_spec, monkeypatch):
        monkeypatch.setattr(poison, "DIVERGENCE_LIMIT", 1e-12)
        with pytest.raises(AdmmDivergenceError, match="penalty"):
            admm_solve(case1_spec, AdmmConfig(n_iter=3))


class TestGeneratePoisoned:
    def test_same_dynamics_reproduces_states(self, case1, case1_data):
        poisoned = generate_poisoned(case1.system.A, case1.system.B, case1_data)
        assert np.max(np.abs(poisoned.xs - case1_data.xs)) <= 1e-9

    def test_scalar_integrator(self):
        d = BatchDataset(
            xs=np.zeros((6, 1)), us=np.ones((6, 1)), cs=np.zeros(6), dt=0.1
        )
        poisoned = generate_poisoned([[0.0]], [[1.0]], d)
        np.testing.assert_allclose(
            poisoned.xs[:, 0], 0.1 * np.arange(6), atol=1e-15
        )

    def test_inputs_and_costs_untouched(self, case1_spec, case1_data):
        poisoned = generate_poisoned(
            case1_spec.Ahat + 0.3, case1_spec.Bhat, case1_data
        )
        assert np.array_equal(poisoned.us, case1_data.us)
        assert np.array_equal(poisoned.cs, case1_data.cs)
        assert np.array_equal(poisoned.xs[0], case1_data.xs[0])

    def test_dimension_mismatch(self, case1_data):
        with pytest.raises(DimensionError):
            generate_poisoned(np.eye(3), np.ones((3, 2)), case1_data)


class TestAttackCost:
    def test_identical_is_zero(self, case1_data):
        total, series = attack_cost(case1_data, case1_data)
        assert total == 0.0
        assert np.all(series == 0.0)

    def test_single_sample_norm(self):
        d1 = BatchDataset(xs=np.zeros((1, 2)), us=np.zeros((1, 1)), cs=np.zeros(1), dt=0.1)
        d2 = BatchDataset(xs=np.array([[2.0, 0.0]]), us=np.zeros((1, 1)), cs=np.zeros(1), dt=0.1)
        total, _ = attack_cost(d1, d2)
        assert total == pytest.approx(4.0)

    def test_unit_differences(self):
        d1 = BatchDataset(xs=np.zeros((5, 1)), us=np.zeros((5, 1)), cs=np.zeros(5), dt=0.1)
        d2 = BatchDataset(xs=np.ones((5, 1)), us=np.zeros((5, 1)), cs=np.zeros(5), dt=0.1)
        total, series = attack_cost(d1, d2)
        assert total == pytest.approx(5.0)
        np.testing.assert_allclose(series, np.arange(1, 6, dtype=float))

    def test_shape_mismatch(self, case1_data):
        other = BatchDataset(
            xs=np.zeros((3, 4)), us=np.zeros((3, 2)), cs=np.zeros(3), dt=0.01
        )
        with pytest.raises(DimensionError):
            attack_cost(case1_data, other)


class TestSelfConsistency:
    def test_learner_recovers_planted_dynamics(self, case1_attack, case1_data):
        model = estimate_fg(case1_attack.poisoned)
        Ahat, Bhat, _ = log_indirect(model.F, model.G, case1_data.dt, eps=1e-12)
        assert np.max(np.abs(Ahat - case1_attack.Atilde)) <= 1e-5


class TestAttackSpecValidation:
    def test_nonconformable_target(self, case1_spec):
        with pytest.raises(DimensionError):
            AttackSpec(
                Ahat=case1_spec.Ahat,
                Bhat=case1_spec.Bhat,
                Qhat=case1_spec.Qhat,
                Rhat=case1_spec.Rhat,
                Ktarget=np.ones((3, 3)),
            )

    def test_indefinite_rhat(self, case1_spec):
        with pytest.raises(ValueError):
            AttackSpec(
                Ahat=case1_spec.Ahat,
                Bhat=case1_spec.Bhat,
                Qhat=case1_spec.Qhat,
                Rhat=-np.eye(2),
                Ktarget=case1_spec.Ktarget,
            )

    def test_indefinite_qhat(self, case1_spec):
        with pytest.raises(ValueError, match="Qhat must be positive semidefinite"):
            AttackSpec(
                Ahat=case1_spec.Ahat,
                Bhat=case1_spec.Bhat,
                Qhat=np.diag([1.0, 1.0, 1.0, -1.0]),
                Rhat=case1_spec.Rhat,
                Ktarget=case1_spec.Ktarget,
            )

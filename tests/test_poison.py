import numpy as np
import pytest

import lqpoison.poison as poison
from lqpoison import linalg
from lqpoison.data import BatchDataset
from lqpoison.errors import AdmmDivergenceError, DimensionError
from lqpoison.lq import care_solve, lqr_gain
from lqpoison.poison import (
    AdmmConfig,
    AdmmState,
    AttackSpec,
    a_step,
    admm_solve,
    attack_cost,
    constraint_blocks,
    generate_poisoned,
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


def loop_a_step(state, spec, cfg):
    """Oracle: the A-step with its operator built one unit matrix at a time."""
    n = spec.n
    P = 0.5 * (state.P + state.P.T)
    C = P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    cols = np.empty((n * n, n * n))
    E = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            E[i, j] = 1.0
            cols[:, j * n + i] = (E.T @ P + P @ E).flatten("F")
            E[i, j] = 0.0
    H = 2.0 * np.eye(n * n) + cfg.mu * (cols.T @ cols)
    rhs = 2.0 * spec.Ahat.flatten("F") - cfg.mu * (cols.T @ C.flatten("F"))
    return np.linalg.solve(H, rhs).reshape((n, n), order="F")


def loop_p_lstsq(state, spec, cfg):
    """Oracle: the P-step's design matrix D and unconstrained minimizer Pu,
    built from a list of basis matrices one column at a time."""
    n = spec.n
    At, Bh = state.Atilde, spec.Bhat
    Ac = At + Bh @ spec.Ktarget
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    D = np.column_stack(
        [
            np.concatenate([(At.T @ E + E @ Ac).flatten("F"), (Bh.T @ E).flatten("F")])
            for E in basis
        ]
    )
    C1 = spec.Qhat + state.Z1 / cfg.mu
    C2 = spec.Rhat @ spec.Ktarget + state.Z2 / cfg.mu
    rhs = -np.concatenate([C1.flatten("F"), C2.flatten("F")])
    coef, *_ = np.linalg.lstsq(D, rhs, rcond=None)
    return D, sum(c * E for c, E in zip(coef, basis))


def random_admm_point(rng, n, m):
    """A random attack spec, ADMM iterate and penalty."""
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    Qr = rng.normal(size=(n, n))
    spec = AttackSpec(
        Ahat=A, Bhat=B, Qhat=Qr @ Qr.T, Rhat=np.eye(m) + np.diag(rng.random(m)),
        Ktarget=rng.normal(size=(m, n)),
    )
    Pr = rng.normal(size=(n, n))
    state = make_state(
        spec, P=Pr @ Pr.T, Z1=rng.normal(size=(n, n)), Z2=rng.normal(size=(m, n)),
        Atilde=A + 0.1 * rng.normal(size=(n, n)),
    )
    return spec, state, AdmmConfig(mu=float(10.0 ** rng.integers(0, 3)))


def indefinite_2x2_point():
    """Frozen instance whose unconstrained symmetric P-step minimizer has
    eigenvalues (-0.585, -0.111), so the projected-gradient branch runs."""
    At = np.array([[2.04091912, -2.55566503], [0.41809885, -0.56776961]])
    spec = AttackSpec(
        Ahat=At, Bhat=np.array([[-0.45264929], [-0.21559716]]), Qhat=0.5 * np.eye(2),
        Rhat=np.eye(1), Ktarget=np.array([[-6.05995839, -0.69579713]]),
    )
    return spec, make_state(spec, P=np.eye(2), Atilde=At), AdmmConfig()


class StopCall(Exception):
    """Raised by a spy to end the call under test once it has its arguments."""


def spy(monkeypatch, name, stop=False, owner=np.linalg):
    """Record the positional arguments of every ``owner.<name>`` call;
    with ``stop`` the first call raises ``StopCall`` after recording."""
    calls, orig = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        if stop:
            raise StopCall
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def a_objective(At, spec, state, cfg):
    C = state.P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    pen = At.T @ state.P + state.P @ At + C
    return (
        np.linalg.norm(At - spec.Ahat, "fro") ** 2
        + 0.5 * cfg.mu * np.linalg.norm(pen, "fro") ** 2
    )


def a_gradient(At, spec, state, cfg):
    """Gradient of ``a_objective`` in At."""
    C = state.P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
    pen = At.T @ state.P + state.P @ At + C
    return 2.0 * (At - spec.Ahat) + cfg.mu * state.P @ (pen + pen.T)


def degenerate_psd(rng, n):
    """A PSD matrix whose eigenvalues are 0 and 2, each repeated where n allows."""
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (V * np.where(np.arange(n) < (n + 1) // 2, 0.0, 2.0)) @ V.T


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


    def test_gradient_helper_matches_finite_differences(self):
        spec, state, cfg = random_admm_point(np.random.default_rng(30), 3, 2)
        At, h = state.Atilde, 1e-6
        num = np.zeros_like(At)
        for i, j in np.ndindex(At.shape):
            E = np.zeros_like(At)
            E[i, j] = h
            num[i, j] = (
                a_objective(At + E, spec, state, cfg) - a_objective(At - E, spec, state, cfg)
            ) / (2 * h)
        np.testing.assert_allclose(a_gradient(At, spec, state, cfg), num, rtol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 4, 10])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_gradient_vanishes_at_output(self, n, degenerate):
        # degenerate: P has repeated eigenvalues and a null space
        rng = np.random.default_rng(40 * n + degenerate)
        for _ in range(3):
            spec, state, cfg = random_admm_point(rng, n, 2)
            if degenerate:
                state.P = degenerate_psd(rng, n)
            At = a_step(state, spec, cfg)
            C = state.P @ spec.Bhat @ spec.Ktarget + spec.Qhat + state.Z1 / cfg.mu
            pen = At.T @ state.P + state.P @ At + C
            scale = np.linalg.norm(At - spec.Ahat) + cfg.mu * np.linalg.norm(
                state.P
            ) * np.linalg.norm(pen)
            assert np.linalg.norm(a_gradient(At, spec, state, cfg)) <= 1e-12 * scale


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
        # the cone-constrained answer must be PSD and at least as good as
        # projecting the indefinite unconstrained minimizer
        spec, state, cfg = indefinite_2x2_point()
        At = state.Atilde
        _, Pu = loop_p_lstsq(state, spec, cfg)
        assert np.linalg.eigvalsh(Pu).min() < -0.05  # instance is genuinely clipped

        def obj(P):
            W1, W2 = constraint_blocks(At, P, spec)
            return poison.residual_norm(W1, W2) ** 2

        P = p_step(state, spec, cfg)
        assert np.linalg.eigvalsh(P).min() >= -1e-10
        assert obj(P) <= obj(linalg.psd_project(Pu)) + 1e-9

    def test_rank_deficient_design_takes_minimum_norm_fallback(self, monkeypatch):
        # Bhat = 0 and a skew Atilde: the first block maps P to the commutator
        # P At - At P, which vanishes at P = I, so D has I in its kernel
        rng = np.random.default_rng(50)
        S = rng.normal(size=(3, 3))
        At = S - S.T
        Qr = rng.normal(size=(3, 3))
        spec = AttackSpec(
            Ahat=At, Bhat=np.zeros((3, 1)), Qhat=Qr @ Qr.T, Rhat=np.eye(1),
            Ktarget=rng.normal(size=(1, 3)),
        )
        state = make_state(spec, Atilde=At, Z1=rng.normal(size=(3, 3)))
        cfg = AdmmConfig()
        D, Pu = loop_p_lstsq(state, spec, cfg)
        assert np.linalg.matrix_rank(D) < D.shape[1]
        lstsq_calls = spy(monkeypatch, "lstsq")
        projections = spy(monkeypatch, "psd_project", stop=True, owner=linalg)
        with pytest.raises(StopCall):
            p_step(state, spec, cfg)
        assert len(lstsq_calls) == 1
        assert np.array_equal(projections[0][0], Pu)  # the minimum-norm answer


def rel_diff(X, ref):
    return np.linalg.norm(X - ref) / np.linalg.norm(ref)


class TestOperatorsMatchLoopOracles:
    """The eigenbasis A-step and the QR P-step agree with the per-entry loops:
    the design matrix D bitwise, the solutions to rounding."""

    @pytest.mark.parametrize("n", [1, 2, 4, 10])
    @pytest.mark.parametrize("m", [1, 3])
    def test_a_step(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for _ in range(3):
            spec, state, cfg = random_admm_point(rng, n, m)
            assert rel_diff(a_step(state, spec, cfg), loop_a_step(state, spec, cfg)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4, 10])
    @pytest.mark.parametrize("m", [1, 3])
    def test_p_step_design_and_minimizer(self, n, m, monkeypatch):
        rng = np.random.default_rng(200 * n + m)
        for _ in range(3):
            spec, state, cfg = random_admm_point(rng, n, m)
            D, Pu = loop_p_lstsq(state, spec, cfg)
            qr_calls = spy(monkeypatch, "qr")
            projections = spy(monkeypatch, "psd_project", stop=True, owner=linalg)
            with pytest.raises(StopCall):
                p_step(state, spec, cfg)
            monkeypatch.undo()
            assert np.array_equal(qr_calls[0][0][:, :-1], D)  # [D | rhs]
            assert rel_diff(projections[0][0], Pu) <= 1e-10

    def test_p_step_projected_gradient_branch(self, monkeypatch):
        spec, state, cfg = indefinite_2x2_point()
        D, Pu = loop_p_lstsq(state, spec, cfg)
        qr_calls = spy(monkeypatch, "qr")
        projections = spy(monkeypatch, "psd_project", owner=linalg)
        p_step(state, spec, cfg)
        assert len(projections) > 1  # the least-squares branch projects once
        assert np.array_equal(qr_calls[0][0][:, :-1], D)
        assert rel_diff(projections[0][0], Pu) <= 1e-10


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
        K_ind = lqr_gain(state.P, spec.Bhat, spec.Rhat)
        np.testing.assert_allclose(K_ind, nominal, atol=1e-5)

    def test_case1_induced_gain(self, case1_spec):
        state = admm_solve(case1_spec, AdmmConfig())
        K_ind = lqr_gain(state.P, case1_spec.Bhat, case1_spec.Rhat)
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
        K_ind = lqr_gain(state.P, spec.Bhat, spec.Rhat)
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


class TestAdmmConfigValidation:
    @pytest.mark.parametrize("mu", [0.0, -1.0, float("inf"), float("nan")])
    def test_mu_must_be_positive_and_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            AdmmConfig(mu=mu)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_primal_tol_must_be_non_negative(self, tol):
        assert AdmmConfig(mu=1e-300, primal_tol=0.0).primal_tol == 0.0  # the boundary
        with pytest.raises(ValueError, match="primal_tol must be non-negative"):
            AdmmConfig(primal_tol=tol)

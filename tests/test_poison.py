import warnings

import numpy as np
import pytest

import lqpoison.poison as poison
from lqpoison import linalg
from lqpoison.data import BatchDataset
from lqpoison.errors import ConvergenceError, DimensionError, StabilityError
from lqpoison.lq import care_solve, lqr_gain
from lqpoison import certify
from lqpoison.certify import constraint_blocks, gain_slice, polish, residual_norm
from lqpoison.poison import (
    AdmmConfig,
    AdmmState,
    AttackSpec,
    a_step,
    admm_solve,
    attack_cost,
    generate_poisoned,
    p_step,
    z_step,
)
from lqpoison.sysid import estimate_fg, identify, log_indirect

from conftest import random_stabilizable


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
    eigenvalues (-0.585, -0.111), so the P-step's projection clips both."""
    At = np.array([[2.04091912, -2.55566503], [0.41809885, -0.56776961]])
    spec = AttackSpec(
        Ahat=At, Bhat=np.array([[-0.45264929], [-0.21559716]]), Qhat=0.5 * np.eye(2),
        Rhat=np.eye(1), Ktarget=np.array([[-6.05995839, -0.69579713]]),
    )
    return spec, make_state(spec, P=np.eye(2), Atilde=At), AdmmConfig()


class StopCall(Exception):
    """Raised by a spy to end the call under test once it has its arguments."""


def certificate_tol(spec):
    """The certificate tolerance of a polish run on ``spec`` as given:
    PRIMAL_TOL times the constraint's residual at P = 0, the scale sigma
    that ``admm_solve`` divides the costs by."""
    return poison.PRIMAL_TOL * residual_norm(spec.Qhat, spec.Rhat @ spec.Ktarget)


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
    est = identify(case1_data)
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
        assert residual_norm(W1, W2) <= 1e-9

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
        # an indefinite unconstrained minimizer is clipped to its nearest PSD matrix
        spec, state, cfg = indefinite_2x2_point()
        _, Pu = loop_p_lstsq(state, spec, cfg)
        assert np.linalg.eigvalsh(Pu).min() < -0.05  # instance is genuinely clipped
        P = p_step(state, spec, cfg)
        assert np.abs(P - linalg.psd_project(Pu)).max() <= 1e-10

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
            projections = spy(monkeypatch, "psd_project", owner=linalg)
            P = p_step(state, spec, cfg)
            monkeypatch.undo()
            assert np.array_equal(qr_calls[0][0][:, :-1], D)  # [D | rhs]
            assert len(projections) == 1  # the answer is its one projection
            assert np.array_equal(P, linalg.psd_project(projections[0][0]))
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
        assert state.residuals[-1] <= 1e-6
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

    def test_case2_induced_gain(self, case2, case2_data):
        from lqpoison.sysid import estimate_qr

        est = identify(case2_data)
        Qhat, Rhat = estimate_qr(case2_data)
        spec = AttackSpec(
            Ahat=est.Ahat, Bhat=est.Bhat, Qhat=Qhat, Rhat=Rhat, Ktarget=case2.Ktarget
        )
        state = admm_solve(spec, case2.admm)
        K_ind = lqr_gain(state.P, spec.Bhat, spec.Rhat)
        rel = np.abs((K_ind - case2.Ktarget) / case2.Ktarget)
        assert np.max(rel) <= 0.05

    @pytest.mark.parametrize("error", [ConvergenceError, StabilityError])
    def test_starts_from_identity_when_nominal_care_fails(self, case1_spec, monkeypatch, error):
        def no_solution(*args):
            raise error("no nominal solution")

        starts = []

        def recording_a_step(state, spec, cfg):
            starts.append(state.P.copy())
            return a_step(state, spec, cfg)

        monkeypatch.setattr(poison, "care_solve", no_solution)
        monkeypatch.setattr(poison, "a_step", recording_a_step)
        state = admm_solve(case1_spec, AdmmConfig(n_iter=1))
        assert state.iter == 1 and len(starts) == 1
        assert np.array_equal(starts[0], np.eye(case1_spec.n))

    def test_divergence_guard(self, case1_spec, monkeypatch):
        # a non-finite residual is ADMM's one early stop short of a certified point
        monkeypatch.setattr(poison, "p_step",
                            lambda state, spec, cfg: np.full_like(state.P, np.nan))
        with pytest.raises(ConvergenceError,
                           match="^constraint residual nan at iteration 1 is not finite$"):
            admm_solve(case1_spec, AdmmConfig(n_iter=3))

    def test_overflowing_residual_stops_without_warning(self, case1_spec, monkeypatch):
        # at P = 1e200 the blocks are finite but their squares overflow
        monkeypatch.setattr(poison, "p_step",
                            lambda state, spec, cfg: np.full_like(state.P, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError,
                               match="^constraint residual inf at iteration 1 is not finite$"):
                admm_solve(case1_spec, AdmmConfig(n_iter=3))

    @pytest.mark.parametrize("c", [1e3, 1e6, 1e12])
    def test_tolerance_scales_with_the_costs(self, case1_spec, c):
        # (c Qhat, c Rhat) has the same attainable gain and planted dynamics,
        # and P scaled by c: the unit-scale problem, its certificate and
        # floor are the same, so the same stationary point is certified
        base = admm_solve(case1_spec)
        spec = scaled_costs(case1_spec, c)
        state = admm_solve(spec)
        assert state.converged and state.stationary
        assert state.iter == base.iter == poison.POLISH_AT
        assert 0 < state.certificate <= poison.PRIMAL_TOL
        assert state.attainable.floor == pytest.approx(base.attainable.floor, rel=1e-9)
        np.testing.assert_allclose(state.attainable.gain, base.attainable.gain, rtol=1e-9)
        np.testing.assert_allclose(state.P, c * base.P, rtol=1e-9)
        assert np.sum((state.Atilde - spec.Ahat) ** 2) == pytest.approx(
            np.sum((base.Atilde - spec.Ahat) ** 2), rel=1e-9)

    @pytest.mark.parametrize("c", [1e-8, 1e6, 1e153])
    @pytest.mark.parametrize("which", ["case1", 0, 29, 60])
    def test_answer_does_not_depend_on_the_cost_scale(self, case1_spec, which, c):
        # the case1 spec and three sweep specs (29 and 60 stop the polish
        # short of stationary): the same run at any cost scale, down to the
        # iteration count and Atilde
        spec = case1_spec if which == "case1" else sweep_spec(which)
        cfg = AdmmConfig(n_iter=200)
        base = admm_solve(spec, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = admm_solve(scaled_costs(spec, c), cfg)
        assert base.converged and state.converged
        assert (state.iter, state.polish_iter) == (base.iter, base.polish_iter)
        np.testing.assert_allclose(state.Atilde, base.Atilde, rtol=0, atol=1e-9)

    def test_zero_scale_solved_as_it_stands(self):
        # Qhat = 0 and Ktarget = 0 give sigma = 0, with no scale to divide by:
        # Ktarget = 0 is already the nominal gain, certified at iteration 1
        spec = AttackSpec(Ahat=np.diag([-1.0, -2.0]), Bhat=[[1.0], [1.0]],
                          Qhat=np.zeros((2, 2)), Rhat=np.eye(1), Ktarget=np.zeros((1, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = admm_solve(spec)
        assert state.converged and state.iter == 1
        assert np.array_equal(state.Atilde, spec.Ahat)

    @pytest.mark.parametrize("costs,target", [(1e160, 1.0), (1.0, 1e200), (1e200, 1e200)])
    def test_overflowing_scale_refused_without_warning(self, case1_spec, costs, target):
        spec = AttackSpec(Ahat=case1_spec.Ahat, Bhat=case1_spec.Bhat,
                          Qhat=costs * case1_spec.Qhat, Rhat=costs * case1_spec.Rhat,
                          Ktarget=target * case1_spec.Ktarget)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError,
                               match=r"scale \|\|\(Qhat, Rhat Ktarget\)\|\|_F overflows"):
                admm_solve(spec)

    def test_case1_stops_at_the_first_certified_polish(self, case1_spec, monkeypatch):
        calls = spy(monkeypatch, "a_step", owner=poison)
        state = admm_solve(case1_spec, AdmmConfig())
        assert state.iter == len(calls) == len(state.residuals) == poison.POLISH_AT
        assert state.converged and 0 < state.polish_iter <= certify.MAX_POLISH_ITER
        assert state.stationary
        assert state.certificate <= poison.PRIMAL_TOL
        assert state.residuals[-1] > poison.PRIMAL_TOL  # ADMM alone is far off
        # the polished objective, against 8.8364 after 500 ADMM iterations alone
        assert np.sum((state.Atilde - case1_spec.Ahat) ** 2) == pytest.approx(7.1175, abs=1e-4)

    def test_polish_tried_once(self, case1_spec, monkeypatch):
        tries, a_steps = [], spy(monkeypatch, "a_step", owner=poison)

        def never_certified(spec, P, attainable):
            tries.append(len(a_steps))
            return None

        monkeypatch.setattr(poison, "polish", never_certified)
        state = admm_solve(case1_spec, AdmmConfig(n_iter=100))
        assert state.iter == 100 and not state.converged and not state.stationary
        assert tries == [poison.POLISH_AT]

    def test_seeded_sweep_always_returns(self):
        # perturbed optimal gains on random n = 3 plants: every run returns a
        # point, certified or not. On seeds 22 and 52 nearly every P-step
        # clips an indefinite minimizer, and the projection of ADMM's P onto
        # the slice is not definite at iteration 10: they return uncertified.
        certified = []
        for seed in range(80):
            state = admm_solve(sweep_spec(seed), AdmmConfig(n_iter=200))
            assert np.isfinite(state.Atilde).all() and np.isfinite(state.P).all()
            assert state.converged or state.iter == 200
            certified.append(state.converged)
        assert not certified[22] and not certified[52]
        assert sum(certified) == 78


def scaled_costs(spec, c):
    """``spec`` with Qhat and Rhat times c."""
    return AttackSpec(Ahat=spec.Ahat, Bhat=spec.Bhat, Qhat=c * spec.Qhat, Rhat=c * spec.Rhat,
                      Ktarget=spec.Ktarget)


def sweep_spec(seed):
    """A random n = 3 plant with unit costs and its optimal gain perturbed by
    0.3 (per entry, standard normal)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3)) / np.sqrt(3.0)
    B = rng.normal(size=(3, 1))
    K = care_solve(A, B, np.eye(3), np.eye(1)).K
    return AttackSpec(Ahat=A, Bhat=B, Qhat=np.eye(3), Rhat=np.eye(1),
                      Ktarget=K + 0.3 * rng.normal(size=(1, 3)))


@pytest.fixture(scope="module")
def case2_spec(case2, case2_data):
    est = identify(case2_data, with_qr=True)
    return AttackSpec(
        Ahat=est.Ahat, Bhat=est.Bhat, Qhat=est.Qhat, Rhat=est.Rhat, Ktarget=case2.Ktarget
    )


def random_chain_spec(rng, n=10, m=3):
    """An n=10, m=3 spec like the chain benchmark's: a plant's model and a
    target 0.1 (per entry, standard normal) from its optimal gain."""
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) - 0.1) * np.eye(n)
    B = rng.normal(size=(n, m))
    K = care_solve(A, B, np.eye(n), 0.5 * np.eye(m)).K
    return AttackSpec(Ahat=A, Bhat=B, Qhat=np.eye(n), Rhat=0.5 * np.eye(m),
                      Ktarget=K + 0.1 * rng.normal(size=(m, n)))


def nearest_planted(P, spec, K):
    """Oracle for the polish's Atilde(P): Ahat minus the least-norm Delta with
    Delta^T P + P Delta = Ahat^T P + P Ahat + P Bhat K + Qhat, by lstsq on the
    n^2 x n^2 Kronecker system."""
    n = spec.n
    E = spec.Ahat.T @ P + P @ spec.Ahat + P @ spec.Bhat @ K + spec.Qhat
    cols = np.empty((n * n, n * n))
    U = np.zeros((n, n))
    for j in range(n * n):
        U.flat[j] = 1.0
        cols[:, j] = (U.T @ P + P @ U).ravel()
        U.flat[j] = 0.0
    delta, *_ = np.linalg.lstsq(cols, (0.5 * (E + E.T)).ravel(), rcond=None)
    return spec.Ahat - delta.reshape(n, n)


def polished(spec, iters):
    """The polish from the ADMM iterate after ``iters`` iterations, no earlier try."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poison, "PRIMAL_TOL", 0.0)
        state = admm_solve(spec, AdmmConfig(n_iter=iters))
    return gain_slice(spec), polish(spec, state.P)


class TestGainSlice:
    def test_case1_target_is_not_attainable(self, case1_spec):
        sl = gain_slice(case1_spec)
        # R K B must be symmetric for any LQR gain; case1's target misses it
        assert sl.floor == pytest.approx(4.136e-3, abs=1e-6)
        assert np.max(np.abs(sl.gain - case1_spec.Ktarget)) <= 0.01
        W2 = case1_spec.Rhat @ sl.gain + case1_spec.Bhat.T @ sl.P0
        assert np.linalg.norm(W2) <= 1e-12 * np.linalg.norm(case1_spec.Bhat.T @ sl.P0)

    def test_case2_target_is_attained(self, case2_spec):
        sl = gain_slice(case2_spec)
        assert sl.floor <= 1e-12
        np.testing.assert_allclose(sl.gain, case2_spec.Ktarget, rtol=1e-12)

    @pytest.mark.parametrize("n,m", [(4, 2), (4, 1), (10, 3), (2, 2)])
    def test_null_basis(self, n, m):
        spec, _, _ = random_admm_point(np.random.default_rng(7 * n + m), n, m)
        null = gain_slice(spec).null
        d = (n - m) * (n - m + 1) // 2
        assert null.shape == (d, n, n)
        flat = null.reshape(d, n * n)
        np.testing.assert_allclose(flat @ flat.T, np.eye(d), atol=1e-12)
        assert np.array_equal(null, null.transpose(0, 2, 1))
        assert np.max(np.abs(spec.Bhat.T @ null), initial=0.0) <= 1e-12


class TestPolish:
    @pytest.mark.parametrize("which", ["case1", "case2", "chain"])
    def test_meets_both_blocks_against_attained_gain(self, which, case1_spec, case2_spec):
        spec = {"case1": case1_spec, "case2": case2_spec,
                "chain": random_chain_spec(np.random.default_rng(3))}[which]
        sl, pol = polished(spec, 10)
        assert pol is not None and pol.iterations > 0
        assert np.linalg.eigvalsh(pol.P).min() > 0
        W1, W2 = constraint_blocks(pol.Atilde, pol.P, spec, sl.gain)
        Ac = pol.Atilde + spec.Bhat @ sl.gain
        scale = (np.linalg.norm(pol.Atilde.T @ pol.P) + np.linalg.norm(pol.P @ Ac)
                 + np.linalg.norm(spec.Qhat) + np.linalg.norm(spec.Rhat @ sl.gain))
        assert np.linalg.norm(W1) <= 1e-10 * scale
        assert np.linalg.norm(W2) <= 1e-10 * scale
        assert pol.certificate == residual_norm(W1, W2)
        # the learner's CARE on the planted model returns the attained gain
        K = care_solve(pol.Atilde, spec.Bhat, spec.Qhat, spec.Rhat).K
        np.testing.assert_allclose(K, sl.gain, atol=1e-9 * np.abs(sl.gain).max())

    @pytest.mark.parametrize("which", ["case1", "case2", "chain"])
    def test_stationary_on_the_slice(self, which, case1_spec, case2_spec, monkeypatch):
        spec = {"case1": case1_spec, "case2": case2_spec,
                "chain": random_chain_spec(np.random.default_rng(4))}[which]
        sl, pol = polished(spec, 10)
        assert pol.stationary
        np.testing.assert_allclose(nearest_planted(pol.P, spec, sl.gain), pol.Atilde,
                                   atol=1e-9 * np.abs(pol.Atilde).max())

        def objective(P):
            return np.sum((nearest_planted(P, spec, sl.gain) - spec.Ahat) ** 2)

        def slope(D, h=1e-4):  # fourth-order central difference along D
            f1, f2 = (objective(pol.P + t * h * D) - objective(pol.P - t * h * D) for t in (1, 2))
            return (8 * f1 - f2) / (12 * h)

        monkeypatch.setattr(poison, "PRIMAL_TOL", 0.0)
        start = admm_solve(spec, AdmmConfig(n_iter=10)).P
        start = sl.P0 + np.tensordot(np.tensordot(sl.null, start - sl.P0, 2), sl.null, 1)
        grad = np.linalg.norm([slope(D) for D in sl.null])
        pol_start = polish(spec, start)  # the same point, from the start's projection
        np.testing.assert_allclose(pol_start.P, pol.P, rtol=0, atol=1e-9 * np.abs(pol.P).max())
        grad_start = np.linalg.norm([
            (objective(start + 1e-4 * D) - objective(start - 1e-4 * D)) / 2e-4 for D in sl.null
        ])
        assert grad <= 1e-6 * grad_start

    def test_idempotent(self, case1_spec):
        _, first = polished(case1_spec, 10)
        again = polish(case1_spec, first.P)
        assert again.iterations == 0
        np.testing.assert_allclose(again.Atilde, first.Atilde, rtol=0, atol=1e-12)
        np.testing.assert_allclose(again.P, first.P, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 1), (10, 3)])
    def test_recovers_a_feasible_target(self, n, m):
        # Ktarget is the LQR gain of (A0, B, Q, R) and Ahat = A0: the nearest
        # planted dynamics are A0 itself, certified by its Riccati solution
        rng = np.random.default_rng(60 + n)
        A0, B, Q, R = random_stabilizable(rng, n, m)
        Q += np.eye(n)
        sol = care_solve(A0, B, Q, R)
        spec = AttackSpec(Ahat=A0, Bhat=B, Qhat=Q, Rhat=R, Ktarget=sol.K)
        sl = gain_slice(spec)
        assert sl.floor <= 1e-10 * np.linalg.norm(R @ sol.K)
        E = rng.normal(size=(n, n))
        start = sol.P + 0.05 * np.linalg.eigvalsh(sol.P).min() * (E + E.T) / np.linalg.norm(E + E.T)
        pol = polish(spec, start)
        assert pol is not None
        np.testing.assert_allclose(pol.Atilde, A0, rtol=0, atol=1e-8 * np.abs(A0).max())
        np.testing.assert_allclose(pol.P, sol.P, rtol=0, atol=1e-8 * np.abs(sol.P).max())

    def test_objective_falling_as_p_grows_stops_at_the_bound(self):
        # on this target the objective keeps falling as lam_max(P) grows: the
        # polish stops short of stationary at the growth bound (22 steps,
        # lam_max grown 81 times), and the point it reached is the answer
        spec = random_chain_spec(np.random.default_rng(1))
        sl, pol = polished(spec, 10)
        assert pol.certificate <= certificate_tol(spec) and not pol.stationary
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poison, "PRIMAL_TOL", 0.0)
            start = admm_solve(spec, AdmmConfig(n_iter=10)).P
        start = sl.P0 + np.tensordot(np.tensordot(sl.null, start - sl.P0, 2), sl.null, 1)
        growth = np.linalg.eigvalsh(pol.P)[-1] / np.linalg.eigvalsh(start)[-1]
        assert 1.0 < growth <= certify.POLISH_GROWTH
        # the learner's CARE on the planted model returns the attained gain
        K = care_solve(pol.Atilde, spec.Bhat, spec.Qhat, spec.Rhat).K
        np.testing.assert_allclose(K, sl.gain, atol=1e-9 * np.abs(sl.gain).max())
        state = admm_solve(spec, AdmmConfig(n_iter=50))
        assert state.converged and not state.stationary and state.iter == poison.POLISH_AT
        assert state.polish_iter == pol.iterations

    def test_step_cap_stops_short_of_stationary(self, case1_spec, monkeypatch):
        monkeypatch.setattr(certify, "MAX_POLISH_ITER", 1)
        _, pol = polished(case1_spec, 10)
        assert pol.iterations == 1 and not pol.stationary
        assert pol.certificate <= certificate_tol(case1_spec)

    def test_no_free_direction_returns_the_slice_point(self):
        # n = m: Bhat^T P = -Rhat K pins P down to P0 = Pstar
        rng = np.random.default_rng(8)
        A, B, Q, R = random_stabilizable(rng, 2, 2)
        M = rng.normal(size=(2, 2))
        Pstar = M @ M.T + np.eye(2)
        spec = AttackSpec(Ahat=A, Bhat=B, Qhat=Q, Rhat=R, Ktarget=lqr_gain(Pstar, B, R))
        sl = gain_slice(spec)
        assert sl.null.shape == (0, 2, 2)
        np.testing.assert_allclose(sl.P0, Pstar, rtol=1e-12)
        pol = polish(spec, np.eye(2))
        assert pol.iterations == 0 and np.array_equal(pol.P, sl.P0)
        np.testing.assert_allclose(pol.Atilde, nearest_planted(sl.P0, spec, sl.gain),
                                   atol=1e-12 * np.abs(pol.Atilde).max())

    @pytest.mark.parametrize("start", ["singular", "indefinite", "projection"])
    def test_start_not_definite_is_not_certified(self, case1_spec, start):
        # "projection": definite, but the slice keeps P0's blocks on range(Bhat)
        # and only P's block on its complement, tiny here: not definite
        Q, _ = np.linalg.qr(case1_spec.Bhat, mode="complete")
        P = {"singular": np.diag([1.0, 2.0, 0.0, 3.0]),
             "indefinite": np.diag([1.0, -2.0, 1.0, 3.0]),
             "projection": Q[:, :2] @ Q[:, :2].T + 1e-6 * Q[:, 2:] @ Q[:, 2:].T}[start]
        if start == "projection":
            sl = gain_slice(case1_spec)
            on_slice = sl.P0 + np.tensordot(np.tensordot(sl.null, P - sl.P0, 2), sl.null, 1)
            assert np.linalg.eigvalsh(P).min() > 0 > np.linalg.eigvalsh(on_slice).min()
        with np.errstate(all="raise"):
            assert polish(case1_spec, P) is None


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

    def test_overflowing_states_refused(self, case1_data):
        with pytest.raises(ValueError, match="^xs has non-finite entries"):
            generate_poisoned(1e3 * np.eye(4), np.ones((4, 2)), case1_data)

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
        Ahat, Bhat, _ = log_indirect(model.F, model.G, case1_data.dt)
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

    def test_small_qhat_slightly_indefinite_refused_at_construction(self):
        # -5e-11 is within 1e-10 of zero, but not within 1e-10 of Qhat's own scale
        with pytest.raises(ValueError, match="^Qhat must be positive semidefinite"):
            AttackSpec(Ahat=np.diag([-1.0, -2.0]), Bhat=[[1.0], [1.0]],
                       Qhat=np.diag([1e-3, -5e-11]), Rhat=np.eye(1), Ktarget=np.zeros((1, 2)))


class TestAdmmConfigValidation:
    @pytest.mark.parametrize("mu", [0.0, -1.0, float("inf"), float("nan")])
    def test_mu_must_be_positive_and_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            AdmmConfig(mu=mu)

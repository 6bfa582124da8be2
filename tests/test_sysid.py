import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from lqpoison import linalg
from lqpoison.data import BatchDataset, ExcitationPolicy, simulate_zoh
from lqpoison.errors import ConvergenceError, EstimationError, IdentifiabilityError
from lqpoison.lq import LQSystem, care_solve
from lqpoison.sysid import (
    estimate_fg,
    estimate_qr,
    identify,
    log_indirect,
    model_write,
)
from lqpoison.sysid import _quad_features


def loop_quad_features(xs, us):
    """Oracle: the quadratic cost features built one monomial at a time."""
    n, m = xs.shape[1], us.shape[1]
    cols, labels = [], []
    for i in range(n):
        cols.append(xs[:, i] ** 2)
        labels.append(f"x{i}^2")
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(2.0 * xs[:, i] * xs[:, j])
            labels.append(f"x{i}*x{j}")
    for i in range(m):
        cols.append(us[:, i] ** 2)
        labels.append(f"u{i}^2")
    for i in range(m):
        for j in range(i + 1, m):
            cols.append(2.0 * us[:, i] * us[:, j])
            labels.append(f"u{i}*u{j}")
    return np.column_stack(cols), labels


def random_stable_system(rng, n=3, m=2, dt=0.1, margin=1.0):
    A = rng.normal(size=(n, n))
    A -= (linalg.spectral_abscissa(A) + margin) * np.eye(n)
    B = rng.normal(size=(n, m))
    return LQSystem(A=A, B=B, Q=np.eye(n), R=np.eye(m), x0=rng.normal(size=n), dt=dt)


class TestEstimateFG:
    def test_exact_recovery(self, case1, case1_data):
        model = estimate_fg(case1_data)
        F, G = linalg.zoh_pair(case1.system.A, case1.system.B, case1.system.dt)
        assert np.max(np.abs(model.F - F)) <= 1e-9
        assert np.max(np.abs(model.G - G)) <= 1e-9
        assert model.residual <= 1e-16

    def test_unexcited_dataset(self):
        d = BatchDataset(
            xs=np.zeros((20, 2)), us=np.zeros((20, 1)), cs=np.zeros(20), dt=0.1
        )
        with pytest.raises(IdentifiabilityError) as ei:
            estimate_fg(d)
        assert "rank deficient" in str(ei.value)

    def test_rank_deficient_names_unexcited_directions(self):
        # x2 and u1 are never excited; with many samples the error path must
        # not build an N x N singular-vector matrix (32 MB at N = 2000).
        rng = np.random.default_rng(3)
        N = 2000
        xs = np.zeros((N, 3))
        us = np.zeros((N, 2))
        us[:, 0] = rng.uniform(-1.0, 1.0, N)
        for k in range(N - 1):
            xs[k + 1, 0] = 0.9 * xs[k, 0] + us[k, 0]
            xs[k + 1, 1] = 0.5 * xs[k, 1] + 0.3 * xs[k, 0]
        d = BatchDataset(xs=xs, us=us, cs=np.ones(N), dt=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(IdentifiabilityError) as ei:
                estimate_fg(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        msg = str(ei.value)
        assert "rank deficient (3 < 5)" in msg
        directions = msg.split("unexcited directions: ")[1].split("; ")
        assert sorted(re.sub(r"^[+-]", "", s) for s in directions) == [
            "1.00*u1", "1.00*x2",
        ]
        assert peak < 8e6

    def test_minimal_sample_count_interpolates(self):
        rng = np.random.default_rng(8)
        sys = random_stable_system(rng, n=2, m=1, dt=0.1)
        d = simulate_zoh(sys, ExcitationPolicy(seed=9), sys.n + sys.m + 1)
        model = estimate_fg(d)
        assert model.residual <= 1e-16

    def test_too_few_samples(self):
        d = BatchDataset(
            xs=np.ones((3, 2)), us=np.ones((3, 1)), cs=np.ones(3), dt=0.1
        )
        with pytest.raises(IdentifiabilityError):
            estimate_fg(d)


class TestLogIndirect:
    def test_identity_f(self):
        G = np.array([[0.3], [0.7]])
        Ahat, Bhat, _ = log_indirect(np.eye(2), G, 0.1)
        np.testing.assert_allclose(Ahat, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(Bhat, G / 0.1, atol=1e-13)

    def test_case1_round_trip(self, case1):
        A, B, dt = case1.system.A, case1.system.B, case1.system.dt
        F, G = linalg.zoh_pair(A, B, dt)
        Ahat, Bhat, _ = log_indirect(F, G, dt, eps=1e-12)
        assert np.max(np.abs(Ahat - A)) <= 1e-6
        assert np.max(np.abs(Bhat - B)) <= 1e-6

    def test_scalar_diagonal(self):
        F = np.diag([np.exp(0.01), np.exp(0.01)])
        Ahat, _, _ = log_indirect(F, np.ones((2, 1)), 0.01, eps=1e-14, max_iter=2000)
        np.testing.assert_allclose(Ahat, np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            log_indirect(np.eye(2), np.ones((2, 1)), dt)

    def test_divergent_series(self):
        with pytest.raises(ConvergenceError):
            log_indirect(3.0 * np.eye(2), np.ones((2, 1)), 0.1)

    def test_term_cap_raises_instead_of_truncating(self):
        # rho(F - I) = 0.974 < 1: the series converges, but 100 terms leave
        # the log about 3e-4 off, far above eps.
        with pytest.raises(ConvergenceError, match="100 terms"):
            log_indirect(np.array([[1.974]]), np.ones((1, 1)), 1.0,
                         eps=1e-10, max_iter=100)
        Ahat, _, terms = log_indirect(np.array([[1.974]]), np.ones((1, 1)), 1.0,
                                      eps=1e-10, max_iter=2000)
        assert 100 < terms < 2000
        assert abs(Ahat[0, 0] - np.log(1.974)) <= 1e-9

    def test_round_trip_property(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, m, dt = 3, 1, 0.1
            A = rng.normal(size=(n, n))
            rho = linalg.spectral_radius(A)
            A *= 0.3 / (dt * rho)  # puts spectral_radius(A)*dt at 0.3
            B = rng.normal(size=(n, m))
            F, G = linalg.zoh_pair(A, B, dt)
            Ahat, Bhat, _ = log_indirect(F, G, dt, eps=1e-13, max_iter=2000)
            scale = 1.0 + np.max(np.abs(A))
            assert np.max(np.abs(Ahat - A)) <= 1e-6 * scale
            assert np.max(np.abs(Bhat - B)) <= 1e-6 * (1.0 + np.max(np.abs(B)))


class TestEstimateQR:
    def test_exact_recovery(self, case1, case1_data):
        Qhat, Rhat = estimate_qr(case1_data)
        assert np.max(np.abs(Qhat - case1.system.Q)) <= 1e-8
        assert np.max(np.abs(Rhat - case1.system.R)) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 4, 10])
    @pytest.mark.parametrize("m", [1, 3])
    def test_features_match_loop_oracle(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        xs, us = rng.normal(size=(40, n)), rng.normal(size=(40, m))
        Phi, labels = _quad_features(xs, us)
        ref, ref_labels = loop_quad_features(xs, us)
        assert np.array_equal(Phi, ref)
        assert labels == ref_labels

    def test_off_diagonal_weights_recovered(self):
        # costs from full symmetric Q and R land in the matching entries
        rng = np.random.default_rng(16)
        Qr, Rr = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
        Q, R = Qr @ Qr.T, Rr @ Rr.T + np.eye(2)
        xs, us = rng.normal(size=(50, 3)), rng.normal(size=(50, 2))
        cs = np.einsum("ki,ij,kj->k", xs, Q, xs) + np.einsum("ki,ij,kj->k", us, R, us)
        Qhat, Rhat = estimate_qr(BatchDataset(xs=xs, us=us, cs=cs, dt=0.1))
        np.testing.assert_allclose(Qhat, Q, atol=1e-10)
        np.testing.assert_allclose(Rhat, R, atol=1e-10)

    def test_closed_loop_data_rejected(self, case1):
        # u = K x exactly makes the input quadratics dependent on the state ones
        s = case1.system
        K = care_solve(s.A, s.B, s.Q, s.R).K
        F, G = linalg.zoh_pair(s.A, s.B, s.dt)
        xs, us, cs = [s.x0], [], []
        for _ in range(120):
            u = K @ xs[-1]
            us.append(u)
            cs.append(xs[-1] @ s.Q @ xs[-1] + u @ s.R @ u)
            xs.append(F @ xs[-1] + G @ u)
        d = BatchDataset(xs=np.array(xs[:-1]), us=np.array(us), cs=np.array(cs), dt=s.dt)
        with pytest.raises(IdentifiabilityError):
            estimate_qr(d)

    def test_single_sample_rejected(self):
        d = BatchDataset(
            xs=np.ones((1, 2)), us=np.ones((1, 1)), cs=np.ones(1), dt=0.1
        )
        with pytest.raises(IdentifiabilityError):
            estimate_qr(d)

    def test_negative_control_weight_rejected(self, case1_data):
        # costs x^T x - u^T u fit exactly, with R = -I
        d = BatchDataset(
            xs=case1_data.xs, us=case1_data.us, dt=case1_data.dt,
            cs=np.sum(case1_data.xs**2, axis=1) - np.sum(case1_data.us**2, axis=1),
        )
        with pytest.raises(EstimationError, match="R must be positive definite"):
            estimate_qr(d)

    def test_never_returns_indefinite(self):
        rng = np.random.default_rng(14)
        sys = random_stable_system(rng, n=2, m=1)
        d = simulate_zoh(sys, ExcitationPolicy(seed=15), 60)
        Qhat, Rhat = estimate_qr(d)
        assert np.linalg.eigvalsh(Qhat).min() >= -1e-12
        assert np.linalg.eigvalsh(Rhat).min() > 0


class TestPipelineContinuity:
    def test_identified_gain_tracks_true_gain(self):
        rng = np.random.default_rng(16)
        sys = random_stable_system(rng, n=3, m=2, dt=0.05)
        d = simulate_zoh(sys, ExcitationPolicy(seed=17), 200)
        est = identify(d, eps=1e-12)
        assert np.max(np.abs(est.Ahat - sys.A)) <= 1e-6
        K_est = care_solve(est.Ahat, est.Bhat, sys.Q, sys.R).K
        K_true = care_solve(sys.A, sys.B, sys.Q, sys.R).K
        assert np.max(np.abs(K_est - K_true)) <= 0.05


class TestModelIO:
    def test_round_trip(self, tmp_path, case1_data):
        est = identify(case1_data, eps=1e-12, with_qr=True)
        path = tmp_path / "model.json"
        model_write(est, case1_data.dt, str(path))
        doc = json.loads(path.read_text())
        assert doc["dt"] == case1_data.dt
        assert (doc["n"], doc["m"]) == (case1_data.n, case1_data.m)
        for key in ("Ahat", "Bhat", "Qhat", "Rhat"):
            np.testing.assert_array_equal(np.array(doc[key]), getattr(est, key))

    def test_optional_qr_omitted(self, tmp_path, case1_data):
        est = identify(case1_data, eps=1e-12)
        path = tmp_path / "model.json"
        model_write(est, case1_data.dt, str(path))
        doc = json.loads(path.read_text())
        assert doc["Qhat"] is None and doc["Rhat"] is None

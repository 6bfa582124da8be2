import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from lqpoison import linalg, sysid
from lqpoison.data import BatchDataset, ExcitationPolicy, simulate_zoh
from lqpoison.errors import (
    ConvergenceError,
    IdentifiabilityError,
    LearnabilityError,
)
from lqpoison.lq import LQSystem, care_solve
from lqpoison.sysid import (
    estimate_fg,
    estimate_qr,
    identify,
    log_indirect,
    model_write,
)
from lqpoison.sysid import _deficient_directions, _quad_features, _quad_labels


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


def fancy_index_quad_features(xs, us):
    """Oracle: the features as whole blocks, (w * V[:, r]) * V[:, c] with w = 1 or 2."""
    blocks, labels = [], []
    for name, V in (("x", xs), ("u", us)):
        r, c = linalg.sym_index(V.shape[1])
        blocks.append(np.where(r == c, 1.0, 2.0) * V[:, r] * V[:, c])
        labels += [f"{name}{i}^2" if i == j else f"{name}{i}*{name}{j}"
                   for i, j in zip(r.tolist(), c.tolist())]
    return np.hstack(blocks), labels


def chain_data(seed, N=5000):
    """The chain-n10 benchmark's plant (n = 10, m = 3) and its N-sample dataset."""
    n, m = 10, 3
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) / math.sqrt(n)
    A -= (linalg.spectral_abscissa(A) - 0.1) * np.eye(n)
    sys = LQSystem(A=A, B=rng.normal(size=(n, m)), Q=np.eye(n), R=0.5 * np.eye(m),
                   x0=rng.uniform(-1.0, 1.0, size=n), dt=0.005)
    return sys, simulate_zoh(sys, ExcitationPolicy(seed=seed), N)


def sym_coords(*Ms):
    """The ``linalg.sym_index`` coordinates of symmetric matrices, concatenated."""
    return np.concatenate([M[linalg.sym_index(len(M))] for M in Ms])


def random_stable_system(rng, n=3, m=2, dt=0.1, margin=1.0):
    A = rng.normal(size=(n, n))
    A -= (linalg.spectral_abscissa(A) + margin) * np.eye(n)
    B = rng.normal(size=(n, m))
    return LQSystem(A=A, B=B, Q=np.eye(n), R=np.eye(m), x0=rng.normal(size=n), dt=dt)


def one_step_mse(d, model):
    """Mean squared one-step prediction error of (F, G) over the dataset."""
    Z = np.hstack([d.xs[:-1], d.us[:-1]])
    Theta = np.vstack([model.F.T, model.G.T])
    return float(np.linalg.norm(Z @ Theta - d.xs[1:], "fro") ** 2 / (d.N - 1))


class TestEstimateFG:
    def test_exact_recovery(self, case1, case1_data):
        model = estimate_fg(case1_data)
        F, G = linalg.zoh_pair(case1.system.A, case1.system.B, case1.system.dt)
        assert np.max(np.abs(model.F - F)) <= 1e-9
        assert np.max(np.abs(model.G - G)) <= 1e-9
        assert one_step_mse(case1_data, model) <= 1e-16

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
        assert one_step_mse(d, model) <= 1e-16

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
        Ahat, _, _ = log_indirect(F, np.ones((2, 1)), 0.01, eps=1e-14)
        np.testing.assert_allclose(Ahat, np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            log_indirect(np.eye(2), np.ones((2, 1)), dt)

    @pytest.mark.parametrize("A", [np.log(3.0) * np.eye(2), 2.0 * np.eye(2),
                                   np.diag([0.8, -0.5])])
    def test_large_real_log_recovered(self, A):
        # rho(F - I) >= 1 here, where the series alone diverges; square
        # roots of F bring it within ||F_k - I|| <= 1/2 first.
        F, G = linalg.zoh_pair(A, np.array([[1.0], [0.5]]), 1.0)
        Ahat, Bhat, _ = log_indirect(F, G, 1.0)
        assert np.linalg.norm(Ahat - A) <= 1e-8 * np.linalg.norm(A)
        np.testing.assert_allclose(Bhat, [[1.0], [0.5]], rtol=1e-8)

    @pytest.mark.parametrize("F", [np.diag([-0.5, 0.9]), np.diag([0.0, 0.9])])
    def test_no_real_log_raises(self, F):
        with pytest.raises(LearnabilityError, match="sampling interval dt = 0.1"):
            log_indirect(F, np.ones((2, 1)), 0.1)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, 1e-320, math.inf])
    def test_eps_out_of_range(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            log_indirect(np.eye(2), np.ones((2, 1)), 0.1, eps=eps)

    @pytest.mark.parametrize("eps", [1e-10, 1e-12])
    def test_series_terms_bounded(self, eps):
        # rho(F - I) = 0.974: the series alone needs over 100 terms. After a
        # square root ||L|| <= 1/2 bounds it by log2(1/eps) + 1 terms, 34 at
        # the default eps.
        Ahat, _, terms = log_indirect(np.array([[1.974]]), np.ones((1, 1)), 1.0, eps=eps)
        assert terms <= 34
        assert abs(Ahat[0, 0] - np.log(1.974)) <= max(eps, 1e-12)

    @pytest.mark.parametrize("cap, message", [
        ("DB_MAX_STEPS", "Denman-Beavers square root not reached in 1 steps"),
        ("MAX_SQRTS", r"F\^\(1/2\^1\) is still farther than 1/2 from I"),
    ])
    def test_root_caps_raise(self, monkeypatch, cap, message):
        # diag(e^0.8, e^-0.5) needs two square roots, of several steps each.
        monkeypatch.setattr(sysid, cap, 1)
        F, G = linalg.zoh_pair(np.diag([0.8, -0.5]), np.ones((2, 1)), 1.0)
        with pytest.raises(ConvergenceError, match=message):
            log_indirect(F, G, 1.0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, m, dt = 3, 1, 0.1
            A = rng.normal(size=(n, n))
            rho = np.max(np.abs(np.linalg.eigvals(A)))
            A *= 0.3 / (dt * rho)  # puts the spectral radius of A*dt at 0.3
            B = rng.normal(size=(n, m))
            F, G = linalg.zoh_pair(A, B, dt)
            Ahat, Bhat, _ = log_indirect(F, G, dt, eps=1e-13)
            scale = 1.0 + np.max(np.abs(A))
            assert np.max(np.abs(Ahat - A)) <= 1e-6 * scale
            assert np.max(np.abs(Bhat - B)) <= 1e-6 * (1.0 + np.max(np.abs(B)))


class TestLearnabilityGate:
    def test_gate_iff_noise_free_recovery(self):
        # With real parts |Re lambda| dt <= 3, LQSystem's one condition,
        # max |Im eig(A)| dt < pi, holds exactly when identify gives A back
        # from noise-free data: past pi the data alias A. From trial 40 on, a
        # real mode with lambda dt in [-60, -40] decays below the fit's
        # rounding within one step: the gate passes it, and identify refuses
        # the data rather than return a wrong A.
        rng = np.random.default_rng(12)
        dt, N = 0.1, 40
        for trial in range(60):
            fast = trial >= 40
            n = int(rng.integers(3 if fast else 2, 5))
            omega = float(rng.uniform(0.5, 0.95) if trial % 2 else rng.uniform(1.05, 1.5))
            sigma = float(rng.uniform(-3.0, 3.0))
            D = np.diag(rng.uniform(-3.0, 3.0, size=n))
            D[:2, :2] = [[sigma, omega * np.pi], [-omega * np.pi, sigma]]
            if fast:
                D[-1, -1] = rng.uniform(-60.0, -40.0)
            V = rng.normal(size=(n, n))
            A = V @ D @ np.linalg.inv(V) / dt
            B = rng.normal(size=(n, n))
            try:
                LQSystem(A=A, B=B, Q=np.eye(n), R=np.eye(n), x0=np.zeros(n), dt=dt)
                accepted = True
            except LearnabilityError:
                accepted = False
            # Noise-free data with bounded states: draw each next state and
            # solve x_{k+1} = F x_k + G u_k for the input that reaches it.
            F, G = linalg.zoh_pair(A, B, dt)
            xs = rng.normal(size=(N, n))
            us = np.zeros((N, n))
            us[:-1] = np.linalg.solve(G, (xs[1:] - xs[:-1] @ F.T).T).T
            data = BatchDataset(xs=xs, us=us, cs=np.zeros(N), dt=dt)
            assert accepted == (omega < 1.0)
            if fast:
                with pytest.raises(IdentifiabilityError, match="decays too fast"):
                    identify(data)
                continue
            est = identify(data)
            recovered = np.linalg.norm(est.Ahat - A) <= 1e-8 * np.linalg.norm(A)
            assert recovered == accepted, (trial, omega)


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
        ref, ref_labels = loop_quad_features(xs, us)
        Phi = _quad_features(xs, us, np.empty(ref.shape))
        assert np.array_equal(Phi, ref)
        assert _quad_labels(n, m) == ref_labels

    @pytest.mark.parametrize("n, m", [(1, 1), (4, 2), (10, 3)])
    def test_features_match_fancy_index_construction(self, n, m):
        # each off-diagonal feature is doubled after its product, not before;
        # written into a column-major block, as the fit writes them
        rng = np.random.default_rng(100 * n + m)
        xs, us = rng.normal(size=(5000, n)), rng.normal(size=(5000, m))
        ref, ref_labels = fancy_index_quad_features(xs, us)
        Phi = _quad_features(xs, us, np.empty(ref.shape, order="F"))
        assert np.array_equal(Phi, ref)
        assert _quad_labels(n, m) == ref_labels

    def test_fit_footprint_is_a_block(self):
        # the fit streams row blocks; with the whole regressor and the copy
        # numpy's lstsq makes of it, this peaked at 2.97 MB, and before that,
        # with its features built by fancy indexing and hstack, at 4.89 MB
        n, m, N = 10, 3, 5000
        rng = np.random.default_rng(29)
        Qr, Rr = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        Q, R = Qr @ Qr.T, Rr @ Rr.T + np.eye(m)
        xs, us = rng.normal(size=(N, n)), rng.normal(size=(N, m))
        cs = np.einsum("ki,ij,kj->k", xs, Q, xs) + np.einsum("ki,ij,kj->k", us, R, us)
        d = BatchDataset(xs=xs, us=us, cs=cs, dt=0.1)
        tracemalloc.start()
        try:
            Qhat, Rhat = estimate_qr(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6
        np.testing.assert_allclose(Qhat, Q, atol=1e-8)
        np.testing.assert_allclose(Rhat, R, atol=1e-8)

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
        with pytest.raises(IdentifiabilityError, match="R must be positive definite"):
            estimate_qr(d)

    def test_never_returns_indefinite(self):
        rng = np.random.default_rng(14)
        sys = random_stable_system(rng, n=2, m=1)
        d = simulate_zoh(sys, ExcitationPolicy(seed=15), 60)
        Qhat, Rhat = estimate_qr(d)
        assert np.linalg.eigvalsh(Qhat).min() >= -1e-12
        assert np.linalg.eigvalsh(Rhat).min() > 0


class TestBlockFits:
    """The fits stream their regressors in row blocks (``linalg.lstsq``)."""

    def test_identify_footprint_does_not_grow_with_n(self):
        # with the whole regressors, identify peaked at 2.83 MB at N = 5,000
        # and at 11.3 MB at N = 20,000
        rng = np.random.default_rng(30)
        sys = random_stable_system(rng, n=10, m=3, dt=0.005, margin=0.5)
        peaks = []
        for N in (5000, 20000):
            d = simulate_zoh(sys, ExcitationPolicy(seed=31), N)
            tracemalloc.start()
            try:
                est = identify(d, with_qr=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.max(np.abs(est.Ahat - sys.A)) <= 1e-6
        assert peaks[0] <= 1.0e6
        assert abs(peaks[1] - peaks[0]) <= 0.02 * peaks[0]

    def test_no_farther_from_the_truth_than_one_lstsq_call(self):
        # on the chain-n10 plants of seeds 1-30 the refined block fits are, in
        # the median, at least as close to the true (F, G) and (Q, R) as
        # np.linalg.lstsq on the whole regressors
        errors = []
        for seed in range(1, 31):
            sys, d = chain_data(seed)
            F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
            FG, QR = np.hstack([F, G]), sym_coords(sys.Q, sys.R)
            Z = np.hstack([d.xs[:-1], d.us[:-1]])
            Theta = np.linalg.lstsq(Z, d.xs[1:], rcond=None)[0]
            theta = np.linalg.lstsq(fancy_index_quad_features(d.xs, d.us)[0], d.cs,
                                    rcond=None)[0]
            model = estimate_fg(d)
            Qhat, Rhat = estimate_qr(d)
            errors.append([
                np.linalg.norm(Theta.T - FG) / np.linalg.norm(FG),
                np.linalg.norm(np.hstack([model.F, model.G]) - FG) / np.linalg.norm(FG),
                np.linalg.norm(theta - QR) / np.linalg.norm(QR),
                np.linalg.norm(sym_coords(Qhat, Rhat) - QR) / np.linalg.norm(QR),
            ])
        fg_lstsq, fg_blocks, qr_lstsq, qr_blocks = np.median(errors, axis=0)
        assert fg_blocks <= fg_lstsq
        assert qr_blocks <= qr_lstsq

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_fit_at_extreme_data_scales(self, case1, case1_data, scale):
        # (F, G) does not change when the states and inputs are scaled together
        d = BatchDataset(xs=case1_data.xs * scale, us=case1_data.us * scale,
                         cs=case1_data.cs, dt=case1_data.dt)
        model = estimate_fg(d)
        F, G = linalg.zoh_pair(case1.system.A, case1.system.B, case1.system.dt)
        assert np.max(np.abs(model.F - F)) <= 1e-14
        assert np.max(np.abs(model.G - G)) <= 1e-14

    def test_directions_have_their_largest_coefficient_positive(self):
        # x1 = 2 x0, so the null direction is (2, -1, 0)/sqrt(5) up to sign;
        # every matrix with the same right singular vectors names it the same way
        rng = np.random.default_rng(32)
        x0 = rng.normal(size=(50, 1))
        Z = np.hstack([x0, 2.0 * x0, rng.normal(size=(50, 1))])
        Rz = np.linalg.qr(Z, mode="r")
        labels = ["x0", "x1", "u0"]
        for M in (Z, -Z, Rz, -Rz, Rz * np.array([[-1.0], [1.0], [-1.0]])):
            assert _deficient_directions(M, 2, labels) == "+0.89*x0 -0.45*x1"


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

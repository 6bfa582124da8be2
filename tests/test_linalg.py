import math

import numpy as np
import pytest
import scipy.linalg

from lqpoison import linalg
from lqpoison.errors import AsymmetryError, DimensionError, RankDeficiencyError


def taylor_expm(M, terms=20):
    """Independent oracle: plain truncated Taylor series (small-norm inputs only)."""
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for i in range(1, terms + 1):
        term = term @ M / i
        E = E + term
    return E


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_allclose(linalg.expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_diagonal(self):
        E = linalg.expm(np.diag([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(E, np.diag([math.e, math.e**2]), rtol=1e-13)

    def test_nilpotent(self):
        E = linalg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(E, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.expm(np.zeros((2, 3)))

    def test_inverse_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            s = float(rng.uniform(0.1, 5.0 / (np.linalg.norm(M, "fro") + 1e-12)))
            Ep = linalg.expm(M, s)
            Em = linalg.expm(M, -s)
            cond = np.linalg.norm(Ep, "fro") * np.linalg.norm(Em, "fro")
            assert np.linalg.norm(Ep @ Em - np.eye(4), "fro") <= 1e-9 * cond

    def test_semigroup_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            M *= 2.0 / max(np.linalg.norm(M, "fro"), 1e-12)
            s, t = rng.uniform(-1, 1, size=2)
            lhs = linalg.expm(M, s + t)
            rhs = linalg.expm(M, s) @ linalg.expm(M, t)
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-9

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            M = rng.normal(size=(5, 5))
            np.testing.assert_allclose(
                linalg.expm(M, 0.7), scipy.linalg.expm(0.7 * M), rtol=1e-11, atol=1e-12
            )


class TestZohPair:
    def test_integrator(self):
        F, G = linalg.zoh_pair(np.zeros((2, 2)), np.eye(2), 0.1)
        np.testing.assert_allclose(F, np.eye(2))
        np.testing.assert_allclose(G, 0.1 * np.eye(2), atol=1e-15)

    def test_scalar_closed_form(self):
        F, G = linalg.zoh_pair([[1.0]], [[1.0]], 0.01)
        assert F[0, 0] == pytest.approx(math.exp(0.01), abs=1e-14)
        assert G[0, 0] == pytest.approx(math.expm1(0.01), abs=1e-14)

    def test_case1_matches_taylor_oracle(self, case1):
        A, dt = case1.system.A, case1.system.dt
        F, _ = linalg.zoh_pair(A, case1.system.B, dt)
        np.testing.assert_allclose(F, taylor_expm(A * dt), atol=1e-12)
        assert F[0, 0] == pytest.approx(1.0059, abs=5e-5)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            linalg.zoh_pair(np.eye(2), np.eye(2), 0.0)


class TestLstsq:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(linalg.lstsq(np.eye(3), v), v)

    def test_planted_solution(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(20, 4))
        X0 = rng.normal(size=(4, 3))
        X = linalg.lstsq(A, A @ X0)
        np.testing.assert_allclose(X, X0, atol=1e-10)

    def test_consistent_residual(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(30, 5))
        b = A @ rng.normal(size=5)
        x = linalg.lstsq(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_residual_orthogonality_inconsistent(self):
        rng = np.random.default_rng(24)
        A = rng.normal(size=(30, 5))
        b = rng.normal(size=30)  # not in the range of A
        x = linalg.lstsq(A, b)
        ortho = np.linalg.norm(A.T @ (A @ x - b))
        assert ortho <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(b)

    def test_duplicated_column(self):
        rng = np.random.default_rng(23)
        c = rng.normal(size=(6, 1))
        A = np.hstack([c, c, rng.normal(size=(6, 1))])
        with pytest.raises(RankDeficiencyError) as ei:
            linalg.lstsq(A, np.ones(6))
        assert ei.value.rank == 2

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            linalg.lstsq(np.ones((2, 3)), np.ones(2))


class TestSymIndex:
    def test_order(self):
        rows, cols = linalg.sym_index(3)
        assert rows.tolist() == [0, 1, 2, 0, 0, 1]
        assert cols.tolist() == [0, 1, 2, 1, 2, 2]

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 10])
    def test_round_trip(self, n):
        rows, cols = linalg.sym_index(n)
        assert len(rows) == len(cols) == n * (n + 1) // 2
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
        assert np.all(rows <= cols)
        M = np.random.default_rng(n).normal(size=(n, n))
        M = M + M.T
        S = np.zeros((n, n))
        S[rows, cols] = S[cols, rows] = M[rows, cols]
        assert np.array_equal(S, M)


class TestSymEig:
    def test_diagonal(self):
        w, _ = linalg.sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])

    def test_identity(self):
        w, _ = linalg.sym_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))

    def test_exchange(self):
        w, _ = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(6, 6))
        M = M + M.T
        w, V = linalg.sym_eig(M)
        scale = 1.0 + np.linalg.norm(M, "fro")
        assert np.linalg.norm((V * w) @ V.T - M, "fro") <= 1e-10 * scale
        assert np.linalg.norm(V.T @ V - np.eye(6), "fro") <= 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetryError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        np.testing.assert_allclose(
            linalg.psd_project(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]), atol=1e-14
        )

    def test_idempotent_on_psd(self):
        rng = np.random.default_rng(41)
        M = rng.normal(size=(4, 4))
        P = M @ M.T
        np.testing.assert_allclose(linalg.psd_project(P), P, atol=1e-12)

    def test_idempotent_and_psd_output(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            M = rng.normal(size=(3, 3))
            P = linalg.psd_project(M + M.T)
            np.testing.assert_allclose(linalg.psd_project(P), P, atol=1e-12)
            assert np.linalg.eigvalsh(P).min() >= -1e-12

    def test_matches_grid_oracle_2x2(self):
        # brute-force oracle: coarse grid over the PSD cone {[a b; b c]}
        rng = np.random.default_rng(43)
        for _ in range(3):
            M = rng.normal(size=(2, 2))
            M = 0.5 * (M + M.T)
            P = linalg.psd_project(M)
            ours = np.linalg.norm(P - M, "fro")
            a = np.linspace(0, 3, 61)
            b = np.linspace(-3, 3, 121)
            A, C, Bm = np.meshgrid(a, a, b, indexing="ij")
            feas = Bm**2 <= A * C
            d2 = (A - M[0, 0]) ** 2 + (C - M[1, 1]) ** 2 + 2 * (Bm - M[0, 1]) ** 2
            best = np.sqrt(d2[feas].min())
            assert ours <= best + 1e-3


class TestSpectral:
    def test_diagonal(self):
        M = np.diag([-1.0, -2.0])
        assert linalg.spectral_abscissa(M) == pytest.approx(-1.0)
        assert linalg.spectral_radius(M) == pytest.approx(2.0)

    def test_rotation_generator(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.spectral_abscissa(M) == pytest.approx(0.0, abs=1e-12)
        assert linalg.spectral_radius(M) == pytest.approx(1.0, abs=1e-12)

    def test_case2_reference_gain_is_stabilizing(self, case2):
        from lqpoison.config import CASE2_KSTAR_REF

        Acl = case2.system.A + case2.system.B @ CASE2_KSTAR_REF
        assert linalg.spectral_abscissa(Acl) < 0

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


def capped_expm(M, scale=1.0):
    """Oracle: expm with its former stop test, summing up to 39 terms."""
    S = np.asarray(M, dtype=float) * scale
    norm = np.linalg.norm(S, "fro")
    k = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    S = np.ldexp(S, -k)
    E = term = np.eye(S.shape[0])
    for i in range(1, 40):
        term = term @ S / i
        E = E + term
        if i >= 20 and np.linalg.norm(term, "fro") < 1e-20 * np.linalg.norm(E, "fro"):
            break
    for _ in range(k):
        E = E @ E
    return E


class TestAsMatrix:
    def test_expected_shape_names_the_matrix(self):
        with pytest.raises(DimensionError, match=r"^K must be 2x4, got \(1, 4\)$"):
            linalg.as_matrix(np.ones((1, 4)), "K", (2, 4))

    def test_matching_shape_coerces(self):
        M = linalg.as_matrix([[1, 2, 3], [4, 5, 6]], "M", (2, 3))
        assert M.dtype == np.float64 and M.shape == (2, 3)


class TestExpm:
    def test_twenty_terms_match_capped_series(self):
        rng = np.random.default_rng(14)
        inputs = [(np.zeros((3, 3)), 1.0)]
        for n in (1, 2, 4, 7, 13):
            for scale in (1e-8, 1e-3, 1.0, 30.0):
                inputs.append((rng.normal(size=(n, n)), scale))
                inputs.append((np.triu(10.0 * rng.normal(size=(n, n))), scale / 10.0))
        for M, scale in inputs:
            assert np.array_equal(linalg.expm(M, scale), capped_expm(M, scale))

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

    @pytest.mark.parametrize("M,scale", [
        ([[1e308, 1e308], [0.0, 0.0]], 0.01),  # ||M scale||_F overflows
        ([[6e307, 0.0], [0.0, 0.0]], 1.0),  # 2^k overflows, k = 1024
        ([[1.0, 0.0], [0.0, -1.0]], 1e4),  # e^(M scale) overflows
    ])
    def test_overflow_refused_naming_scale(self, M, scale):
        with pytest.raises(ValueError, match=f"not finite at dt = {scale:g}"):
            linalg.expm(M, scale)

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

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            linalg.zoh_pair(np.eye(2), np.eye(2), dt)

    def test_b_rows_checked_against_a(self):
        with pytest.raises(DimensionError, match=r"^B must have 2 rows, got \(3, 1\)"):
            linalg.zoh_pair(np.eye(2), np.ones((3, 1)), 0.1)


def block_lstsq(A, b, rows=None):
    """``linalg.lstsq`` on [A | b] cut into blocks of ``rows`` rows (default the
    largest), with X a vector for a vector b."""
    M = np.column_stack([A, b])
    rows = rows or linalg.LSTSQ_BLOCK_ROWS
    X, s = linalg.lstsq(lambda: [M[i : i + rows] for i in range(0, len(M), rows)], A.shape[1])
    return (X[:, 0] if np.ndim(b) == 1 else X), s


def conditioned(rng, N, p, cond):
    """An N x p Gaussian matrix with columns scaled from 1 down to 1/cond."""
    return rng.normal(size=(N, p)) * np.logspace(0, -math.log10(cond), p)


class TestLstsq:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(block_lstsq(np.eye(3), v)[0], v)

    def test_planted_solution(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(20, 4))
        X0 = rng.normal(size=(4, 3))
        X, _ = block_lstsq(A, A @ X0)
        np.testing.assert_allclose(X, X0, atol=1e-10)

    def test_consistent_residual(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(30, 5))
        b = A @ rng.normal(size=5)
        x, _ = block_lstsq(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_residual_orthogonality_inconsistent(self):
        rng = np.random.default_rng(24)
        A = rng.normal(size=(30, 5))
        b = rng.normal(size=30)  # not in the range of A
        x, _ = block_lstsq(A, b)
        ortho = np.linalg.norm(A.T @ (A @ x - b))
        assert ortho <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(b)

    def test_singular_values_of_a(self):
        rng = np.random.default_rng(25)
        A = rng.normal(size=(30, 5))
        _, s = block_lstsq(A, rng.normal(size=30))
        np.testing.assert_allclose(s, np.linalg.svd(A, compute_uv=False), rtol=1e-12)

    def test_duplicated_column(self):
        rng = np.random.default_rng(23)
        c = rng.normal(size=(6, 1))
        A = np.hstack([c, c, rng.normal(size=(6, 1))])
        with pytest.raises(RankDeficiencyError) as ei:
            block_lstsq(A, np.ones(6))
        assert ei.value.rank == 2
        # the triangle carries A's right singular vectors: its null vector is (1, -1, 0)/sqrt(2)
        v = np.linalg.svd(ei.value.triangle)[2][-1]
        np.testing.assert_allclose(np.abs(v), [0.5**0.5, 0.5**0.5, 0.0], atol=1e-12)

    def test_wide_rejected(self):
        with pytest.raises(DimensionError, match=r"^A must have at least as many rows as "
                                                 r"columns, got \(2, 3\)$"):
            block_lstsq(np.ones((2, 3)), np.ones(2))

    def test_non_finite_block_rejected(self):
        A = np.ones((2000, 3))
        A[1500, 1] = np.inf  # in the third block
        with pytest.raises(ValueError, match="^A has non-finite entries$"):
            block_lstsq(A, np.ones(2000))

    @pytest.mark.parametrize("scale", [2.0**-660, 2.0**660])
    def test_same_bits_at_any_scale(self, scale):
        # the refinement is taken in units of a power of two near s[0], so at
        # A ~ 1e+-199 its A^T (B - A X) neither overflows (a RuntimeWarning is
        # an error here) nor underflows to no step: the bits are those at scale 1
        rng = np.random.default_rng(27)
        A = conditioned(rng, 1100, 12, 1e3)
        B = A @ rng.normal(size=(12, 2)) + 1e-3 * rng.normal(size=(1100, 2))
        X, s = block_lstsq(A, B)
        Xc, sc = block_lstsq(A * scale, B * scale)
        assert np.array_equal(Xc, X) and np.array_equal(sc, s * scale)

    def test_one_block_makes_numpys_call(self, monkeypatch):
        # before its refinement step, a one-block fit is np.linalg.lstsq's, bit for bit
        rng = np.random.default_rng(26)
        A = conditioned(rng, linalg.LSTSQ_BLOCK_ROWS, 61, 1e6)
        B = A @ rng.normal(size=(61, 2)) + 1e-3 * rng.normal(size=(len(A), 2))
        ref = np.linalg.lstsq(A, B, rcond=None)
        solve, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(solve(*args, **kw)) or calls[-1])
        X, s = linalg.lstsq(lambda: [np.hstack([A, B])], 61)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], ref[0]) and np.array_equal(s, ref[3])
        assert calls[0][2] == ref[2] == 61
        assert not np.array_equal(X, ref[0])  # the refinement moved X

    @pytest.mark.parametrize("N", [linalg.LSTSQ_BLOCK_ROWS - 1, linalg.LSTSQ_BLOCK_ROWS,
                                   linalg.LSTSQ_BLOCK_ROWS + 1, 3 * linalg.LSTSQ_BLOCK_ROWS + 7])
    def test_blocks_agree_with_one_call(self, N):
        # same rank, singular values to 1e-12 and solution to cond * eps as
        # np.linalg.lstsq on the whole of A; a duplicated column is found too
        rng = np.random.default_rng(N)
        A = conditioned(rng, N, 20, 1e5)
        B = A @ rng.normal(size=(20, 3)) + 1e-6 * rng.normal(size=(N, 3))
        X, s = block_lstsq(A, B)
        X0, _, rank, s0 = np.linalg.lstsq(A, B, rcond=None)
        assert rank == 20
        np.testing.assert_allclose(s, s0, rtol=1e-12)
        cond = s0[0] / s0[-1]
        assert np.linalg.norm(X - X0) <= cond * np.finfo(float).eps * np.linalg.norm(X0)
        A[:, 7] = A[:, 3]
        with pytest.raises(RankDeficiencyError) as ei:
            block_lstsq(A, B)
        assert ei.value.rank == np.linalg.lstsq(A, B, rcond=None)[2] == 19


class TestRowNorms:
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (500, 4), (300, 10)])
    def test_within_rounding_of_numpy_norm(self, shape):
        rng = np.random.default_rng(shape[1])
        X = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100, size=(shape[0], 1))
        ref = np.linalg.norm(X, axis=1)
        got = linalg.row_norms(X)
        assert got.shape == ref.shape
        # each sums n squares within n u of exact (u = eps / 2), and each
        # sqrt rounds once: the two agree within (n / 2 + 1) eps relative
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - ref) <= (shape[1] / 2 + 1) * eps * ref)

    def test_inf_and_nan_rows(self):
        # the divergence cut counts a non-finite norm as past its limit
        X = np.array([[1.0, np.inf, 0.0], [-np.inf, 2.0, 3.0], [np.nan, 1.0, 0.0],
                      [np.inf, np.nan, 1.0], [3.0, 4.0, 0.0]])
        got = linalg.row_norms(X)
        assert got[:2].tolist() == [np.inf, np.inf]
        assert np.isnan(got[2:4]).all()
        assert got[4] == 5.0


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

    @pytest.mark.parametrize("M,match", [
        ([[1.0, 1e308], [-1e308, 1.0]], "asymmetric beyond tolerance"),
        ([[-1e308, 0.0], [0.0, 1.0]], r"Q must be positive semidefinite \(min eig -1.000e\+308\)"),
    ], ids=["asymmetric", "indefinite"])
    def test_finite_input_near_overflow(self, M, match):
        # neither the asymmetry test nor the symmetrization may overflow:
        # pytest's filters turn any RuntimeWarning into an error
        with pytest.raises(ValueError, match=match):
            linalg.require_psd(np.array(M), "Q")


class TestRequirePsd:
    @pytest.mark.parametrize("w", [
        [1.0, 0.0], [1.0, -0.5e-10], [1.0, -2e-10], [0.0, 0.0], [-1.0, -1.0],
        [1e-3, -5e-11], [3.0, 2.0, -1e-11],
    ])
    def test_verdict_does_not_depend_on_the_scale(self, w):
        rng = np.random.default_rng(len(w))
        V = np.linalg.qr(rng.normal(size=(len(w), len(w))))[0]
        M = (V * np.array(w)) @ V.T
        M = 0.5 * (M + M.T)

        def verdict(c):
            try:
                linalg.require_psd(c * M, "M")
            except ValueError:
                return False
            return True

        expected = min(w) >= linalg.PSD_EIG_FLOOR * max(abs(v) for v in w)
        assert [verdict(c) for c in (1e-8, 1.0, 1e8)] == [expected] * 3


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

    def test_rotation_generator(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.spectral_abscissa(M) == pytest.approx(0.0, abs=1e-12)

    def test_case2_reference_gain_is_stabilizing(self, case2):
        from lqpoison.config import CASE2_KSTAR_REF

        Acl = case2.system.A + case2.system.B @ CASE2_KSTAR_REF
        assert linalg.spectral_abscissa(Acl) < 0


def step_rollout(F, x0, w):
    """Reference: x_{k+1} = F x_k + w_k one step at a time."""
    xs = np.empty((len(w) + 1, len(x0)))
    xs[0] = x0
    for k in range(len(w)):
        xs[k + 1] = F @ xs[k] + w[k]
    return xs


def assert_tracks(got, ref):
    """Same shape and x0, and each state within 1e-12 of the running max norm."""
    assert got.shape == ref.shape
    assert np.array_equal(got[0], ref[0])
    scale = np.maximum.accumulate(np.linalg.norm(ref, axis=1))
    assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-12 * scale)


def scaled_to_radius(rho, n=4, seed=0):
    M = np.random.default_rng(seed).normal(size=(n, n))
    return M * (rho / np.max(np.abs(np.linalg.eigvals(M))))


class TestPowerTable:
    def test_powers(self):
        M = scaled_to_radius(0.9)
        pows = linalg.power_table(M, 5)
        assert pows.shape == (5, 4, 4)
        for j, P in enumerate(pows):
            np.testing.assert_allclose(P, np.linalg.matrix_power(M, j + 1), rtol=1e-13, atol=1e-15)

    def test_stops_before_first_overflow(self):
        pows = linalg.power_table(np.diag([1e120, 0.5]), 256)
        assert len(pows) == 2  # M^3 overflows
        assert np.isfinite(pows).all()

    def test_always_holds_m(self):
        M = np.diag([1e200, 0.5])
        pows = linalg.power_table(M, 256)
        assert len(pows) == 1 and np.array_equal(pows[0], M)


class TestDrivenRollout:
    @pytest.mark.parametrize("rho", [0.98, 1.002])
    # the block size isqrt(N) + 1 steps from 4 to 5 at N = 16
    @pytest.mark.parametrize("N", [1, 2, 15, 16, 17, 256, 257, 499, 5000])
    def test_matches_step_recursion(self, rho, N):
        rng = np.random.default_rng(N)
        F = scaled_to_radius(rho)
        x0, w = rng.normal(size=4), rng.normal(size=(N, 4))
        assert_tracks(linalg.rollout(F, x0, N, w), step_rollout(F, x0, w))

    def test_overflowing_power_keeps_finite_row_finite(self):
        # F^2 overflows but x0 = e2 never excites the first mode, so the
        # recursion decays; no inf * 0 may put a NaN in those rows.
        F = np.diag([1e200, 0.5])
        got = linalg.rollout(F, np.array([0.0, 1.0]), 600, np.zeros((600, 2)))
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, step_rollout(F, np.array([0.0, 1.0]), np.zeros((600, 2))))


class TestFreeRollout:
    @pytest.mark.parametrize("N", [1000, 40000])
    def test_matches_step_recursion(self, N):
        F = scaled_to_radius(0.9999)
        x0 = np.random.default_rng(N).normal(size=4)
        assert_tracks(linalg.rollout(F, x0, N), step_rollout(F, x0, np.zeros((N, 4))))


@pytest.mark.parametrize("N", [499, 1000, 40000])
def test_rollout_block_size_is_isqrt_n_plus_one(monkeypatch, N):
    table, asked = linalg.power_table, []

    def recording(M, count):
        asked.append(count)
        return table(M, count)

    monkeypatch.setattr(linalg, "power_table", recording)
    F = scaled_to_radius(0.9)
    linalg.rollout(F, np.ones(4), N)
    linalg.rollout(F, np.ones(4), N, np.zeros((N, 4)))
    assert asked == [math.isqrt(N) + 1] * 2

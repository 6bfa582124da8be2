"""Two-step system identification from batch data.

Step 1 fits the exact discrete-time model x_{k+1} = F x_k + G u_k by least
squares over the regressors z_k = [x_k; u_k]. Step 2 converts to
continuous time with phi = log(F) (F - I)^-1: A = phi (F - I) / dt is
log(F)/dt and B = phi G / dt inverts the zero-order-hold integral. phi comes
from inverse scaling and squaring (Higham, *Functions of Matrices*, 2008,
ch. 11): principal square roots F_j = F^(1/2^j) until L = F_k - I has
||L||_F <= 1/2, then the series log(I + L) L^-1 = I - L/2 + L^2/3 - ...,
then phi = 2^k (series) prod_j (I + F_j)^-1 (all functions of F, so they
commute). The series stops at its own rounding, its first term with
||term||_F <= eps ||sum||_F: term j is at most 2^-j / (j + 1) and the
sum's eigenvalues log(1 + mu) / mu, |mu| <= 1/2, exceed 0.6 in modulus, so
it takes at most 48 terms. The log exists unless F has an eigenvalue on the
closed negative real axis, which means the data were sampled too coarsely.
``estimate_fg`` refuses an F eigenvalue within the fit's rounding
n eps cond(Z) ||F||_F (Higham 2002, ch. 20): its log is noise.

Cost-weight estimation (``estimate_qr``) regresses the recorded costs on
the symmetric quadratic monomials of x and u, in the ``linalg.sym_index``
order of each; off-diagonal features carry weight 2 so the fitted
coefficients are exactly the entries of symmetric Q and R, with no
symmetry null-space in the normal equations.

Both fits hand ``linalg.lstsq`` their regressors in row blocks, written
into one reused buffer (``_row_blocks``): [x_k, u_k | x_{k+1}] for (F, G),
the quadratic features and the cost for (Q, R). Neither the N x (n + m)
nor the N x (features) regressor is ever formed, so the fits' memory does
not grow with N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import BatchDataset, write_json
from .errors import (
    ConvergenceError,
    IdentifiabilityError,
    LearnabilityError,
    RankDeficiencyError,
)

MAX_SQRTS = 32  # most square roots taken before the series
DB_MAX_STEPS = 64  # most Denman-Beavers steps per square root
DB_TOL = 1e-8  # relative Denman-Beavers step after which the root is about DB_TOL^2 off


@dataclass(frozen=True)
class DiscreteModel:
    """Least-squares fit (F, G) of the one-step model."""

    F: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class SysIdEstimate:
    """Continuous-time estimate, optionally with fitted cost weights."""

    Ahat: np.ndarray
    Bhat: np.ndarray
    Qhat: np.ndarray | None = None
    Rhat: np.ndarray | None = None
    series_terms: int = 0


def _deficient_directions(R: np.ndarray, rank: int, labels: list[str]) -> str:
    """Human-readable description of the null-space directions of a regressor.

    ``R`` is the regressor's triangle from ``linalg.lstsq``, whose right
    singular vectors are the regressor's. Each direction's sign is set so
    that its largest coefficient is positive, so the text does not depend on
    the signs the factorization happened to give.
    """
    _, _, Vt = np.linalg.svd(R)
    descs = []
    for v in Vt[rank:]:
        v = v if v[np.argmax(np.abs(v))] > 0 else -v
        terms = [
            f"{v[i]:+.2f}*{labels[i]}" for i in range(len(v)) if abs(v[i]) > 0.3
        ]
        descs.append(" ".join(terms) if terms else "(diffuse)")
    return "; ".join(descs)


def _row_blocks(N: int, width: int, fill):
    """``blocks`` for ``linalg.lstsq``: the N rows of a regressor, in row blocks.

    ``fill(i, out)`` writes rows i, i + 1, ... of the regressor into ``out``,
    a slice of the one column-major buffer that every block reuses.
    """

    def blocks():
        buf = np.empty((min(N, linalg.LSTSQ_BLOCK_ROWS), width), order="F")
        for i in range(0, N, linalg.LSTSQ_BLOCK_ROWS):
            out = buf[: N - i]
            fill(i, out)
            yield out

    return blocks


def estimate_fg(d: BatchDataset) -> DiscreteModel:
    """Least-squares fit of the one-step model x_{k+1} = F x_k + G u_k."""
    n, m = d.n, d.m
    if d.N < n + m + 1:
        raise IdentifiabilityError(
            f"need at least {n + m + 1} samples to identify, got {d.N}"
        )

    def fill(i, out):
        j = i + len(out)
        out[:, :n], out[:, n : n + m], out[:, n + m :] = d.xs[i:j], d.us[i:j], d.xs[i + 1 : j + 1]

    try:
        Theta, s = linalg.lstsq(_row_blocks(d.N - 1, 2 * n + m, fill), n + m)
    except RankDeficiencyError as e:
        labels = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
        raise IdentifiabilityError(
            f"regressor matrix is rank deficient ({e.rank} < {n + m}); "
            f"unexcited directions: {_deficient_directions(e.triangle, e.rank, labels)}"
        ) from e
    F, G = Theta[:n].T, Theta[n:].T
    floor = n * np.finfo(float).eps * s[0] / s[-1] * np.linalg.norm(F)
    lam = float(np.min(np.abs(np.linalg.eigvals(F))))
    if lam <= floor:
        raise IdentifiabilityError(
            f"fitted F has an eigenvalue of modulus {lam:.3g} <= {floor:.3g}, the fit's rounding: "
            f"a plant mode decays too fast to resolve at sampling interval dt = {d.dt:g}"
        )
    return DiscreteModel(F=F, G=G)


def _sqrtm(F: np.ndarray) -> np.ndarray:
    """Principal square root of F by Denman-Beavers iteration (Higham 2008, (6.15)).

    Y -> F^(1/2) and Z -> F^(-1/2) quadratically, so the step that moves Y by
    at most ``DB_TOL`` relative leaves it about DB_TOL^2 off, and is the last.
    """
    Y, Z = F, np.eye(len(F))
    for _ in range(DB_MAX_STEPS):
        Y, Z, Y_prev = 0.5 * (Y + np.linalg.inv(Z)), 0.5 * (Z + np.linalg.inv(Y)), Y
        if np.linalg.norm(Y - Y_prev) <= DB_TOL * np.linalg.norm(Y):
            return Y
    raise ConvergenceError(f"Denman-Beavers square root not reached in {DB_MAX_STEPS} steps")


def log_indirect(F, G, dt: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Continuous (A, B) from a discrete (F, G) by inverse scaling and squaring.

    Returns (A, B, terms), ``terms`` the number of series terms summed (at
    most 48). A well-sampled A is recovered to about machine precision. An F
    with no real log raises ``LearnabilityError``.
    """
    F = linalg.as_matrix(F, "F")
    G = linalg.as_matrix(G, "G")
    linalg.require_dt(dt)
    lam = np.linalg.eigvals(F)
    cut = lam[(lam.imag == 0) & (lam.real <= 0)]
    if cut.size:
        raise LearnabilityError(
            f"F has eigenvalue {cut.real[0]:.4g} <= 0, so it has no real log: the "
            f"sampling interval dt = {dt:g} is too coarse for the plant"
        )
    I = np.eye(len(F))
    roots = [F]
    while np.linalg.norm(roots[-1] - I) > 0.5:
        if len(roots) > MAX_SQRTS:
            raise ConvergenceError(f"F^(1/2^{MAX_SQRTS}) is still farther than 1/2 from I")
        roots.append(_sqrtm(roots[-1]))
    L = roots[-1] - I
    phi = term = I
    for terms in itertools.count(1):
        term = -(terms / (terms + 1)) * (L @ term)
        phi = phi + term
        if np.linalg.norm(term) <= np.finfo(float).eps * np.linalg.norm(phi):
            break
    for Fj in roots[1:]:
        phi = np.linalg.solve(I + Fj, 2.0 * phi)
    return phi @ (F - I) / dt, phi @ G / dt, terms


def _quad_features(xs: np.ndarray, us: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the quadratic monomials of x, then of u, into the columns of ``out``.

    The monomials are in ``linalg.sym_index`` order (named by ``_quad_labels``),
    one row of ``out`` per row of xs and us. Each product is written into its
    column from a transposed copy of x or u, so no temporary of ``out``'s size
    is formed, and each off-diagonal column is doubled after its product. A
    column-major ``out`` (as ``_row_blocks`` makes) is written contiguously.
    Returns ``out``.
    """
    cols = out.T
    top = 0
    for V in (xs.T.copy(), us.T.copy()):
        k = len(V)
        r, c = linalg.sym_index(k)
        for col, i, j in zip(cols[top:], r.tolist(), c.tolist()):
            np.multiply(V[i], V[j], out=col)
        cols[top + k : top + len(r)] *= 2.0
        top += len(r)
    return out


def _quad_labels(n: int, m: int) -> list[str]:
    """Names of the ``_quad_features`` columns: x0^2, ..., x0*x1, ..., u0^2, ..."""
    labels = []
    for name, k in (("x", n), ("u", m)):
        r, c = linalg.sym_index(k)
        labels += [f"{name}{i}^2" if i == j else f"{name}{i}*{name}{j}"
                   for i, j in zip(r.tolist(), c.tolist())]
    return labels


def estimate_qr(d: BatchDataset) -> tuple[np.ndarray, np.ndarray]:
    """Fit symmetric (Q, R) to the recorded costs by least squares.

    Q is projected onto the PSD cone after the fit; R is required to come
    out positive definite, otherwise the fit is rejected.
    """
    n, m = d.n, d.m
    nq = n * (n + 1) // 2  # Q's share of the coefficients
    n_params = nq + m * (m + 1) // 2
    if d.N < n_params:
        raise IdentifiabilityError(
            f"need at least {n_params} samples to fit cost weights, got {d.N}"
        )

    def fill(i, out):
        j = i + len(out)
        _quad_features(d.xs[i:j], d.us[i:j], out[:, :n_params])
        out[:, n_params] = d.cs[i:j]

    try:
        theta, _ = linalg.lstsq(_row_blocks(d.N, n_params + 1, fill), n_params)
    except RankDeficiencyError as e:
        raise IdentifiabilityError(
            f"quadratic features are rank deficient ({e.rank} < {n_params}); dependent "
            f"combinations: {_deficient_directions(e.triangle, e.rank, _quad_labels(n, m))}"
        ) from e
    Q = np.zeros((n, n))
    R = np.zeros((m, m))
    for M, th in ((Q, theta[:nq, 0]), (R, theta[nq:, 0])):
        r, c = linalg.sym_index(len(M))
        M[r, c] = M[c, r] = th
    Q = linalg.psd_project(Q)
    try:
        linalg.require_psd(R, "fitted control weight R", definite=True)
    except ValueError as e:
        raise IdentifiabilityError(str(e)) from e
    return Q, R


def identify(d: BatchDataset, with_qr: bool = False) -> SysIdEstimate:
    """Full identification chain: (F, G) fit, log conversion, optional (Q, R)."""
    model = estimate_fg(d)
    Ahat, Bhat, terms = log_indirect(model.F, model.G, d.dt)
    Qhat = Rhat = None
    if with_qr:
        Qhat, Rhat = estimate_qr(d)
    return SysIdEstimate(Ahat=Ahat, Bhat=Bhat, Qhat=Qhat, Rhat=Rhat, series_terms=terms)


def model_write(est: SysIdEstimate, dt: float, path: str) -> None:
    n, m = est.Ahat.shape[0], est.Bhat.shape[1]
    doc = {
        "n": n,
        "m": m,
        "dt": dt,
        "Ahat": est.Ahat.tolist(),
        "Bhat": est.Bhat.tolist(),
        "Qhat": None if est.Qhat is None else est.Qhat.tolist(),
        "Rhat": None if est.Rhat is None else est.Rhat.tolist(),
        "series_terms": est.series_terms,
    }
    write_json(path, doc)

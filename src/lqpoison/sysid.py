"""Two-step system identification from batch data.

Step 1 fits the exact discrete-time model x_{k+1} = F x_k + G u_k by least
squares over the stacked regressors z_k = [x_k; u_k]. Step 2 converts to
continuous time through the alternating series

    accum = I - L/2 + L^2/3 - L^3/4 + ...,   L = F - I,

whose limit is log(I + L) L^-1, so A = accum L / dt equals log(F)/dt and
B = accum G / dt inverts the zero-order-hold integral. The series converges
exactly when spectral_radius(L) < 1. The plant's learnability gate requires
this of the true F; the fitted F is checked again before the series runs.
The series stops at its first term below ``SERIES_EPS`` (one tolerance for
every caller), and a series that reaches its term cap first raises rather
than returning a truncated sum.

Cost-weight estimation (``estimate_qr``) regresses the recorded costs on
the symmetric quadratic monomials of x and u, in the ``linalg.sym_index``
order of each; off-diagonal features carry weight 2 so the fitted
coefficients are exactly the entries of symmetric Q and R, with no
symmetry null-space in the normal equations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import BatchDataset, write_json
from .errors import (
    ConvergenceError,
    EstimationError,
    IdentifiabilityError,
    RankDeficiencyError,
)

SERIES_EPS = 1e-10  # log-series stopping tolerance (Frobenius norm of a term)


@dataclass(frozen=True)
class DiscreteModel:
    """Fitted (F, G) with the mean squared one-step prediction error."""

    F: np.ndarray
    G: np.ndarray
    residual: float


@dataclass(frozen=True)
class SysIdEstimate:
    """Continuous-time estimate, optionally with fitted cost weights."""

    Ahat: np.ndarray
    Bhat: np.ndarray
    Qhat: np.ndarray | None = None
    Rhat: np.ndarray | None = None
    series_terms: int = 0


def _deficient_directions(Z: np.ndarray, rank: int, labels: list[str]) -> str:
    """Human-readable description of the null-space directions of Z.

    Z must have at least as many rows as columns, so the thin SVD already
    holds every right singular vector and no rows x rows U is formed.
    """
    _, _, Vt = np.linalg.svd(Z, full_matrices=False)
    descs = []
    for v in Vt[rank:]:
        terms = [
            f"{v[i]:+.2f}*{labels[i]}" for i in range(len(v)) if abs(v[i]) > 0.3
        ]
        descs.append(" ".join(terms) if terms else "(diffuse)")
    return "; ".join(descs)


def estimate_fg(d: BatchDataset) -> DiscreteModel:
    """Least-squares fit of the one-step model x_{k+1} = F x_k + G u_k."""
    n, m = d.n, d.m
    if d.N < n + m + 1:
        raise IdentifiabilityError(
            f"need at least {n + m + 1} samples to identify, got {d.N}"
        )
    Z = np.hstack([d.xs[:-1], d.us[:-1]])
    X = d.xs[1:]
    try:
        Theta = linalg.lstsq(Z, X)
    except RankDeficiencyError as e:
        labels = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
        raise IdentifiabilityError(
            f"regressor matrix is rank deficient ({e.rank} < {n + m}); "
            f"unexcited directions: {_deficient_directions(Z, e.rank, labels)}"
        ) from e
    F = Theta[:n].T
    G = Theta[n:].T
    resid = float(np.linalg.norm(Z @ Theta - X, "fro") ** 2 / (d.N - 1))
    return DiscreteModel(F=F, G=G, residual=resid)


def _log_series(L: np.ndarray, eps: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Alternating series for log(I + L) L^-1; returns (accum, terms).

    Stops at the first term whose Frobenius norm is at most ``eps``; if
    ``max_iter`` terms do not get there, raises ``ConvergenceError``.
    """
    n = L.shape[0]
    accum = np.eye(n)
    term = np.eye(n)
    size = 1.0
    for i in range(max_iter):
        term = -((i + 1) / (i + 2)) * (L @ term)
        accum = accum + term
        size = float(np.linalg.norm(term, "fro"))
        if size <= eps:
            return accum, i + 1
    raise ConvergenceError(
        f"log series did not reach eps = {eps:.1e} in {max_iter} terms "
        f"(last term {size:.3e}); raise the term cap",
        residual=size,
    )


def log_indirect(
    F, G, dt: float, eps: float = SERIES_EPS, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray, int]:
    """Continuous (A, B) from a discrete (F, G) via the matrix-log series.

    Returns (A, B, terms), ``terms`` being the number of series terms summed.
    The series stops at the first term whose Frobenius norm is at most
    ``eps``; the default ``SERIES_EPS`` recovers a well-sampled A to about
    machine precision.
    """
    F = linalg.as_matrix(F, "F")
    G = linalg.as_matrix(G, "G")
    linalg.require_dt(dt)
    L = F - np.eye(F.shape[0])
    rho = linalg.spectral_radius(L)
    if rho >= 1.0:
        raise ConvergenceError(
            f"log series diverges: spectral_radius(F - I) = {rho:.4g} >= 1; "
            "collect data with a smaller sampling interval",
            residual=rho,
        )
    accum, terms = _log_series(L, eps, max_iter)
    return accum @ L / dt, accum @ G / dt, terms


def _quad_features(xs: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Quadratic monomials of x, then of u, in ``linalg.sym_index`` order."""
    blocks, labels = [], []
    for name, V in (("x", xs), ("u", us)):
        r, c = linalg.sym_index(V.shape[1])
        blocks.append(np.where(r == c, 1.0, 2.0) * V[:, r] * V[:, c])
        labels += [f"{name}{i}^2" if i == j else f"{name}{i}*{name}{j}"
                   for i, j in zip(r.tolist(), c.tolist())]
    return np.hstack(blocks), labels


def estimate_qr(d: BatchDataset) -> tuple[np.ndarray, np.ndarray]:
    """Fit symmetric (Q, R) to the recorded costs by least squares.

    Q is projected onto the PSD cone after the fit; R is required to come
    out positive definite, otherwise the fit is rejected.
    """
    n, m = d.n, d.m
    nq = n * (n + 1) // 2  # Q's share of the coefficients
    n_params = nq + m * (m + 1) // 2
    Phi, labels = _quad_features(d.xs, d.us)
    if d.N < n_params:
        raise IdentifiabilityError(
            f"need at least {n_params} samples to fit cost weights, got {d.N}"
        )
    try:
        theta = linalg.lstsq(Phi, d.cs)
    except RankDeficiencyError as e:
        raise IdentifiabilityError(
            f"quadratic features are rank deficient ({e.rank} < {n_params}); "
            f"dependent combinations: {_deficient_directions(Phi, e.rank, labels)}"
        ) from e
    Q = np.zeros((n, n))
    R = np.zeros((m, m))
    for M, th in ((Q, theta[:nq]), (R, theta[nq:])):
        r, c = linalg.sym_index(len(M))
        M[r, c] = M[c, r] = th
    Q = linalg.psd_project(Q)
    try:
        linalg.require_psd(R, "fitted control weight R", definite=True)
    except ValueError as e:
        raise EstimationError(str(e)) from e
    return Q, R


def identify(
    d: BatchDataset, eps: float = SERIES_EPS, max_iter: int = 500, with_qr: bool = False
) -> SysIdEstimate:
    """Full identification chain: (F, G) fit, log conversion, optional (Q, R)."""
    model = estimate_fg(d)
    Ahat, Bhat, terms = log_indirect(model.F, model.G, d.dt, eps, max_iter)
    Qhat = Rhat = None
    if with_qr:
        Qhat, Rhat = estimate_qr(d)
    return SysIdEstimate(
        Ahat=Ahat, Bhat=Bhat, Qhat=Qhat, Rhat=Rhat, series_terms=terms
    )


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
    }
    write_json(path, doc)


def model_read(path: str) -> tuple[SysIdEstimate, float]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    est = SysIdEstimate(
        Ahat=np.array(doc["Ahat"], dtype=float),
        Bhat=np.array(doc["Bhat"], dtype=float),
        Qhat=None if doc.get("Qhat") is None else np.array(doc["Qhat"], dtype=float),
        Rhat=None if doc.get("Rhat") is None else np.array(doc["Rhat"], dtype=float),
    )
    return est, float(doc["dt"])

"""The attack's constraint, and the exact polish that certifies a point of it.

A planted model (Atilde, P) makes the gain K the LQR gain of
(Atilde, Bhat, Qhat, Rhat) when P > 0 and both constraint blocks vanish:

    Atilde^T P + P (Atilde + Bhat K) + Qhat = 0,
    Rhat K + Bhat^T P = 0.

Not every target gain admits such a point: the second block alone asks
Rhat K Bhat to be symmetric. ``gain_slice`` replaces the target by the
attainable gain K' = -Rhat^-1 Bhat^T P0, where P0 is the least-squares
solution of Bhat^T P = -Rhat Ktarget, and reports the floor
||Bhat^T P0 + Rhat Ktarget||_F; K' is the target when the floor is 0. Fixing
P, the A-step's mu -> inf limit (``planted``) meets the first block exactly,
so the attack becomes min ||Atilde(P) - Ahat||_F^2 over P > 0 on the affine
slice {P symmetric : Bhat^T P = -Rhat K'}, which ``polish`` solves, or
approaches: every point it accepts lies on the slice. Its certificate is the
constraint residual of the returned (Atilde, P) against K'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .lq import lqr_gain

if TYPE_CHECKING:
    from .poison import AttackSpec

MAX_POLISH_ITER = 50  # damped Newton steps of one polish
# Polish stationarity: the Newton decrement g^T H^-1 g is at most
# POLISH_TOL s (||r||_F + POLISH_TOL s), s = ||Ahat||_F + ||r||_F, which is
# about where rounding in the residual r hides any further decrease.
POLISH_TOL = 1e-12
# The polish stops short of stationary, at its last accepted point, before a
# step that would take lam_max(P) past POLISH_GROWTH times its start's. On some
# targets the objective keeps falling as lam_max(P) grows without bound:
# Atilde + Bhat K' tends to marginal stability, with an ever worse conditioned
# P, so the bound marks where further polishing stops paying. On the bundled
# cases and 95 of 99 seeded n = 10 chains the polish reached a stationary point
# with lam_max grown at most 6.8 times; on the other 4 it would grow 4e4 times
# and more, and stopped at the bound still certified.
POLISH_GROWTH = 100.0
# A P counts as definite when lam_min > PD_RTOL * lam_max, so the polish's
# closed-form Atilde never divides by lam_i^2 + lam_j^2 = 0.
PD_RTOL = 1e-12


@dataclass(frozen=True)
class GainSlice:
    """The attainable gain and the affine slice of P that attains it.

    ``P0`` is the least-norm least-squares solution of Bhat^T P = -Rhat Ktarget
    over symmetric P, ``floor`` its residual ||Bhat^T P0 + Rhat Ktarget||_F,
    ``gain`` the attainable K' = -Rhat^-1 Bhat^T P0, and ``null`` a
    Frobenius-orthonormal basis (d, n, n) of the symmetric D with Bhat^T D = 0,
    so the slice is {P0 + sum_k z_k null[k]}.
    """

    P0: np.ndarray
    floor: float
    gain: np.ndarray
    null: np.ndarray


@dataclass(frozen=True)
class Polish:
    """A point of the slice, its certificate against K', the polish's step
    count, and whether the point is stationary on the slice."""

    Atilde: np.ndarray
    P: np.ndarray
    certificate: float
    iterations: int
    stationary: bool


def constraint_blocks(
    Atilde: np.ndarray, P: np.ndarray, spec: AttackSpec, K: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The two stacked constraint blocks W = (W1, W2) at a point (Atilde, P).

    They are measured against the gain ``K``, the target unless given.
    """
    K = spec.Ktarget if K is None else K
    W1 = Atilde.T @ P + P @ (Atilde + spec.Bhat @ K) + spec.Qhat
    W2 = spec.Rhat @ K + spec.Bhat.T @ P
    return W1, W2


def residual_norm(W1: np.ndarray, W2: np.ndarray) -> float:
    """||(W1, W2)||_F; inf, with no warning, when a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(W1 * W1) + np.sum(W2 * W2)))


def planted(lam, V, Ahat, C, mu) -> tuple[np.ndarray, np.ndarray]:
    """(Yhat, Y): V^T Ahat V and V^T Atilde V for the A-step at penalty ``mu``.

    Atilde minimizes ||Atilde - Ahat||_F^2 + (mu/2) ||Atilde^T P + P Atilde + C||_F^2
    for P = V diag(lam) V^T. The coordinates Y = V^T Atilde V turn the map
    into Y^T diag(lam) + diag(lam) Y, which is symmetric, so the skew part of
    V^T C V drops out and the problem splits into one 2x2 problem per pair
    (i, j), (j, i). With N_ij = lam_i Yhat_ij + lam_j Yhat_ji + S_ij and
    S = sym(V^T C V), the penalty entry at the optimum is
    T_ij = N_ij / (1 + mu (lam_i^2 + lam_j^2)) and Y = Yhat - mu diag(lam) T.
    ``mu`` = inf is the limit mu T_ij -> N_ij / (lam_i^2 + lam_j^2): the
    Atilde nearest Ahat with Atilde^T P + P Atilde + sym(C) = 0, which needs
    every lam_i^2 + lam_j^2 > 0.
    """
    Yh = V.T @ Ahat @ V
    Cv = V.T @ C @ V
    li, lj = lam[:, None], lam[None, :]
    N = li * Yh + lj * Yh.T + 0.5 * (Cv + Cv.T)
    if mu == math.inf:
        return Yh, Yh - li * (N / (li * li + lj * lj))
    return Yh, Yh - mu * li * (N / (1.0 + mu * (li * li + lj * lj)))


def gain_slice(spec: AttackSpec) -> GainSlice:
    """The attainable gain K' and its slice of P, from one SVD.

    The map P -> Bhat^T P is taken in the orthonormal ``linalg.sym_basis``
    coordinates; its SVD gives the least-norm least-squares P0 and, from the
    right singular vectors past its numerical rank, the slice's directions:
    (n - m)(n - m + 1)/2 of them when Bhat has full column rank.
    """
    basis = linalg.sym_basis(spec.n)
    k = len(basis)
    L = (spec.Bhat.T @ basis).reshape(k, -1).T
    U, sv, Wt = np.linalg.svd(L)
    rank = int(np.sum(sv > sv[:1] * max(L.shape) * np.finfo(float).eps))
    rhs = -(spec.Rhat @ spec.Ktarget).ravel()
    coef = Wt[:rank].T @ ((U[:, :rank].T @ rhs) / sv[:rank])
    P0 = np.tensordot(coef, basis, 1)
    floor = float(np.linalg.norm(spec.Bhat.T @ P0 + spec.Rhat @ spec.Ktarget, "fro"))
    gain = lqr_gain(P0, spec.Bhat, spec.Rhat)
    return GainSlice(P0=P0, floor=floor, gain=gain, null=np.tensordot(Wt[rank:], basis, 1))


def polish(spec: AttackSpec, P: np.ndarray, attainable: GainSlice | None = None) -> Polish | None:
    """The nearest planted dynamics on the attainable gain's slice, from P.

    On the slice Bhat^T P = -Rhat K' holds exactly and C = P Bhat K' + Qhat
    does not depend on P, so the A-step's mu = inf limit Atilde(P)
    (``planted``) meets the first block too, and the attack is
    min ||Atilde(P) - Ahat||_F^2 over the slice coordinates z of P. The loop
    starts from P's projection onto the slice and takes Newton steps on the
    exact Hessian with Levenberg-Marquardt damping.

    In P's eigenbasis the residual is Delta = V^T (Ahat - Atilde) V =
    diag(lam) G, where G is the symmetric solution of P^2 G + G P^2 = E and
    E = Ahat^T P + P Ahat + C. A slice direction D, with D~ = V^T D V, moves
    G by G' = (Yhat^T D~ + D~ Yhat - (Q G + G Q)) / (lam_i^2 + lam_j^2), where
    Q_ij = (lam_i + lam_j) D~_ij, and Delta by D~ G + diag(lam) G'. These are
    the Jacobian's rows. The second-order term <Delta, Delta''> of the
    Hessian is taken through the adjoint W = sym(2 diag(lam) Delta) /
    (lam_i^2 + lam_j^2), so no second derivative is formed.

    A step is refused, and the damping raised, when it leaves P not definite
    (``PD_RTOL``) or raises the objective by more than its rounding. The loop
    stops at a stationary point, where the Hessian H is definite and the
    Newton decrement g^T H^-1 g is within ``POLISH_TOL``'s bound, or short
    of one: after ``MAX_POLISH_ITER`` steps, when a step would take
    lam_max(P) past ``POLISH_GROWTH`` times the start's, or when no step
    moves z any more. Either way every accepted point lies on the slice, so
    the last one is returned, with ``stationary`` saying which stop it was,
    and with its certificate, the constraint residual against K'. With no
    free direction the slice is the single point P0.

    Returns None ("not certified") only when the start, P's projection onto
    the slice, is not definite.
    """
    sl = attainable or gain_slice(spec)
    C = sl.P0 @ spec.Bhat @ sl.gain + spec.Qhat
    scale = float(np.linalg.norm(spec.Ahat))

    def at(z):  # (P, lam, V, Yhat, Delta, objective) at z; None unless definite
        Pz = sl.P0 + np.tensordot(z, sl.null, 1)
        lam, V = np.linalg.eigh(Pz)
        if not (lam[0] > PD_RTOL * lam[-1] and lam[0] * lam[0] > 0.0):
            return None
        Yh, Y = planted(lam, V, spec.Ahat, C, math.inf)
        return Pz, lam, V, Yh, Yh - Y, float(np.sum((Yh - Y) ** 2))

    z = np.tensordot(sl.null, P - sl.P0, 2)
    point = at(z)
    if point is None:
        return None
    cap = POLISH_GROWTH * point[1][-1]
    damping, steps, d = None, 0, len(z)
    stationary = True  # with no free direction P0 is the slice's only point
    while d:
        _, lam, V, Yh, Dt, f = point
        li, lj = lam[:, None], lam[None, :]
        s = li * li + lj * lj
        G = Dt / li  # Delta = diag(lam) G
        Dk = V.T @ sl.null @ V
        Q = Dk * (li + lj)
        dG = (Yh.T @ Dk + Dk @ Yh - (Q @ G + G @ Q)) / s
        J = (Dk @ G + li * dG).reshape(d, -1)
        W = (li * Dt + (li * Dt).T) / s
        T = ((Dk @ Dt - 0.5 * (Q @ W + W @ Q)).reshape(d, -1) @ dG.reshape(d, -1).T
             - 0.5 * (Dk @ (W @ G + G @ W)).reshape(d, -1) @ Dk.reshape(d, -1).T)
        w, U = np.linalg.eigh(J @ J.T + T + T.T)
        Ug = U.T @ (J @ Dt.ravel())
        r = math.sqrt(f)
        tol = POLISH_TOL * (scale + r)
        stationary = bool(w[0] > 0 and np.sum(Ug * Ug / w) <= tol * (r + tol))  # Newton decrement
        if stationary or steps == MAX_POLISH_ITER:
            break
        if damping is None:
            damping = 1e-3 * float(np.abs(w).max())
        damping = max(damping, -2.0 * w[0])  # keeps the damped Hessian definite
        while True:
            dz = -U @ (Ug / (w + damping))
            trial = point if np.all(z + dz == z) else at(z + dz)
            if trial is not None and (trial[1][-1] > cap
                                      or trial[5] <= f * (1.0 + 4.0 * np.finfo(float).eps)):
                break
            damping *= 4.0
        if trial is point or trial[1][-1] > cap:
            break  # no step moves z, or the growth bound
        z, point = z + dz, trial
        damping /= 3.0
        steps += 1
    Pz, _, V, _, Dt, _ = point
    Atilde = spec.Ahat - V @ Dt @ V.T
    cert = residual_norm(*constraint_blocks(Atilde, Pz, spec, sl.gain))
    return Polish(Atilde=Atilde, P=Pz, certificate=cert, iterations=steps, stationary=stationary)

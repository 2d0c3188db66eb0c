"""Dual-relative-degree barrier construction.

Two-layer systems

    zdot   = f_z(z) + g_z(z) psi(eta) u_z + w_z(z) d
    etadot = f_eta(eta) + g_eta(eta) u_eta + w_eta(eta) d

where the bottom state eta modulates the top layer's control directions
through psi. The top layer is safeguarded through the virtual input
v = psi(eta) u_z: a smooth k_v is synthesized for the top barrier, u_z is
aligned by least squares (u_z = psi^+ k_v), and an attitude map eta_d picks
the bottom state that makes the alignment exact. Penalizing the attitude
error with the Lyapunov-like V = 1/(2 mu) ||eta - eta_d(k_v(z))||^2 gives
the composite barrier h = h_z - V for the partial closed loop, whose input
is u_eta. That is the backstepped barrier of
:class:`~odcbf.backstepping.CompositeBarrier` with eta_d as its reference
map, in place of the strict-feedback identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .backstepping import CompositeBarrier
from .dynamics import DisturbedSystem
from .errors import AlignmentError, NonFiniteError, ParameterError, ShapeError, ThrustDomainError
from .synthesis import SmoothVirtualController

_SV_FLOOR = 1e-8


@dataclass(frozen=True)
class DrdSystem:
    """Dual-relative-degree system; psi(eta) has shape (r, m_top), with one column (m_top = 1)."""

    n_top: int
    m_top: int
    n_bot: int
    m_bot: int
    p: int
    r: int
    f_top: Callable
    g_top: Callable  # z -> (n_top, r): multiplies the virtual input
    w_top: Callable
    f_bot: Callable
    g_bot: Callable
    w_bot: Callable
    psi: Callable

    def __post_init__(self):
        if self.m_top != 1:  # one thrust direction: the alignment solve is one division
            raise ParameterError(f"the top layer has one input (a thrust magnitude), got m_top={self.m_top}")


def pinv_apply(mat, v, sv_floor=_SV_FLOOR):
    """Left pseudoinverse of the one-column mat applied to v, on floats or traced scalars.

    The Gram matrix mat^T mat is 1x1, its own eigenvalue, so the solve is one
    division; rank deficiency (sqrt of the Gram below ``sv_floor``) raises
    AlignmentError with the offending value, and the floor test goes through
    ad.branch, so that the solve can be lowered. Non-finite data (mat, v, or
    the result) raises NonFiniteError; a mat of several columns, ShapeError.
    """
    mat = np.atleast_2d(ad.floats(mat))
    v = ad.floats(v).reshape(-1)
    if mat.shape[1] != 1:
        raise ShapeError("psi", (mat.shape[0], 1), mat.shape)
    gram = ad.contract(mat[:, :, None], mat[:, None, :], 0)  # mat^T mat
    if not _finite(gram):
        raise NonFiniteError(f"non-finite alignment data: psi={mat.tolist()}, v={v.tolist()}")
    # dividing rounds as LAPACK's 1x1 solve does; multiplying by the reciprocal would not
    if ad.branch(operator.le, ad.sqrt(gram[0, 0]), sv_floor):
        raise AlignmentError(np.sqrt(gram[0]), sv_floor)
    out = ad.vecmat(v, mat) / gram[0, 0]
    if not _finite(out):
        raise NonFiniteError(f"non-finite alignment data: psi={mat.tolist()}, v={v.tolist()}")
    return out


def _finite(arr):
    """Every entry of arr is finite; each test goes through ad.branch."""
    return all([ad.branch(math.isfinite, a) for a in arr.flat])


def quadrotor_eta_d(v, v_min=0.0):
    """Pitch angle atan(-v1 / v2) aligning planar thrust with the command v.

    Requires positive net thrust v2 > v_min (the map has a singularity at
    v2 = 0 which the synthesis must stay away from). Dual-aware, and its
    thrust test goes through ad.branch, so the map can be lowered.
    """
    if ad.branch(operator.le, v[1], v_min):
        raise ThrustDomainError(f"thrust component v2={float(ad.value(v[1])):.6g} <= v_min={v_min:.6g}")
    return ad.stack([ad.atan(-v[0] / v[1])])


def quadrotor_attitude_map(v_min=0.0) -> Callable:
    """eta_d: virtual input v -> the pitch aligning thrust with v, guarded by v_min."""
    return lambda v: quadrotor_eta_d(v, v_min)


class DrdBarrier(CompositeBarrier):
    """A :class:`CompositeBarrier` whose ``ref_map`` is an attitude map eta_d, under its own
    name so that span tracers wrapping methods per class count it apart; no code of its own."""

    value_and_grad = CompositeBarrier.value_and_grad
    h = CompositeBarrier.h


def partial_closed_loop(dsys: DrdSystem, k_v: SmoothVirtualController) -> DisturbedSystem:
    """Close the top input at its aligned value; u_eta remains the input.

    Drift: (f_z + g_z psi psi^+ k_v(z); f_eta); input matrix (0; g_eta),
    its zero block built once; disturbance matrix (w_z; w_eta). Alignment
    and non-finite errors of psi^+ propagate. ``f`` runs v = k_v(z) on
    floats; ``f_with`` reads v from a barrier pass built on this k_v
    instead of rerunning k_v.
    """
    n = dsys.n_top + dsys.n_bot

    def split(x):
        return x[: dsys.n_top], x[dsys.n_top :]

    def drift(x, v):
        z, eta = split(x)
        psi = np.atleast_2d(ad.floats(dsys.psi(eta)))
        u_z = pinv_apply(psi, v)
        top = ad.floats(dsys.f_top(z)) + ad.matvec(dsys.g_top(z), ad.matvec(psi, u_z))
        return np.concatenate([top, ad.floats(dsys.f_bot(eta))])

    def f(x):
        x = ad.floats(x)
        return drift(x, k_v.k1(x[: dsys.n_top]))

    g_top_rows = np.zeros((dsys.n_top, dsys.m_bot))

    def g(x):
        _, eta = split(ad.floats(x))
        return np.concatenate([g_top_rows, np.atleast_2d(ad.floats(dsys.g_bot(eta)))])

    def w(x):
        z, eta = split(ad.floats(x))
        return np.concatenate([np.atleast_2d(ad.floats(dsys.w_top(z))), np.atleast_2d(ad.floats(dsys.w_bot(eta)))])

    return DisturbedSystem(n=n, m=dsys.m_bot, p=dsys.p, f=f, g=g, w=w, f_with=lambda x, be: drift(x, be.k))


def alignment_residual(dsys: DrdSystem, bar: CompositeBarrier, z) -> float:
    """|| psi(eta_d(k_v(z))) psi^+ k_v(z) - k_v(z) ||: the alignment identity, with k_v and
    eta_d read from the pass of the barrier built on them (at eta = 0, which they do not read)."""
    be = bar.value_and_grad(np.concatenate([np.asarray(z, dtype=float), np.zeros(dsys.n_bot)]))
    v, psi = be.k, np.atleast_2d(ad.floats(dsys.psi(be.ref)))
    resid = ad.matvec(psi, pinv_apply(psi, v)) - v
    return math.sqrt(ad.dot(resid, resid))


def check_attitude_alignment(dsys, bar, z_samples, tol=1e-9):
    """Worst alignment residual over samples, and whether it is within ``tol``."""
    worst = max((alignment_residual(dsys, bar, z) for z in z_samples), default=0.0)
    return {"max_residual": worst, "ok": worst <= tol}

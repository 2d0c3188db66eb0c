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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .backstepping import CompositeBarrier
from .dynamics import DisturbedSystem
from .errors import AlignmentError, ThrustDomainError
from .synthesis import SmoothVirtualController

_SV_FLOOR = 1e-8


@dataclass(frozen=True)
class DrdSystem:
    """Dual-relative-degree system; psi(eta) has shape (r, m_top)."""

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


def pinv_apply(mat, v, sv_floor=_SV_FLOOR):
    """Left pseudoinverse applied to v via normal equations.

    r and m are tiny here, so the normal equations are cheap; conditioning is
    monitored through the singular values and rank deficiency raises
    AlignmentError with the offending values.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    gram = mat.T @ mat
    svals = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))
    if svals.min() <= sv_floor:
        raise AlignmentError(svals, sv_floor)
    return np.linalg.solve(gram, mat.T @ v)


def quadrotor_eta_d(v, v_min=0.0):
    """Pitch angle atan(-v1 / v2) aligning planar thrust with the command v.

    Requires positive net thrust v2 > v_min (the map has a singularity at
    v2 = 0 which the synthesis must stay away from). Dual-aware.
    """
    v2val = float(ad.value(v[1]))
    if v2val <= v_min:
        raise ThrustDomainError(f"thrust component v2={v2val:.6g} <= v_min={v_min:.6g}")
    return ad.stack([ad.atan(-v[0] / v[1])])


def quadrotor_attitude_map(v_min=0.0) -> Callable:
    """eta_d: virtual input v -> the pitch aligning thrust with v, guarded by v_min."""
    return lambda v: quadrotor_eta_d(v, v_min)


class DrdBarrier(CompositeBarrier):
    """The dual-relative-degree barrier under its own class name: a
    :class:`CompositeBarrier` whose ``ref_map`` is an attitude map eta_d.

    It holds no code of its own. Binding the methods into this class's dict
    lets span tracers that wrap methods per class count the DRD pass apart
    from the strict-feedback one; the next change to the benchmark's tracer
    retargets it to :class:`CompositeBarrier` and deletes this subclass.
    """

    value_and_grad = CompositeBarrier.value_and_grad
    h = CompositeBarrier.h


def partial_closed_loop(dsys: DrdSystem, k_v: SmoothVirtualController) -> DisturbedSystem:
    """Close the top input at its aligned value; u_eta remains the input.

    Drift: (f_z + g_z psi psi^+ k_v(z); f_eta); input matrix (0; g_eta);
    disturbance matrix (w_z; w_eta). Alignment errors propagate. ``f_with``
    reads v = k_v(z) from a barrier pass built on this k_v instead of
    rerunning k_v.
    """
    n = dsys.n_top + dsys.n_bot

    def split(x):
        return x[: dsys.n_top], x[dsys.n_top :]

    def drift(x, v):
        z, eta = split(x)
        psi = np.atleast_2d(np.asarray(dsys.psi(eta), dtype=float))
        u_z = pinv_apply(psi, v)
        top = np.asarray(dsys.f_top(z), dtype=float) + np.asarray(dsys.g_top(z), dtype=float) @ (psi @ u_z)
        bot = np.asarray(dsys.f_bot(eta), dtype=float)
        return np.concatenate([top, bot])

    def f(x):
        x = np.asarray(x, dtype=float)
        return drift(x, np.asarray(ad.value(k_v.k1(x[: dsys.n_top])), dtype=float).reshape(-1))

    def g(x):
        _, eta = split(np.asarray(x, dtype=float))
        mat = np.zeros((n, dsys.m_bot))
        mat[dsys.n_top :, :] = np.atleast_2d(np.asarray(dsys.g_bot(eta), dtype=float))
        return mat

    def w(x):
        z, eta = split(np.asarray(x, dtype=float))
        return np.vstack(
            [
                np.atleast_2d(np.asarray(dsys.w_top(z), dtype=float)),
                np.atleast_2d(np.asarray(dsys.w_bot(eta), dtype=float)),
            ]
        )

    return DisturbedSystem(n=n, m=dsys.m_bot, p=dsys.p, f=f, g=g, w=w, f_with=lambda x, be: drift(x, be.k))


def alignment_residual(dsys: DrdSystem, k_v: SmoothVirtualController, eta_d: Callable, z) -> float:
    """|| psi(eta_d(k_v(z))) psi^+ k_v(z) - k_v(z) ||: the alignment identity."""
    v = np.asarray(ad.value(k_v.k1(np.asarray(z, dtype=float))), dtype=float).reshape(-1)
    eta = np.asarray(ad.value(eta_d(v)), dtype=float).reshape(-1)
    psi = np.atleast_2d(np.asarray(dsys.psi(eta), dtype=float))
    return float(np.linalg.norm(psi @ pinv_apply(psi, v) - v))


def check_attitude_alignment(dsys, k_v, eta_d, z_samples, tol=1e-9):
    """Worst alignment residual over samples; asserts the map's invariant."""
    worst, worst_z = 0.0, None
    for z in z_samples:
        res = alignment_residual(dsys, k_v, eta_d, z)
        if res > worst:
            worst, worst_z = res, np.asarray(z, dtype=float)
    return {"max_residual": worst, "argmax": worst_z, "ok": worst <= tol, "tol": tol}

"""Closed-form optimal-decay safety filter.

Solves, in closed form, the pointwise QP

    min_{u, omega}  1/2 ||u - k_d(x)||^2 + 1/2 p (omega - theta_d)^2
    s.t.            L_f h + L_g h u >= -omega * alpha(h) + ||L_w h||^2 / eps
                    omega >= theta_d

by jointly optimizing the input u and the decay scale omega. With

    upsilon = L_f h + L_g h k_d + theta_d alpha(h) - ||L_w h||^2 / eps
    xi      = ||L_g h||
    zeta    = alpha(h) / p

the KKT solution is u = k_d + lambda * L_g h^T and omega = theta_d + psi,
where lambda = ReLU(-upsilon) / (xi^2 + p ReLU(zeta)^2) and
psi = ReLU(-upsilon) ReLU(zeta) / (xi^2 + p ReLU(zeta)^2), both zero in the
degenerate branch where that denominator is 0 (xi = 0 and zeta <= 0, up to
underflow), where a negative upsilon certifies infeasibility. The solution is locally Lipschitz on the barrier's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .barrier import BarrierSpec, LieData, SafeSetGeometry, eval_lie
from .dynamics import DisturbedSystem, call_law
from .errors import DomainError, InfeasiblePointError, NonFiniteError

_DENOM_FLOOR = float(np.finfo(float).tiny)  # smallest normal float: below it xi^2 has underflowed


@dataclass(frozen=True)
class FilterResult:
    """Filtered input with the realized decay scale and KKT diagnostics."""

    u: np.ndarray
    theta_x: float
    upsilon: float
    xi: float
    zeta: float
    lambda_val: float
    constraint_active: bool


def solve_decay_filter(
    lf_h: float,
    lg_h: np.ndarray,
    lw_h: np.ndarray,
    alpha_h: float,
    u_nom: np.ndarray,
    epsilon: float,
    theta_d: float,
    p: float,
    x=None,
) -> FilterResult:
    """Closed-form filter on raw Lie-derivative terms.

    Raises NonFiniteError when upsilon, xi or zeta is NaN or infinite, or
    when the input would overflow. The degenerate branch is decided on the
    computed denominator xi^2 + p ReLU(zeta)^2, so a denominator that
    underflows (to zero or below the smallest normal float) counts as
    degenerate.
    """
    lg_h = np.asarray(lg_h, dtype=float).reshape(-1)
    lw_h = np.asarray(lw_h, dtype=float).reshape(-1)
    u_nom = np.asarray(u_nom, dtype=float).reshape(-1)

    upsilon = float(lf_h + lg_h @ u_nom + theta_d * alpha_h - (lw_h @ lw_h) / epsilon)
    xi = float(np.linalg.norm(lg_h))
    zeta = float(alpha_h / p)
    if not (math.isfinite(upsilon) and math.isfinite(xi) and math.isfinite(zeta)):
        raise NonFiniteError(f"non-finite filter data at x={x}: upsilon={upsilon!r}, xi={xi!r}, zeta={zeta!r}")

    relu_zeta = max(0.0, zeta)
    denom = xi**2 + p * relu_zeta**2
    if denom < _DENOM_FLOOR:
        if upsilon < 0.0:
            raise InfeasiblePointError(x, upsilon, xi, zeta)
        lam = 0.0
        psi = 0.0
    else:
        relu_neg_ups = max(0.0, -upsilon)
        lam = relu_neg_ups / denom
        psi = relu_neg_ups * relu_zeta / denom
        if not math.isfinite(lam * xi):  # ||u - u_nom|| = lam xi
            raise NonFiniteError(f"filter input overflows at x={x}: upsilon={upsilon!r}, xi={xi!r}")

    u = u_nom + lam * lg_h
    return FilterResult(
        u=u,
        theta_x=theta_d + psi,
        upsilon=upsilon,
        xi=xi,
        zeta=zeta,
        lambda_val=lam,
        constraint_active=lam > 0.0,
    )


@dataclass(frozen=True)
class StateEval:
    """Everything the filter computes at one state: ``lie`` holds the barrier
    pass (h, grad h, the virtual input with its jacobian) and f, g, w, from
    which the closed-loop field forms xdot = f + g u + w d."""

    lie: LieData
    u_nom: np.ndarray
    result: FilterResult


class OdIssfController:
    """A feedback law that filters a nominal through the QP.

    ``evaluate(x, t)`` is the one per-state evaluation that integration and
    recording read; ``result`` and ``control`` are its filter result and input.
    """

    time_varying = True

    def __init__(self, sys, bar, nominal, geometry=None):
        self.sys = sys
        self.bar = bar
        self.nominal = nominal
        self.geometry = geometry

    def evaluate(self, x, t=0.0) -> StateEval:
        x = np.asarray(x, dtype=float)
        if self.geometry is not None and not self.geometry.in_domain(x):
            raise DomainError(f"state outside barrier domain (h + b <= 0) at x={x}")
        bar = self.bar
        lie = eval_lie(self.sys, bar, x)
        u_nom = call_law(self.nominal, x, t, lie.bar_eval)
        res = solve_decay_filter(
            lie.lf_h, lie.lg_h, lie.lw_h, float(bar.alpha(lie.h_val)), u_nom,
            bar.epsilon, bar.theta_d, bar.p_weight, x=x,
        )
        return StateEval(lie, u_nom, res)

    def result(self, x, t=0.0) -> FilterResult:
        return self.evaluate(x, t).result

    def control(self, x, t=0.0) -> np.ndarray:
        return self.evaluate(x, t).result.u


def od_issf_filter(sys: DisturbedSystem, bar: BarrierSpec, k_d, x, t=0.0, geometry: Optional[SafeSetGeometry] = None):
    """Filter the nominal law k_d through the optimal-decay QP at state x.

    For a layer-restricted ``sys`` whose g column space is the next block,
    this is the virtual filter of that layer.
    """
    return OdIssfController(sys, bar, k_d, geometry).result(x, t)

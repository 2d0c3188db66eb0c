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
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .barrier import LieData, eval_lie
from .dynamics import call_law
from .errors import DomainError, InfeasiblePointError, NonFiniteError, ShapeError

_DENOM_FLOOR = float(np.finfo(float).tiny)  # smallest normal float: below it xi^2 has underflowed


class FilterResult(NamedTuple):
    """Filtered input with the realized decay scale and KKT diagnostics."""

    u: np.ndarray
    theta_x: float
    upsilon: float
    xi: float
    zeta: float
    lambda_val: float
    constraint_active: bool


def _floats(v):
    """A vector argument as a list of Python floats."""
    return (v if isinstance(v, np.ndarray) and v.dtype.kind == "f" else np.asarray(v, dtype=float)).ravel().tolist()


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
    """Closed-form filter on raw Lie-derivative terms, in Python float arithmetic.

    Raises NonFiniteError when upsilon, xi or zeta is NaN or infinite, when
    the denominator xi^2 + p ReLU(zeta)^2 overflows with upsilon < 0, or
    when the step ||u - u_nom|| or the decay scale does. The degenerate branch is
    decided on the computed denominator xi^2 + p ReLU(zeta)^2, so a
    denominator that underflows (to zero or below the smallest normal
    float) counts as degenerate. Just above it the multiplier lambda may
    overflow while the step lambda L_g h does not; the step and psi are then
    formed as (|upsilon| / sqrt(denom)) (L_g h / sqrt(denom)), and
    ``lambda_val`` holds the overflowed multiplier, +inf. The sums of
    products in upsilon and xi follow the one contraction rule (``autodiff.fdot``).
    """
    lg, lw, u0 = _floats(lg_h), _floats(lw_h), _floats(u_nom)
    if len(u0) != len(lg):
        raise ShapeError("u_nom", (len(lg),), (len(u0),))
    alpha_h, epsilon, theta_d, p = float(alpha_h), float(epsilon), float(theta_d), float(p)
    try:
        upsilon = float(lf_h) + ad.fdot(lg, u0) + theta_d * alpha_h - ad.fdot(lw, lw) / epsilon
        zeta = alpha_h / p
    except ZeroDivisionError:  # a zero epsilon or p: numpy's division would give inf or nan
        upsilon = zeta = math.nan
    xi = math.sqrt(ad.fdot(lg, lg))
    if not (math.isfinite(upsilon) and math.isfinite(xi) and math.isfinite(zeta)):
        raise NonFiniteError(f"non-finite filter data at x={x}: upsilon={upsilon!r}, xi={xi!r}, zeta={zeta!r}")

    relu_zeta = max(0.0, zeta)
    try:
        denom = xi**2 + p * relu_zeta**2
    except OverflowError:  # a float power raises where a product gives inf
        denom = math.inf
    if upsilon < 0.0 and not math.isfinite(denom):  # lambda would round to 0 and pass the nominal input through
        raise NonFiniteError(f"filter denominator overflows at x={x}: xi={xi!r}, zeta={zeta!r}")
    if denom < _DENOM_FLOOR:
        if upsilon < 0.0:
            raise InfeasiblePointError(x, upsilon, xi, zeta)
        lam = 0.0
        psi = 0.0
    else:
        relu_neg_ups = max(0.0, -upsilon)
        lam = relu_neg_ups / denom
        psi = relu_neg_ups * relu_zeta / denom
    step = lam * xi  # ||u - u_nom||
    if math.isfinite(step):
        u = [ui + lam * gi for ui, gi in zip(u0, lg)]
    else:
        # lam overflows just above the degenerate floor while the step may not
        root = math.sqrt(denom)
        scale = relu_neg_ups / root
        u = [ui + scale * (gi / root) for ui, gi in zip(u0, lg)]
        psi, step = scale * (relu_zeta / root), scale * (xi / root)
    theta_x = theta_d + psi
    if not (math.isfinite(step) and math.isfinite(theta_x)):
        raise NonFiniteError(f"filter input overflows at x={x}: upsilon={upsilon!r}, xi={xi!r}, zeta={zeta!r}")
    return FilterResult(np.array(u), theta_x, upsilon, xi, zeta, lam, lam > 0.0)


class StateEval(NamedTuple):
    """Everything the filter computes at one state: ``lie`` holds the barrier
    pass (h, grad h, the virtual input with its jacobian) and f, g, w, from
    which the closed-loop field forms xdot = f + g u + w d."""

    lie: LieData
    u_nom: np.ndarray
    result: FilterResult


class OdIssfController:
    """The QP filter on a nominal law u_nom = nominal(x, t, be) (see ``dynamics``).

    ``evaluate(x, t)`` is the one per-state evaluation that integration and
    recording read, and ``control`` its input. A state outside the
    barrier's domain (``bar.in_domain``) raises DomainError, with x and t.
    """

    def __init__(self, sys, bar, nominal):
        self.sys = sys
        self.bar = bar
        self.nominal = nominal

    def evaluate(self, x, t=0.0) -> StateEval:
        x = np.asarray(x, dtype=float)
        bar = self.bar
        if not bar.in_domain(x):
            raise DomainError(x, t)
        lie = eval_lie(self.sys, bar, x)
        u_nom = call_law(self.nominal, x, t, lie.bar_eval)
        res = solve_decay_filter(
            lie.lf_h, lie.lg_h, lie.lw_h, float(bar.alpha(lie.h_val)), u_nom,
            bar.epsilon, bar.theta_d, bar.p_weight, x=x,
        )
        return StateEval(lie, u_nom, res)

    def control(self, x, t=0.0) -> np.ndarray:
        return self.evaluate(x, t).result.u

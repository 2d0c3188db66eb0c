"""Smooth safeguarding virtual controllers.

Backstepping needs a differentiable controller satisfying the strict barrier
inequality a(x) + b(x) . k(x) > 0 where

    a(x) = L_f h + L_g h v_nom + theta_d alpha(h) - ||L_w h||^2 / eps
    b(x) = L_g h.

The half-Sontag construction k = v_nom + lam_hs * b^T with

    lam_hs = (-a + sqrt(a^2 + sigma ||b||^4)) / (2 ||b||^2)

achieves a + b . (k - v_nom) = (a + sqrt(a^2 + sigma ||b||^4)) / 2 > 0 and is
real-analytic on {a > 0 or b != 0}. Near b = 0 the rationalized form
sigma q / (2 (a + sqrt(a^2 + sigma q^2))), q = ||b||^2, avoids cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .barrier import BarrierSpec
from .dynamics import DisturbedSystem
from .errors import NonFiniteError, ParameterError, SynthesisInfeasibleError

_Q_FLOOR = float(np.finfo(float).tiny)  # smallest normal float: ||b||^2 below it has underflowed


@dataclass(frozen=True)
class SmoothVirtualController:
    """Smooth virtual input k1(x1) satisfying the strict margin.

    ``k1`` gives the value alone (and accepts autodiff duals);
    ``value_and_jacobian`` gives (k1(x1), dk1/dx1) from one pass.
    """

    k1: Callable
    value_and_jacobian: Callable
    sigma: float

    def with_jacobian(self, x1):
        """The value-and-jacobian pass, as a method so that tracers can wrap it."""
        return self.value_and_jacobian(x1)


def half_sontag(a, bvec, sigma):
    """Smooth universal-formula input for the affine inequality a + b.u > 0.

    Accepts plain arrays or autodiff duals. Returns 0 when b = 0 (requires
    a > 0 there); raises SynthesisInfeasibleError with a <= 0 when ||b||^2
    is below the smallest normal float (dividing by it would overflow), and
    NonFiniteError when a or ||b||^2 is NaN or infinite.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    q = ad.dot(bvec, bvec)  # ||b||^2, so sigma*q^2 = sigma*||b||^4
    a_val = float(ad.value(a))
    q_val = float(ad.value(q))
    if not (math.isfinite(a_val) and math.isfinite(q_val)):
        raise NonFiniteError(f"non-finite synthesis data: a={a_val!r}, ||b||^2={q_val!r}")
    if a_val > 0.0:
        # rationalized: smooth through b = 0, no cancellation in -a + sqrt(.)
        lam = sigma * q / (2.0 * (a + ad.sqrt(a * a + sigma * q * q)))
    else:
        if q_val < _Q_FLOOR:
            raise SynthesisInfeasibleError(None, a_val)
        lam = (-a + ad.sqrt(a * a + sigma * q * q)) / (2.0 * q)
    return lam * bvec


def synth_virtual(
    top: DisturbedSystem,
    bar: BarrierSpec,
    sigma: float = 1.0,
    nominal: Optional[Callable] = None,
    jac_mode: str = "ad",
    layer: Optional[int] = None,
) -> SmoothVirtualController:
    """Safeguarding controller for the layer whose input is the next block.

    ``nominal`` is an optional smooth feedforward (e.g. gravity compensation)
    added before the half-Sontag correction; it must be written with autodiff
    ops when jac_mode="ad". ``jac_mode="fd"`` switches the jacobian to central
    differences (used for deep recursive layers where the barrier gradient is
    not dual-evaluable). Synthesis failures name the state and, when
    ``layer`` is given, the layer they came from.
    """
    where = f" (layer {layer})" if layer is not None else ""
    no_nominal = np.zeros(top.m)
    no_nominal.flags.writeable = False

    def control(x1):
        grad = bar.grad_h(x1)
        f = top.f(x1)
        g = top.g(x1)
        w = top.w(x1)
        lf = ad.dot(grad, f)
        lg = ad.vecmat(grad, g)
        lw = ad.vecmat(grad, w)
        hv = bar.h(x1)
        v0 = nominal(x1) if nominal is not None else no_nominal
        a = lf + ad.dot(lg, v0) + bar.theta_d * bar.alpha(hv) - ad.dot(lw, lw) / bar.epsilon
        try:
            correction = half_sontag(a, lg, sigma)
        except SynthesisInfeasibleError as exc:
            raise SynthesisInfeasibleError(ad.value(x1), exc.a, layer=layer) from None
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc}{where} at x={ad.value(x1)}") from None
        return v0 + correction

    if jac_mode == "ad":
        value_and_jacobian = lambda x1: ad.jacobian(control, x1)
    elif jac_mode == "fd":

        def value_and_jacobian(x1):
            x1 = np.asarray(x1, dtype=float)
            val = np.asarray(ad.value(control(x1)), dtype=float).reshape(-1)
            return val, np.atleast_2d(ad.fd_jacobian(lambda y: ad.value(control(y)), x1))

    else:
        raise ValueError(f"unknown jac_mode {jac_mode!r}")

    return SmoothVirtualController(k1=control, value_and_jacobian=value_and_jacobian, sigma=sigma)


def strict_margin(top: DisturbedSystem, bar: BarrierSpec, ctrl: SmoothVirtualController, x1) -> float:
    """Residual of the strict inequality the controller must satisfy at x1."""
    grad = np.asarray(bar.grad_h(x1), dtype=float)
    lf = float(grad @ np.asarray(top.f(x1), dtype=float))
    lg = grad @ np.asarray(top.g(x1), dtype=float)
    lw = grad @ np.asarray(top.w(x1), dtype=float)
    hv = float(bar.h(x1))
    k = np.asarray(ad.value(ctrl.k1(np.asarray(x1, dtype=float))), dtype=float)
    return lf + float(lg @ k) + bar.theta_d * float(bar.alpha(hv)) - float(lw @ lw) / bar.epsilon

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

``synth_virtual`` returns the controller's closure ``k1``, which runs on
plain arrays, autodiff duals and traced scalars. Its value and jacobian come
from one forward-AD pass, ``ad.jacobian(k1, x)``, which the backstepped
barrier's pass runs and which is lowered to compiled float code as part of
that pass (see :mod:`odcbf.lower`). Half-Sontag's decisions (a and ||b||^2
finite, a > 0, ||b||^2 below the floor) go through ``ad.branch``, so they
become the lowered code's guards; where a guard fails, the Dual pass runs and
raises or is traced.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .barrier import BarrierSpec
from .dynamics import DisturbedSystem
from .errors import NonFiniteError, ParameterError, SynthesisInfeasibleError

_Q_FLOOR = float(np.finfo(float).tiny)  # smallest normal float: ||b||^2 below it has underflowed
VIRTUAL_LAYER = 1  # a two-layer construction has one virtual layer, the top one


@dataclass(frozen=True)
class SmoothVirtualController:
    """Smooth virtual input k1(x1) satisfying the strict margin.

    ``k1`` gives the value alone (and accepts autodiff duals and traced
    scalars); ``with_jacobian`` gives (k1(x1), dk1/dx1) from one forward-AD
    pass of ``k1``.
    """

    k1: Callable

    def with_jacobian(self, x1):
        """The value-and-jacobian pass, as a method so that tracers can wrap it."""
        return ad.jacobian(self.k1, x1)


def half_sontag(a, bvec, sigma):
    """Smooth universal-formula input for the affine inequality a + b.u > 0.

    Accepts plain arrays or autodiff duals. Returns 0 when b = 0 (requires
    a > 0 there); raises SynthesisInfeasibleError with a <= 0 when ||b||^2
    is below the smallest normal float (dividing by it would overflow), and
    NonFiniteError when a or ||b||^2 is NaN or infinite.
    """
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    q = ad.dot(bvec, bvec)  # ||b||^2, so sigma*q^2 = sigma*||b||^4
    # every decision on a or q goes through ad.branch: a lowered pass keeps it as a guard
    if not (ad.branch(math.isfinite, a) and ad.branch(math.isfinite, q)):
        raise NonFiniteError(f"non-finite synthesis data: a={float(ad.value(a))!r}, ||b||^2={float(ad.value(q))!r}")
    if ad.branch(operator.gt, a, 0.0):
        # rationalized: smooth through b = 0, no cancellation in -a + sqrt(.)
        lam = sigma * q / (2.0 * (a + ad.sqrt(a * a + sigma * q * q)))
    else:
        if ad.branch(operator.lt, q, _Q_FLOOR):
            raise SynthesisInfeasibleError(None, float(ad.value(a)))
        lam = (-a + ad.sqrt(a * a + sigma * q * q)) / (2.0 * q)
    return lam * bvec


def synth_virtual(
    top: DisturbedSystem,
    bar: BarrierSpec,
    sigma: float = 1.0,
    nominal: Optional[Callable] = None,
) -> SmoothVirtualController:
    """Safeguarding controller for the top layer, whose input is the bottom block.

    ``nominal`` is an optional smooth feedforward (e.g. gravity compensation)
    added before the half-Sontag correction; like the system and the
    barrier's gradient it must be written with autodiff ops, since the
    jacobian comes from forward AD, and it must decide on its data only
    through ``ad.branch``, since that pass is lowered to float code.
    Synthesis failures name the state and the layer they came from
    (``VIRTUAL_LAYER``).
    """
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
            raise SynthesisInfeasibleError(ad.value(x1), exc.a, layer=VIRTUAL_LAYER) from None
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} (layer {VIRTUAL_LAYER}) at x={ad.value(x1)}") from None
        return v0 + correction

    return SmoothVirtualController(k1=control)

"""Barrier functions, extended class-K functions, safe-set geometry, and
Lie-derivative evaluation.

The candidate safe set is S = {h >= 0} with boundary {h = 0}; the barrier's
domain is D = {h + b > 0} where b = -inf h (declared, estimated, or +inf).
Robustness bookkeeping: the inflated set S_delta = {h + gamma(delta) >= 0}
with gamma(delta) = -alpha^{-1}(-eps*delta^2 / (2*theta_d)) stays invariant
for disturbances bounded by delta, provided delta^2 < -2*theta_d*alpha(-b)/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .dynamics import DisturbedSystem
from .errors import MarginUndefinedError, ParameterError, ShapeError

_RANGE_PROBE = 1e12  # stand-in for an infinite domain endpoint when probing range


@dataclass(frozen=True)
class ExtendedClassK:
    """Strictly increasing alpha on (-b, c) with alpha(0) = 0 and an inverse.

    ``alpha`` must accept plain floats and autodiff duals. ``range_lo`` /
    ``range_hi`` bound the image of alpha; they are probed numerically at
    construction when not supplied.
    """

    alpha: Callable
    alpha_inv: Callable
    b: float = math.inf
    c: float = math.inf
    range_lo: float = field(default=None)  # type: ignore[assignment]
    range_hi: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (self.b > 0 and self.c > 0):
            raise ParameterError("class-K domain bounds b, c must be positive")
        if self.range_lo is None:
            object.__setattr__(self, "range_lo", float(self.alpha(-min(self.b, _RANGE_PROBE))))
        if self.range_hi is None:
            object.__setattr__(self, "range_hi", float(self.alpha(min(self.c, _RANGE_PROBE))))

    def __call__(self, s):
        return self.alpha(s)

    def inverse(self, y):
        return self.alpha_inv(y)


def linear_class_k(gain=1.0, b=math.inf, c=math.inf):
    """alpha(s) = gain * s."""
    if gain <= 0:
        raise ParameterError("gain must be positive")
    return ExtendedClassK(lambda s: gain * s, lambda y: y / gain, b, c)


class BarrierEval(NamedTuple):
    """h and grad h at one state from one pass.

    A backstepped barrier h = h_top(x_top) - ||x_bot - ref(x_top)||^2 / (2 mu)
    penalizes the bottom block's distance to a reference ``ref`` built from a
    smooth virtual controller k. Its pass also leaves k, ref, the jacobian
    ``ref_jac`` = dref/dx_top of shape (n_bot, n_top) and mu here (all None
    for a plain barrier), so that readers of the same state need not rerun k.
    """

    h: float
    grad: np.ndarray
    k: Optional[np.ndarray] = None
    ref: Optional[np.ndarray] = None
    ref_jac: Optional[np.ndarray] = None
    mu: Optional[float] = None


@dataclass(frozen=True)
class BarrierSpec:
    """A barrier h with gradient access and its robustness parameters.

    grad_h defaults to central finite differences of h when not supplied;
    ``value_and_grad`` (x -> BarrierEval) defaults to pairing h with grad_h.
    eps > 0 trades robustness against conservatism, theta_d > 0 is the
    minimum decay scale, p_weight > 0 weighs decay deviation in the filter.
    ``layers`` counts the blocks a backstepped barrier was built over (1 for
    a plain barrier).
    """

    h: Callable
    alpha: ExtendedClassK
    epsilon: float
    theta_d: float
    p_weight: float
    grad_h: Optional[Callable] = None
    n: Optional[int] = None
    value_and_grad: Optional[Callable] = None
    layers: int = 1

    def __post_init__(self):
        if self.epsilon <= 0 or self.theta_d <= 0 or self.p_weight <= 0:
            raise ParameterError("epsilon, theta_d, p_weight must all be strictly positive")
        h = self.h
        if self.grad_h is None:
            object.__setattr__(self, "grad_h", lambda x: ad.fd_gradient(h, x))
        if self.value_and_grad is None:
            grad_h = self.grad_h
            pair = lambda x: BarrierEval(float(h(x)), np.asarray(grad_h(x), dtype=float).reshape(-1))
            object.__setattr__(self, "value_and_grad", pair)


@dataclass(frozen=True)
class SafeSetGeometry:
    """The barrier's domain D = {h + b > 0}, with b = -inf h declared finite or left +inf."""

    h: Callable
    b: float = math.inf

    def in_domain(self, x):
        return not math.isfinite(self.b) or float(self.h(x)) + self.b > 0.0


@dataclass(frozen=True)
class LieData:
    """h and its Lie derivatives along f, g, w at one state, with the barrier
    pass and the f, g, w they come from."""

    h_val: float
    lf_h: float
    lg_h: np.ndarray  # (m,)
    lw_h: np.ndarray  # (p,)
    bar_eval: BarrierEval
    f: np.ndarray
    g: np.ndarray
    w: np.ndarray


def eval_lie(sys: DisturbedSystem, bar: BarrierSpec, x) -> LieData:
    """Evaluate h, L_f h = grad_h . f, L_g h = grad_h g, L_w h = grad_h w.

    A system with ``f_with`` takes its drift from the barrier pass when the
    pass carries a virtual input.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ShapeError("x", (sys.n,), x.shape)
    be = bar.value_and_grad(x)
    grad = be.grad
    if grad.shape != (sys.n,):
        raise ShapeError("grad_h(x)", (sys.n,), grad.shape)
    f = np.asarray(sys.f(x) if sys.f_with is None or be.k is None else sys.f_with(x, be), dtype=float)
    g = np.asarray(sys.g(x), dtype=float)
    w = np.asarray(sys.w(x), dtype=float)
    if f.shape != (sys.n,):
        raise ShapeError("f(x)", (sys.n,), f.shape)
    if g.shape != (sys.n, sys.m):
        raise ShapeError("g(x)", (sys.n, sys.m), g.shape)
    if w.shape != (sys.n, sys.p):
        raise ShapeError("w(x)", (sys.n, sys.p), w.shape)
    return LieData(be.h, float(grad @ f), grad @ g, grad @ w, be, f, g, w)


def gamma_margin(bar: BarrierSpec, delta: float) -> float:
    """Safe-set inflation gamma(delta) = -alpha^{-1}(-eps*delta^2/(2*theta_d)).

    Raises MarginUndefinedError when the argument leaves the range of alpha
    (disturbance too large for this alpha).
    """
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    if delta == 0:
        return 0.0
    arg = -bar.epsilon * delta**2 / (2.0 * bar.theta_d)
    if arg <= bar.alpha.range_lo:
        raise MarginUndefinedError(
            f"required decay {arg:.6g} below range of alpha (inf {bar.alpha.range_lo:.6g}); "
            f"disturbance bound {delta:.6g} too large for this alpha"
        )
    return -float(bar.alpha.inverse(arg))


def admissible_delta(bar: BarrierSpec, geom: SafeSetGeometry) -> float:
    """Supremal admissible disturbance bound sqrt(-2*theta_d*alpha(-b)/eps).

    Callers must compare with strict inequality. Returns +inf when the
    barrier is unbounded below (b infinite).
    """
    if not math.isfinite(geom.b):
        return math.inf
    val = -2.0 * bar.theta_d * float(bar.alpha(-geom.b)) / bar.epsilon
    return math.sqrt(max(val, 0.0))

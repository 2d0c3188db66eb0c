"""Barrier functions with their domains, extended class-K functions, and
Lie-derivative evaluation.

The candidate safe set is S = {h >= 0} with boundary {h = 0}; the barrier's
domain is D = {h + b > 0} where b = -inf h (declared, estimated, or +inf).
Robustness bookkeeping: the inflated set S_delta = {h + gamma(delta) >= 0}
with gamma(delta) = -alpha^{-1}(-eps*delta^2 / (2*theta_d)) stays invariant
for disturbances bounded by delta, provided delta^2 < -2*theta_d*alpha(-b)/eps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .dynamics import DisturbedSystem
from .errors import MarginUndefinedError, ParameterError, ShapeError
from .lower import Lowered

_RANGE_PROBE = 1e12  # stand-in for an infinite domain endpoint when probing range


@dataclass(frozen=True)
class ExtendedClassK:
    """Strictly increasing alpha on s > -b with alpha(0) = 0 and an inverse.

    ``alpha`` must accept plain floats and autodiff duals. ``range_lo`` is
    the infimum of its image, probed numerically at construction when not
    supplied.
    """

    alpha: Callable
    alpha_inv: Callable
    b: float = math.inf
    range_lo: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.b > 0:
            raise ParameterError("class-K domain bound b must be positive")
        if self.range_lo is None:
            object.__setattr__(self, "range_lo", float(self.alpha(-min(self.b, _RANGE_PROBE))))

    def __call__(self, s):
        return self.alpha(s)

    def inverse(self, y):
        return self.alpha_inv(y)


def linear_class_k(gain=1.0, b=math.inf):
    """alpha(s) = gain * s."""
    if not gain > 0:
        raise ParameterError("gain must be positive")
    return ExtendedClassK(lambda s: gain * s, lambda y: y / gain, b)


class BarrierEval(NamedTuple):
    """h, grad h and the top layer's barrier ``h_top`` at one state from one pass.

    A plain barrier is its own top layer: its ``h_top`` is h. A backstepped
    barrier h = h_top(x_top) - ||x_bot - ref(x_top)||^2 / (2 mu)
    penalizes the bottom block's distance to a reference ``ref`` built from a
    smooth virtual controller k. Its pass also leaves k, ref, the jacobian
    ``ref_jac`` = dref/dx_top of shape (n_bot, n_top) and mu here (all None
    for a plain barrier), so that readers of the same state need not rerun k.
    """

    h: float
    grad: np.ndarray
    h_top: float
    k: Optional[np.ndarray] = None
    ref: Optional[np.ndarray] = None
    ref_jac: Optional[np.ndarray] = None
    mu: Optional[float] = None


@dataclass(frozen=True)
class BarrierSpec:
    """A barrier h with gradient access and its robustness parameters.

    grad_h is required (there is no finite-difference default); write it
    with autodiff ops where a virtual controller is differentiated through it.
    ``value_and_grad`` (x -> BarrierEval) defaults to pairing h with grad_h.
    eps > 0 trades robustness against conservatism, theta_d > 0 is the
    minimum decay scale, p_weight > 0 weighs decay deviation in the filter.
    ``layers`` counts the blocks a backstepped barrier was built over (1 for
    a plain barrier). ``domain_b`` is b = -inf h, declared finite or left
    +inf; the barrier's domain is D = {h + b > 0} (``in_domain``).
    ``kernels`` holds the lowered state pass of each system this barrier was
    evaluated with (see ``eval_lie``).
    """

    h: Callable
    grad_h: Callable
    alpha: ExtendedClassK
    epsilon: float
    theta_d: float
    p_weight: float
    n: Optional[int] = None
    value_and_grad: Optional[Callable] = None
    layers: int = 1
    domain_b: float = math.inf
    kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.epsilon > 0 and self.theta_d > 0 and self.p_weight > 0):
            raise ParameterError("epsilon, theta_d, p_weight must all be strictly positive")
        if not self.domain_b > 0:  # NaN too: it would turn the domain test off
            raise ParameterError(f"domain_b must be positive, got {self.domain_b!r}")
        if self.alpha.b < self.domain_b:  # alpha must be defined on all of D, where h > -b
            raise ParameterError(f"alpha is undefined on part of D: alpha.b={self.alpha.b!r} < domain_b={self.domain_b!r}")
        if self.value_and_grad is None:
            h, grad_h = self.h, self.grad_h
            def pair(x):
                hv = ad.scalar(h(x))
                return BarrierEval(hv, ad.floats(grad_h(x)).reshape(-1), hv)

            object.__setattr__(self, "value_and_grad", pair)

    def in_domain(self, x, hv=None):
        """x in D = {h + b > 0}; ``hv`` is h(x) where the caller has it, and h is
        evaluated only when b is finite and ``hv`` is not given."""
        if not math.isfinite(self.domain_b):
            return True
        return (float(self.h(x)) if hv is None else hv) + self.domain_b > 0.0


class LieData(NamedTuple):
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


def lie_pass(sys: DisturbedSystem, bar: BarrierSpec, x) -> tuple:
    """The state part of an evaluation at the 1-D state x, on floats or traced scalars:
    (h, grad h, h_top, f, g, w, L_f h, L_g h, L_w h), then k, ref, ref_jac and mu when the
    barrier pass carries a virtual input, from which a system with ``f_with`` takes its drift."""
    x = ad.floats(x)
    if x.shape != (sys.n,):
        raise ShapeError("x", (sys.n,), x.shape)
    be = bar.value_and_grad(x)
    grad = be.grad
    f = ad.floats(sys.f(x) if sys.f_with is None or be.k is None else sys.f_with(x, be))
    g, w = ad.floats(sys.g(x)), ad.floats(sys.w(x))
    for name, arr, shape in (("grad_h(x)", grad, (sys.n,)), ("f(x)", f, (sys.n,)),
                             ("g(x)", g, (sys.n, sys.m)), ("w(x)", w, (sys.n, sys.p))):
        if arr.shape != shape:
            raise ShapeError(name, shape, arr.shape)
    lie = (be.h, grad, be.h_top, f, g, w, ad.dot(grad, f), ad.vecmat(grad, g), ad.vecmat(grad, w))
    return lie if be.k is None else lie + (be.k, be.ref, be.ref_jac, be.mu)


def eval_lie(sys: DisturbedSystem, bar: BarrierSpec, x) -> LieData:
    """Evaluate h, L_f h = grad_h . f, L_g h = grad_h g, L_w h = grad_h w.

    Runs the pair's lowered ``lie_pass`` (``lower.Lowered``, with ``lie_pass`` on
    floats as its reference, whose errors propagate). A pair whose pass cannot be
    lowered exactly runs the reference at every state; its kernel's ``refusal`` says why.
    """
    h, grad, h_top, f, g, w, lf, lg, lw, *barrier_pass = lie_kernel(sys, bar)(x)
    return LieData(h, lf, lg, lw, BarrierEval(h, grad, h_top, *barrier_pass), f, g, w)


def lie_kernel(sys: DisturbedSystem, bar: BarrierSpec) -> Lowered:
    """The pair's lowered ``lie_pass``, made on first use and kept in ``bar.kernels``."""
    entry = bar.kernels.get(id(sys))
    if entry is None or entry[0] is not sys:
        # the kernel holds the barrier weakly, so that the barrier and its kernels form no cycle
        kernel = Lowered(partial(lie_pass, sys, weakref.proxy(bar)), sys.n)
        entry = bar.kernels[id(sys)] = (sys, kernel)
    return entry[1]


def gamma_margin(bar: BarrierSpec, delta: float) -> float:
    """Safe-set inflation gamma(delta) = -alpha^{-1}(-eps*delta^2/(2*theta_d)).

    Raises MarginUndefinedError when the argument leaves the range of alpha
    (disturbance too large for this alpha).
    """
    if not delta >= 0:
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


def admissible_delta(bar: BarrierSpec) -> float:
    """Supremal admissible disturbance bound sqrt(-2*theta_d*alpha(-b)/eps).

    Callers must compare with strict inequality. Returns +inf when the
    barrier is unbounded below (b infinite).
    """
    if not math.isfinite(bar.domain_b):
        return math.inf
    val = -2.0 * bar.theta_d * float(bar.alpha(-bar.domain_b)) / bar.epsilon
    return math.sqrt(max(val, 0.0))

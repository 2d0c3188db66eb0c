"""The backstepped block barrier, and the strict-feedback cascades it is built on.

Given a top-layer barrier h_top over x_top, a smooth safeguarding virtual
controller k and a reference map r from the virtual input to the bottom
state that realizes it, the block barrier

    h(x) = h_top(x_top) - 1/(2 mu) ||x_bot - r(k(x_top))||^2

is a valid optimal-decay barrier for the two-layer cascade whenever the
bottom input matrix has full row rank off the safe set's interior. For
strict-feedback systems r is the identity; for dual-relative-degree systems
it is the attitude map eta_d (see :mod:`odcbf.drd`). With J = d r(k)/dx_top
the gradient follows the chain rule:

    dh/dx_top = dh_top/dx_top + (1/mu) (x_bot - r)^T J
    dh/dx_bot = -(1/mu) (x_bot - r)^T

The toolkit builds the paper's two-layer constructions. Nesting them over
more layers is future work: each level differentiates the controller of the
level above, so the terms grow quickly with depth (Swaroop et al., IEEE TAC
2000), and the jacobian of a deeper controller needs second derivatives of
the first, which forward AD carries with second-order jets such as
hyper-dual numbers (Fike & Alonso, AIAA 2011).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .barrier import BarrierEval, BarrierSpec
from .dynamics import DisturbedSystem
from .errors import ParameterError, SamplerError
from .lower import Lowered
from .synthesis import SmoothVirtualController
from .verify import RANK_TOL


@dataclass(frozen=True)
class Layer:
    """One block of a two-layer strict-feedback cascade.

    f, g, w take the top block's state (top layer) or the whole state
    (bottom layer) and return arrays of shape (dim,), (dim, next) and
    (dim, p); g multiplies the bottom block (top layer) or the input
    (bottom layer).
    """

    f: Callable
    g: Callable
    w: Callable
    dim: int


@dataclass(frozen=True)
class StrictFeedbackSystem:
    """The two-layer cascade x_top' = f_0 + g_0 x_bot + w_0 d, x_bot' = f_1 + g_1 u + w_1 d."""

    layers: tuple  # (top, bottom)
    m: int  # input dimension at the bottom layer
    p: int  # disturbance dimension

    def __post_init__(self):
        if len(self.layers) != 2:
            raise ParameterError(f"a strict-feedback cascade has two layers, got {len(self.layers)}")

    @property
    def n(self):
        return self.layers[0].dim + self.layers[1].dim

    def assemble(self) -> DisturbedSystem:
        """Full block-form system: the top drift chains g_0 x_bot, the input enters at the bottom."""
        top, bot = self.layers
        g_top_rows = np.zeros((top.dim, self.m))

        def f(x):
            x_top = x[: top.dim]
            chained = ad.floats(top.f(x_top)) + ad.matvec(top.g(x_top), x[top.dim :])
            return np.concatenate([chained, ad.floats(bot.f(x))])

        def g(x):
            return np.concatenate([g_top_rows, ad.floats(bot.g(x))])

        def w(x):
            return np.concatenate([ad.floats(top.w(x[: top.dim])), ad.floats(bot.w(x))])

        return DisturbedSystem(n=self.n, m=self.m, p=self.p, f=f, g=g, w=w)

    def virtual_top(self) -> DisturbedSystem:
        """Layer 0 as a system whose input is block 1 (the virtual channel)."""
        top, bot = self.layers
        return DisturbedSystem(n=top.dim, m=bot.dim, p=self.p, f=top.f, g=top.g, w=top.w)


@dataclass(frozen=True)
class CompositeBarrier:
    """Backstepped barrier h = h_top(x_top) - 1/(2 mu) ||x_bot - r(k(x_top))||^2, with ``k`` the
    virtual controller and ``ref_map`` the dual-aware reference r (None: the identity r(v) = v).
    ``mu`` must be positive (ParameterError otherwise, NaN included) and is stored as a float.

    Its pass (``barrier_pass``: h, grad h, h_top, k, r and dr/dx_top) is lowered once per barrier, as
    ``kernel``, with the forward-AD passes of k and r on floats as its reference. ``h``,
    ``grad_h``, ``reference`` and ``value_and_grad`` all read that kernel; on traced scalars
    the kernel runs the pass on them, so that it inlines into the state kernel.
    """

    h_top: BarrierSpec
    k: SmoothVirtualController
    mu: float
    n_top: int
    n_bot: int
    ref_map: Optional[Callable] = None
    kernel: Lowered = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.mu > 0:
            raise ParameterError(f"mu must be strictly positive, got {self.mu!r}")
        object.__setattr__(self, "mu", float(self.mu))
        # the kernel holds the barrier weakly, so that the two form no reference cycle
        kernel = Lowered(partial(barrier_pass, weakref.proxy(self)), self.n_top + self.n_bot)
        object.__setattr__(self, "kernel", kernel)

    def reference(self, x):
        """r(k(x_top)): the bottom block's reference at x."""
        return self.kernel(x)[4]

    def h(self, x):
        return self.kernel(x)[0]

    def value_and_grad(self, x) -> BarrierEval:
        """h, grad h, h_top, k, r and dr/dx_top at x, on floats or on traced scalars."""
        return BarrierEval(*self.kernel(x), mu=self.mu)

    def grad_h(self, x):
        return self.kernel(x)[1]

    def to_spec(self, domain_b=math.inf) -> BarrierSpec:
        return BarrierSpec(
            h=self.h,
            grad_h=self.grad_h,
            alpha=self.h_top.alpha,
            epsilon=self.h_top.epsilon,
            theta_d=self.h_top.theta_d,
            p_weight=self.h_top.p_weight,
            n=self.n_top + self.n_bot,
            value_and_grad=self.value_and_grad,
            layers=self.h_top.layers + 1,
            domain_b=domain_b,
        )


def barrier_pass(bar: CompositeBarrier, x) -> tuple:
    """(h, grad h, h_top, k, r, dr/dx_top) at the 1-D state x, on floats or traced scalars, from
    the forward-AD passes of k and of r and the chain rule."""
    x = ad.floats(x)
    x_top, x_bot = x[: bar.n_top], x[bar.n_top :]
    k_val, k_jac = bar.k.with_jacobian(x_top)
    if bar.ref_map is None:
        ref, ref_jac = k_val, k_jac
    else:
        ref, r_jac = ad.jacobian(bar.ref_map, k_val)
        ref_jac = ad.contract(r_jac[:, :, None], k_jac[None, :, :], 1)  # J_r J_k
    e = x_bot - ref
    # (e J_r) J_k, not e (J_r J_k): this product order fixes the gradient's rounding
    chain = ad.vecmat(e, k_jac) if bar.ref_map is None else ad.vecmat(ad.vecmat(e, r_jac), k_jac)
    top = bar.h_top.value_and_grad(x_top)
    hv = top.h - ad.dot(e, e) / (2.0 * bar.mu)
    grad = np.concatenate([top.grad + chain / bar.mu, -e / bar.mu])
    return hv, grad, top.h, k_val, ref, ref_jac


@dataclass(frozen=True)
class RankReport:
    """Minimum singular value of the bottom input matrix over a sample set."""

    samples_checked: int
    min_singular_value: float
    flagged: list  # (state, sigma_min) below RANK_TOL

    @property
    def ok(self):
        return not self.flagged


def check_full_row_rank(matfn, samples) -> RankReport:
    samples = list(samples)
    if not samples:
        raise SamplerError("empty sample set for rank check")
    flagged, min_sv = [], np.inf
    for x in samples:
        mat = np.atleast_2d(np.asarray(matfn(np.asarray(x, dtype=float)), dtype=float))
        sv = np.linalg.svd(mat, compute_uv=False)
        smin = float(sv[min(mat.shape) - 1])
        min_sv = min(min_sv, smin)
        if smin < RANK_TOL:
            flagged.append((np.asarray(x, dtype=float), smin))
    return RankReport(samples_checked=len(samples), min_singular_value=min_sv, flagged=flagged)

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

The construction nests: recursing over layers penalizes each block's
deviation from the safeguarding controller synthesized for the composite
one level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .barrier import BarrierEval, BarrierSpec
from .dynamics import DisturbedSystem
from .errors import ParameterError, SamplerError
from .synthesis import SmoothVirtualController, synth_virtual


@dataclass(frozen=True)
class Layer:
    """One block of a strict-feedback cascade.

    f, g, w take the stacked prefix state (x1, ..., xi) and return arrays of
    shape (dim,), (dim, next) and (dim, p); g multiplies the next block (or
    the input at the bottom layer) and w may depend only on the prefix.
    """

    f: Callable
    g: Callable
    w: Callable
    dim: int


@dataclass(frozen=True)
class StrictFeedbackSystem:
    layers: tuple
    m: int  # input dimension at the bottom layer
    p: int  # disturbance dimension
    ends: tuple = field(init=False, repr=False, compare=False)  # block i is x[ends[i-1]:ends[i]]

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(int(e) for e in np.cumsum([layer.dim for layer in self.layers])))

    @property
    def n(self):
        return self.ends[-1]

    def prefix(self, x, i):
        """Stacked state of layers 0..i inclusive."""
        return x[: self.ends[i]]

    def block(self, x, i):
        """State of layer i alone."""
        return x[self.ends[i] - self.layers[i].dim : self.ends[i]]

    def assemble(self) -> DisturbedSystem:
        """Full block-form system: drift chains g_i x_{i+1}, input at the bottom."""
        n, m, p = self.n, self.m, self.p
        last = len(self.layers) - 1

        def f(x):
            parts = []
            for i, layer in enumerate(self.layers):
                fi = np.asarray(layer.f(self.prefix(x, i)), dtype=float)
                if i < last:
                    gi = np.asarray(layer.g(self.prefix(x, i)), dtype=float)
                    fi = fi + gi @ np.asarray(self.block(x, i + 1), dtype=float)
                parts.append(fi)
            return np.concatenate(parts)

        def g(x):
            mat = np.zeros((n, m))
            mat[n - self.layers[-1].dim :, :] = np.asarray(self.layers[-1].g(x), dtype=float)
            return mat

        def w(x):
            return np.vstack(
                [np.asarray(layer.w(self.prefix(x, i)), dtype=float) for i, layer in enumerate(self.layers)]
            )

        return DisturbedSystem(n=n, m=m, p=p, f=f, g=g, w=w)

    def virtual_top(self, i) -> DisturbedSystem:
        """Layers 0..i as a system whose input is block i+1 (the virtual channel).

        Drift stacks the already-closed chain terms; only the last block's g
        feeds the virtual input.
        """
        n_top = self.ends[i]
        m_virt = self.layers[i + 1].dim if i + 1 < len(self.layers) else self.m
        zero = np.zeros((n_top - self.layers[i].dim, m_virt))

        def f(x):
            parts = []
            for j in range(i + 1):
                fj = self.layers[j].f(self.prefix(x, j))
                if j < i:
                    gj = self.layers[j].g(self.prefix(x, j))
                    fj = fj + ad.matvec(gj, self.block(x, j + 1))
                parts.append(fj)
            return parts[0] if i == 0 else ad.concatenate(parts)

        def g(x):
            gi = self.layers[i].g(self.prefix(x, i))
            return gi if i == 0 else ad.vstack([zero, gi])

        def w(x):
            blocks = [self.layers[j].w(self.prefix(x, j)) for j in range(i + 1)]
            return blocks[0] if i == 0 else ad.vstack(blocks)

        return DisturbedSystem(n=n_top, m=m_virt, p=self.p, f=f, g=g, w=w)


@dataclass(frozen=True)
class CompositeBarrier:
    """Backstepped barrier h = h_top(x_top) - 1/(2 mu) ||x_bot - r(k(x_top))||^2, with ``k`` the
    virtual controller and ``ref_map`` the dual-aware reference r (None: the identity r(v) = v)."""

    h_top: BarrierSpec
    k: SmoothVirtualController
    mu: float
    n_top: int
    n_bot: int
    ref_map: Optional[Callable] = None

    def reference(self, x):
        """r(k(x_top)): the bottom block's reference at x, value only."""
        v = self.k.k1(x[: self.n_top])
        return v if self.ref_map is None else self.ref_map(v)

    def h(self, x):
        e = x[self.n_top :] - self.reference(x)
        return self.h_top.h(x[: self.n_top]) - ad.dot(e, e) / (2.0 * self.mu)

    def value_and_grad(self, x) -> BarrierEval:
        """h, grad h, k, r and dr/dx_top from one value-and-jacobian pass of k (and of r)."""
        x = np.asarray(x, dtype=float)
        x_top, x_bot = x[: self.n_top], x[self.n_top :]
        k_val, k_jac = self.k.with_jacobian(x_top)
        if self.ref_map is None:
            ref, ref_jac = k_val, k_jac
        else:
            ref, r_jac = ad.jacobian(self.ref_map, k_val)
            ref_jac = r_jac @ k_jac
        e = x_bot - ref
        # (e J_r) J_k, not e (J_r J_k): this product order fixes the gradient's rounding
        chain = e @ k_jac if self.ref_map is None else (e @ r_jac) @ k_jac
        top = self.h_top.value_and_grad(x_top)
        hv = top.h - float(e @ e) / (2.0 * self.mu)
        grad = np.concatenate([top.grad + chain / self.mu, -e / self.mu])
        return BarrierEval(hv, grad, k=k_val, ref=ref, ref_jac=ref_jac, mu=self.mu)

    def grad_h(self, x):
        return self.value_and_grad(x).grad

    def to_spec(self) -> BarrierSpec:
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
        )


def compose_barrier(h_top: BarrierSpec, k: SmoothVirtualController, mu, n_top, n_bot, ref_map=None) -> CompositeBarrier:
    """Penalize the bottom block's deviation from the reference of the safeguarding controller."""
    if mu <= 0:
        raise ParameterError("mu must be strictly positive")
    return CompositeBarrier(h_top=h_top, k=k, mu=float(mu), n_top=n_top, n_bot=n_bot, ref_map=ref_map)


@dataclass(frozen=True)
class RankReport:
    """Minimum singular value of the bottom input matrix over a sample set."""

    samples_checked: int
    min_singular_value: float
    flagged: list  # (state, sigma_min) below tolerance
    tol: float

    @property
    def ok(self):
        return not self.flagged


def check_full_row_rank(matfn, samples, tol=1e-8) -> RankReport:
    samples = list(samples)
    if not samples:
        raise SamplerError("empty sample set for rank check")
    flagged, min_sv = [], np.inf
    for x in samples:
        mat = np.atleast_2d(np.asarray(matfn(np.asarray(x, dtype=float)), dtype=float))
        sv = np.linalg.svd(mat, compute_uv=False)
        smin = float(sv[min(mat.shape) - 1])
        min_sv = min(min_sv, smin)
        if smin < tol:
            flagged.append((np.asarray(x, dtype=float), smin))
    return RankReport(samples_checked=len(samples), min_singular_value=min_sv, flagged=flagged, tol=tol)


def recursive_compose(
    sfs: StrictFeedbackSystem,
    h1: BarrierSpec,
    mus: Sequence[float],
    sigmas: Sequence[float],
) -> CompositeBarrier:
    """Peel layers one at a time: synthesize, penalize deviation, repeat.

    Layer 1 controllers are differentiated by forward AD; deeper layers fall
    back to central differences for their jacobians (composite gradients are
    not dual-evaluable). Synthesis failure propagates with the layer index.
    """
    n_layers = len(sfs.layers)
    if n_layers < 2:
        raise ParameterError("recursive composition needs at least two layers")
    if len(mus) != n_layers - 1 or len(sigmas) != n_layers - 1:
        raise ParameterError(f"need {n_layers - 1} mus/sigmas for {n_layers} layers")
    bar = h1
    composite = None
    for i in range(n_layers - 1):
        top = sfs.virtual_top(i)
        k_i = synth_virtual(top, bar, sigmas[i], jac_mode="ad" if i == 0 else "fd", layer=i + 1)
        composite = compose_barrier(bar, k_i, mus[i], top.n, top.m)
        bar = composite.to_spec()
    return composite


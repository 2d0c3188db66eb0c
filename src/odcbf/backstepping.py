"""Composite barrier construction for strict-feedback systems.

Given a top-layer barrier h1 over x1 and a smooth safeguarding virtual
controller k1, the composite

    h(x) = h1(x1) - 1/(2 mu) ||x2 - k1(x1)||^2

is a valid optimal-decay barrier for the two-layer cascade whenever the
bottom input matrix has full row rank off the safe set's interior. Its
gradient follows the chain rule:

    dh/dx1 = dh1/dx1 + (1/mu) (x2 - k1)^T dk1/dx1
    dh/dx2 = -(1/mu) (x2 - k1)^T

The construction nests: recursing over layers penalizes each block's
deviation from the safeguarding controller synthesized for the composite
one level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .barrier import BarrierEval, BarrierSpec
from .dynamics import DisturbedSystem
from .errors import ParameterError, SamplerError, SynthesisInfeasibleError
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
    """Backstepped barrier h = h1(x1) - 1/(2 mu) ||x2 - k1(x1)||^2."""

    h1: BarrierSpec
    k1: SmoothVirtualController
    mu: float
    n1: int
    n2: int

    def h(self, x):
        x1, x2 = x[: self.n1], x[self.n1 :]
        e = x2 - self.k1.k1(x1)
        return self.h1.h(x1) - ad.dot(e, e) / (2.0 * self.mu)

    def value_and_grad(self, x) -> BarrierEval:
        """h, grad h and k1 from one controller value-and-jacobian pass."""
        x = np.asarray(x, dtype=float)
        x1, x2 = x[: self.n1], x[self.n1 :]
        k_val, jac = self.k1.with_jacobian(x1)
        jac = jac.reshape(self.n2, self.n1)
        e = x2 - k_val
        top = self.h1.value_and_grad(x1)
        hv = top.h - float(e @ e) / (2.0 * self.mu)
        d1 = top.grad + (e @ jac) / self.mu
        d2 = -e / self.mu
        return BarrierEval(hv, np.concatenate([d1, d2]), k=k_val, ref=k_val, ref_jac=jac, mu=self.mu)

    def grad_h(self, x):
        return self.value_and_grad(x).grad

    def to_spec(self) -> BarrierSpec:
        return BarrierSpec(
            h=self.h,
            grad_h=self.grad_h,
            alpha=self.h1.alpha,
            epsilon=self.h1.epsilon,
            theta_d=self.h1.theta_d,
            p_weight=self.h1.p_weight,
            n=self.n1 + self.n2,
            value_and_grad=self.value_and_grad,
        )


def compose_barrier(h1: BarrierSpec, k1: SmoothVirtualController, mu: float, n1=None, n2=None) -> CompositeBarrier:
    """Penalize deviation of the virtual input from the safeguarding controller."""
    if mu <= 0:
        raise ParameterError("mu must be strictly positive")
    if n1 is None:
        n1 = h1.n
    if n1 is None:
        raise ParameterError("layer-1 state dimension unknown: set h1.n or pass n1")
    if n2 is None:
        try:
            probe = np.asarray(ad.value(k1.k1(np.zeros(n1))), dtype=float).reshape(-1)
        except SynthesisInfeasibleError:
            raise ParameterError("could not infer virtual-input dimension; pass n2 explicitly") from None
        n2 = probe.size
    return CompositeBarrier(h1=h1, k1=k1, mu=float(mu), n1=n1, n2=n2)


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


def check_row_rank_g2(sfs: StrictFeedbackSystem, samples, tol=1e-8) -> RankReport:
    """Full-row-rank check of the bottom layer's input matrix over samples.

    The samples should cover the region outside the safe set's interior,
    where the rank condition is needed.
    """
    return check_full_row_rank(sfs.layers[-1].g, samples, tol=tol)


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
        composite = compose_barrier(bar, k_i, mus[i], n1=top.n, n2=top.m)
        bar = composite.to_spec()
    return composite


"""Disturbed control-affine systems, disturbance signals, and nominal laws.

Systems are triples of closures (f, g, w) over a configuration record:
xdot = f(x) + g(x) u + w(x) d with declared dimensions (n, m, p). No symbolic
layer; gradients of anything built on top come from ``autodiff``. A nominal
law is a plain function u = law(x, t, be), where ``be`` is the barrier pass
at x (``BarrierEval``) or None; the safety filter hands it the pass it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class DisturbedSystem:
    """Control-affine dynamics with a disturbance input matrix.

    f: state -> (n,) drift, g: state -> (n, m), w: state -> (n, p).
    All maps must be deterministic functions of the state. A drift closed
    through a virtual controller k may also come as ``f_with(x, bar_eval)``,
    which reads k(x) from a barrier pass built on the same k (``BarrierEval``).
    """

    n: int
    m: int
    p: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]
    f_with: Optional[Callable] = None


@dataclass(frozen=True)
class DisturbanceSignal:
    """Time signal t -> d(t) with a declared bound on sup_t ||d(t)||.

    The bound is the supremum over time of the Euclidean vector norm; the
    simulator checks it at every RK stage time.
    """

    value: Callable
    sup_norm: float

    def at(self, t):
        return np.asarray(self.value(t), dtype=float)


def call_law(law, x, t=0.0, bar_eval=None):
    """The nominal input law(x, t, bar_eval) as a float array."""
    return np.asarray(law(x, t, bar_eval), dtype=float)


def _check_vec(name, v, dim):
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ShapeError(name, (dim,), v.shape)
    return v


def _check_mat(name, a, shape):
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ShapeError(name, shape, a.shape)
    return a


def eval_dynamics(sys: DisturbedSystem, x, u, d) -> np.ndarray:
    """xdot = f(x) + g(x) u + w(x) d, with shape checks naming the offender."""
    x = _check_vec("x", x, sys.n)
    u = _check_vec("u", u, sys.m)
    d = _check_vec("d", d, sys.p)
    f = _check_vec("f(x)", sys.f(x), sys.n)
    g = _check_mat("g(x)", sys.g(x), (sys.n, sys.m))
    w = _check_mat("w(x)", sys.w(x), (sys.n, sys.p))
    return f + g @ u + w @ d

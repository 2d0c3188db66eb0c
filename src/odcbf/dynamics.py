"""Disturbed control-affine systems, disturbance signals, and feedback laws.

Systems are triples of closures (f, g, w) over a configuration record:
xdot = f(x) + g(x) u + w(x) d with declared dimensions (n, m, p). No symbolic
layer; gradients of anything built on top come from ``autodiff``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autodiff import fd_jacobian
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
    simulator checks it at every RK stage time. With ``state_feedback`` the map
    takes (t, x) — an adversarial extension not covered by the invariance theorem.
    """

    value: Callable
    sup_norm: float
    state_feedback: bool = False

    def at(self, t, x=None):
        return np.asarray(self.value(t, x) if self.state_feedback else self.value(t), dtype=float)


@dataclass(frozen=True)
class FeedbackLaw:
    """State feedback u = control(x), optionally with an (m, n) jacobian.

    ``time_varying`` laws take (x, t); the closed-loop field supplies t.
    ``control_with`` takes the barrier pass at x as a last argument and
    reads the virtual input from it (see ``DisturbedSystem.f_with``).
    """

    control: Callable
    jacobian: Optional[Callable] = None
    time_varying: bool = False
    control_with: Optional[Callable] = None


def call_law(law, x, t=0.0, bar_eval=None):
    """Evaluate a feedback law, passing t (and a barrier pass to ``control_with``) only where wanted."""
    tv = getattr(law, "time_varying", False)
    if bar_eval is not None and bar_eval.k is not None and getattr(law, "control_with", None) is not None:
        return np.asarray(law.control_with(x, t, bar_eval) if tv else law.control_with(x, bar_eval), dtype=float)
    return np.asarray(law.control(x, t) if tv else law.control(x), dtype=float)


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


def close_loop(sys: DisturbedSystem, law, dist: DisturbanceSignal):
    """Time-varying closed-loop field (t, x) -> eval_dynamics(x, law(x), d(t))."""

    def field(t, x):
        x = np.asarray(x, dtype=float)
        return eval_dynamics(sys, x, call_law(law, x, t), dist.at(t, x))

    return field


def validate_law_jacobian(law: FeedbackLaw, states, rel_tol=1e-6):
    """Check law.jacobian against central differences at the given states.

    Returns the worst relative error; raises ValueError if the law has no
    jacobian.
    """
    if law.jacobian is None:
        raise ValueError("law has no jacobian to validate")
    worst = 0.0
    for x in states:
        x = np.asarray(x, dtype=float)
        ja = np.asarray(law.jacobian(x), dtype=float)
        jf = fd_jacobian(lambda y: call_law(law, y), x)
        err = np.max(np.abs(ja - jf)) / (1.0 + np.max(np.abs(jf)))
        worst = max(worst, err)
    if worst > rel_tol:
        raise AssertionError(f"jacobian mismatch: relative error {worst:.3e} > {rel_tol:.1e}")
    return worst

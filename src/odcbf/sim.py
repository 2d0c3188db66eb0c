"""Fixed-step closed-loop integration, trajectory recording, safety metrics.

Fixed-step RK4 (default dt = 1e-3 s over a 10 s horizon) rather than an
adaptive scheme: reproducibility beats adaptivity for acceptance runs. The
disturbance is sampled (and its bound checked) at stage times inside the RK4
stages, so time-varying signals like sin(t) integrate at full order. Discrete-time safety checks
carry a small slack (default 1e-6) because the continuous-time guarantees
degrade under sampling; the step-halving test guards against that slack
hiding real violations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .barrier import BarrierSpec, SafeSetGeometry, gamma_margin
from .dynamics import DisturbanceSignal, DisturbedSystem, _check_vec, call_law, eval_dynamics
from .errors import (
    STAGE_ERRORS,
    DomainError,
    InfeasiblePointError,
    IntegrationError,
    MarginUndefinedError,
    OdcbfError,
    ParameterError,
    SimulationAbort,
)
from .io import write_atomic, write_json_atomic


@dataclass(frozen=True)
class RolloutConfig:
    dt: float = 1e-3
    t_final: float = 10.0
    record_every: int = 1
    safety_slack: float = 1e-6

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.t_final < self.dt:
            raise ParameterError("t_final must be at least dt")
        if self.record_every < 1:
            raise ParameterError("record_every must be >= 1")


def rk4_step(field, t, x, dt, k1=None):
    """Classical 4-stage Runge-Kutta update; pass ``k1`` if field(t, x) is known."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    k1 = np.asarray(field(t, x) if k1 is None else k1, dtype=float)
    k2 = np.asarray(field(t + 0.5 * dt, x + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(field(t + 0.5 * dt, x + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(field(t + dt, x + dt * k3), dtype=float)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(t, x)
    return out


class _LeftDomain(DomainError):
    """The closed loop reached a state outside the barrier domain at time t."""

    def __init__(self, t, x):
        self.t = t
        super().__init__(x)


class Row(NamedTuple):
    """One closed-loop evaluation at (t, x): a recorded row and an RK stage's xdot."""

    t: float
    x: np.ndarray
    u: np.ndarray
    d: np.ndarray
    xdot: np.ndarray
    h: Optional[float]  # the filter's barrier pass, if it filters with the recorded barrier
    theta: float


@dataclass
class Trajectory:
    """Recorded rollout: one row per recorded step, columns share length."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    omegas: np.ndarray
    disturbances: np.ndarray
    h_values: np.ndarray
    layer_h_values: np.ndarray
    truncated: bool = False
    exit_reason: Optional[str] = None

    def to_csv(self, path):
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        p = self.disturbances.shape[1]
        header = (
            ["t"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"u_{i + 1}" for i in range(m)]
            + [f"d_{i + 1}" for i in range(p)]
            + ["h", "h_layer", "theta"]
        )

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.times)):
                row = (
                    [self.times[i]]
                    + list(self.states[i])
                    + list(self.inputs[i])
                    + list(self.disturbances[i])
                    + [self.h_values[i], self.layer_h_values[i], self.omegas[i]]
                )
                writer.writerow([repr(float(v)) for v in row])

        write_atomic(path, write, newline="")

    def to_json(self, path):
        write_json_atomic(
            path,
            {
                "times": self.times.tolist(),
                "states": self.states.tolist(),
                "inputs": self.inputs.tolist(),
                "omegas": self.omegas.tolist(),
                "disturbances": self.disturbances.tolist(),
                "h": self.h_values.tolist(),
                "h_layer": self.layer_h_values.tolist(),
                "truncated": self.truncated,
                "exit_reason": self.exit_reason,
            },
        )


@dataclass
class SafetyMetrics:
    min_h: float
    min_layer_h: float
    max_violation: float
    issf_bound_satisfied: bool
    theta_floor_ok: bool
    gamma_delta: Optional[float] = None

    def to_dict(self):
        return {
            "min_h": self.min_h,
            "min_layer_h": self.min_layer_h,
            "max_violation": self.max_violation,
            "issf_bound_satisfied": self.issf_bound_satisfied,
            "theta_floor_ok": self.theta_floor_ok,
            "gamma_delta": self.gamma_delta,
        }


def rollout(
    sys: DisturbedSystem,
    law,
    disturbance: DisturbanceSignal,
    x0,
    cfg: RolloutConfig,
    bar: BarrierSpec,
    layer_h: Optional[Callable] = None,
    geometry: Optional[SafeSetGeometry] = None,
):
    """Integrate the closed loop, recording h, the decay scale, and inputs.

    Each RK stage is evaluated once, and the row recorded at (t_k, x_k) is
    the first stage of step k, so only the final row is evaluated by itself.
    With ``geometry``, a state outside the barrier domain ends the rollout:
    a step's end (checked here) or an RK stage's state that the law rejects
    with DomainError. The trajectory is flagged truncated and its last row
    holds that state at its time, with its h and with NaN input and decay
    scale, as the law is not evaluated there. Aborts with the step index and
    the stage time, chained to the cause, on controller infeasibility and on
    the other errors of a stage evaluation (``STAGE_ERRORS``).
    The declared disturbance bound is enforced on the sample taken at every
    stage time.
    """
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(round(cfg.t_final / cfg.dt))
    evaluate_law = getattr(law, "evaluate", None)  # the QP filter's one evaluation per state
    step = 0

    def evaluate(t, x):
        d = disturbance.at(t)
        norm = float(np.linalg.norm(d))
        if norm > disturbance.sup_norm + 1e-9:
            raise SimulationAbort(
                step, t, f"disturbance exceeds declared bound ||d||={norm:.6g} > {disturbance.sup_norm:.6g}"
            )
        try:
            if evaluate_law is None:
                u = call_law(law, x, t)
                return Row(t, x, u, d, eval_dynamics(sys, x, u, d), None, math.nan)
            ev = evaluate_law(x, t)
            u, lie = ev.result.u, ev.lie
            if law.sys is sys:
                xdot = lie.f + lie.g @ u + lie.w @ _check_vec("d", d, sys.p)
            else:
                xdot = eval_dynamics(sys, x, u, d)
            return Row(t, x, u, d, xdot, lie.h_val if law.bar is bar else None, ev.result.theta_x)
        except InfeasiblePointError as exc:
            raise SimulationAbort(step, t, f"controller infeasible: {exc}") from exc
        except STAGE_ERRORS as exc:
            raise SimulationAbort(step, t, f"{type(exc).__name__}: {exc}") from exc
        except DomainError as exc:
            if geometry is None:
                raise
            raise _LeftDomain(t, x) from exc

    def field(t, x):
        return evaluate(t, x).xdot

    times, states, inputs, omegas, dists, hs, layer_hs = [], [], [], [], [], [], []
    truncated = False
    exit_reason = None

    def record(row):
        times.append(row.t)
        states.append(row.x.copy())
        inputs.append(np.asarray(row.u, dtype=float))
        omegas.append(row.theta)
        dists.append(row.d)
        hs.append(float(bar.h(row.x)) if row.h is None else row.h)
        layer_hs.append(float(layer_h(row.x)) if layer_h is not None else math.nan)

    row = evaluate(0.0, x)
    record(row)
    for k in range(n_steps):
        step = k
        try:
            x = rk4_step(field, k * cfg.dt, x, cfg.dt, k1=row.xdot)
            step, t_next = k + 1, (k + 1) * cfg.dt
            if geometry is not None and not geometry.in_domain(x):
                raise _LeftDomain(t_next, x)
            row = evaluate(t_next, x)
        except _LeftDomain as left:
            # the law is not evaluated there: record the state with its h, no input and no decay scale
            truncated, exit_reason = True, f"left barrier domain at t={left.t:.6g}"
            record(Row(left.t, left.x, np.full(sys.m, math.nan), disturbance.at(left.t), None, None, math.nan))
            break
        if (k + 1) % cfg.record_every == 0 or k + 1 == n_steps:
            record(row)

    traj = Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=float),
        inputs=np.asarray(inputs, dtype=float),
        omegas=np.asarray(omegas, dtype=float),
        disturbances=np.asarray(dists, dtype=float),
        h_values=np.asarray(hs, dtype=float),
        layer_h_values=np.asarray(layer_hs, dtype=float),
        truncated=truncated,
        exit_reason=exit_reason,
    )
    return traj, compute_metrics(traj, bar, disturbance.sup_norm, cfg.safety_slack)


def compute_metrics(traj: Trajectory, bar: BarrierSpec, delta: float, slack=1e-6) -> SafetyMetrics:
    min_h = float(np.min(traj.h_values))
    min_layer = float(np.nanmin(traj.layer_h_values)) if np.any(np.isfinite(traj.layer_h_values)) else math.nan
    try:
        gamma = gamma_margin(bar, delta)
        issf_ok = min_h >= -gamma - slack
    except MarginUndefinedError:
        gamma = None
        issf_ok = False
    finite_omegas = traj.omegas[np.isfinite(traj.omegas)]
    theta_ok = bool(np.all(finite_omegas >= bar.theta_d - 1e-12)) if finite_omegas.size else True
    return SafetyMetrics(
        min_h=min_h,
        min_layer_h=min_layer,
        max_violation=max(0.0, -min_h),
        issf_bound_satisfied=issf_ok,
        theta_floor_ok=theta_ok,
        gamma_delta=gamma,
    )


def sweep(cells: dict, cfg: RolloutConfig) -> dict:
    """One rollout per cell, a built scenario; a cell's toolkit error is captured, not raised.

    Returns {label: SafetyMetrics | {"error": str}}; deterministic given the
    cells (rollouts draw no randomness). Errors outside the toolkit's own
    (OdcbfError) are programming errors and propagate.
    """
    table = {}
    for label, cell in cells.items():
        try:
            _, metrics = rollout(
                cell.sys, cell.filter_law, cell.disturbance, cell.x0, cfg, cell.bar,
                layer_h=cell.layer_h, geometry=cell.geometry,
            )
            table[label] = metrics
        except OdcbfError as exc:
            table[label] = {"error": f"{type(exc).__name__}: {exc}"}
    return table


def sweep_table_to_dict(table: dict) -> dict:
    out = {}
    for label, entry in table.items():
        out[str(label)] = entry.to_dict() if isinstance(entry, SafetyMetrics) else entry
    return out

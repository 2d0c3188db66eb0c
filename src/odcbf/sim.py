"""Fixed-step closed-loop integration, trajectory recording, safety metrics.

``rollout(scn, cfg)`` runs one closed loop: a built ``Scenario`` through its
own filter, xdot = f + g u + w d with u from ``scn.filter_law.evaluate``.
Fixed-step RK4 (default dt = 1e-3 s over a 10 s horizon) rather than an
adaptive scheme: reproducibility beats adaptivity for acceptance runs. The
disturbance is sampled (and its bound checked) at stage times inside the RK4
stages, so time-varying signals like sin(t) integrate at full order. Every
step is recorded. The discrete-time ISSf check carries a small slack
(``SAFETY_SLACK``) because the continuous-time guarantees degrade under
sampling; the dt-halving checks guard against that slack hiding real
violations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .barrier import BarrierSpec, gamma_margin
from .dynamics import _check_vec
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

SAFETY_SLACK = 1e-6  # allowance of the sampled ISSf bound check min h >= -gamma(delta)


@dataclass(frozen=True)
class RolloutConfig:
    dt: float = 1e-3
    t_final: float = 10.0

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise ParameterError(f"t_final must be finite and at least dt, got {self.t_final!r}")


def rk4_step(field, t, x, dt, k1=None):
    """Classical 4-stage Runge-Kutta update; pass ``k1`` if field(t, x) is known."""
    if not dt > 0:
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
    xdot: Optional[np.ndarray]  # None on the row that left the barrier domain
    h: float
    theta: float


@dataclass
class Trajectory:
    """Recorded rollout: one row per step, columns share length; ``truncated`` if it stopped early."""

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

        table = np.column_stack(
            [self.times, self.states, self.inputs, self.disturbances, self.h_values, self.layer_h_values, self.omegas]
        )

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(map(lambda row: map(repr, row), table.tolist()))

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
        return asdict(self)


def _xdot(lie, u, d):
    """xdot = f + g u + w d at one state, from the lists of floats u and d, by the contraction rule."""
    rows = zip(lie.f.tolist(), lie.g.tolist(), lie.w.tolist())
    return np.array([fi + ad.fdot(gi, u) + ad.fdot(wi, d) for fi, gi, wi in rows])


def rollout(scn, cfg: RolloutConfig):
    """Integrate the closed loop of ``scn.filter_law`` (its system, barrier and
    domain) from ``scn.x0`` under ``scn.disturbance``, recording h,
    ``scn.layer_h``, the decay scale, and inputs.

    Each RK stage is evaluated once, and the row recorded at (t_k, x_k) is
    the first stage of step k, so only the final row is evaluated by itself.
    A state outside the barrier domain ends the rollout: a step's end or
    an RK stage's state, which the filter rejects with DomainError. The
    trajectory is flagged truncated and its last row holds that state at
    its time, with its h and with NaN input and decay scale, as the filter
    is not evaluated there. Aborts with the step index and the
    stage time, chained to the cause, on controller infeasibility and on the
    other errors of a stage evaluation (``STAGE_ERRORS``). The declared
    disturbance bound is enforced on the sample taken at every stage time.
    A ``SimulationAbort`` or ``IntegrationError`` carries the rows recorded
    before it as its truncated ``trajectory``.
    """
    law, disturbance, layer_h = scn.filter_law, scn.disturbance, scn.layer_h
    sys, bar, evaluate_law = law.sys, law.bar, law.evaluate
    x = np.asarray(scn.x0, dtype=float).copy()
    n_steps = int(round(cfg.t_final / cfg.dt))
    step = 0

    def evaluate(t, x):
        d = _check_vec("d", disturbance.at(t), sys.p)
        d_floats = d.tolist()
        norm = math.sqrt(ad.fdot(d_floats, d_floats))
        if norm > disturbance.sup_norm + 1e-9:
            raise SimulationAbort(
                step, t, f"disturbance exceeds declared bound ||d||={norm:.6g} > {disturbance.sup_norm:.6g}"
            )
        try:
            ev = evaluate_law(x, t)
        except InfeasiblePointError as exc:
            raise SimulationAbort(step, t, f"controller infeasible: {exc}") from exc
        except STAGE_ERRORS as exc:
            raise SimulationAbort(step, t, f"{type(exc).__name__}: {exc}") from exc
        except DomainError as exc:
            raise _LeftDomain(t, x) from exc
        u, lie = ev.result.u, ev.lie
        return Row(t, x, u, d, _xdot(lie, u.tolist(), d_floats), lie.h_val, ev.result.theta_x)

    def field(t, x):
        return evaluate(t, x).xdot

    times, states, inputs, omegas, dists, hs, layer_hs = [], [], [], [], [], [], []

    def record(row):
        times.append(row.t)
        states.append(row.x.copy())
        inputs.append(row.u)
        omegas.append(row.theta)
        dists.append(row.d)
        hs.append(row.h)
        layer_hs.append(float(layer_h(row.x)))

    def trajectory(truncated, exit_reason):
        rows = len(times)
        return Trajectory(
            times=np.asarray(times, dtype=float),
            states=np.asarray(states, dtype=float).reshape(rows, sys.n),
            inputs=np.asarray(inputs, dtype=float).reshape(rows, sys.m),
            omegas=np.asarray(omegas, dtype=float),
            disturbances=np.asarray(dists, dtype=float).reshape(rows, sys.p),
            h_values=np.asarray(hs, dtype=float),
            layer_h_values=np.asarray(layer_hs, dtype=float),
            truncated=truncated,
            exit_reason=exit_reason,
        )

    truncated, exit_reason = False, None
    try:
        row = evaluate(0.0, x)
        record(row)
        for k in range(n_steps):
            step = k
            try:
                x = rk4_step(field, k * cfg.dt, x, cfg.dt, k1=row.xdot)
                step = k + 1
                row = evaluate(step * cfg.dt, x)
            except _LeftDomain as left:
                # the filter is not evaluated there: record the state with its h, no input and no decay scale
                truncated, exit_reason = True, f"left barrier domain at t={left.t:.6g}"
                nan_u = np.full(sys.m, math.nan)
                record(Row(left.t, left.x, nan_u, disturbance.at(left.t), None, float(bar.h(left.x)), math.nan))
                break
            record(row)
    except (SimulationAbort, IntegrationError) as exc:
        exc.trajectory = trajectory(True, str(exc))
        raise

    traj = trajectory(truncated, exit_reason)
    return traj, compute_metrics(traj, bar, disturbance.sup_norm)


def compute_metrics(traj: Trajectory, bar: BarrierSpec, delta: float) -> SafetyMetrics:
    min_h = float(np.min(traj.h_values))
    min_layer = float(np.min(traj.layer_h_values))
    try:
        gamma = gamma_margin(bar, delta)
        issf_ok = min_h >= -gamma - SAFETY_SLACK
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
            table[label] = rollout(cell, cfg)[1]
        except OdcbfError as exc:
            table[label] = {"error": f"{type(exc).__name__}: {exc}"}
    return table


def sweep_table_to_dict(table: dict) -> dict:
    out = {}
    for label, entry in table.items():
        out[str(label)] = entry.to_dict() if isinstance(entry, SafetyMetrics) else entry
    return out

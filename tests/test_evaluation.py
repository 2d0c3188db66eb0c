"""One evaluation per state: the filter, the closed-loop field and the recorder
share it, and sharing changes no number."""

import math

import numpy as np
import pytest

from odcbf import drd, synthesis
from odcbf.backstepping import CompositeBarrier
from odcbf.drd import DrdBarrier
from odcbf.dynamics import DisturbanceSignal, DisturbedSystem, FeedbackLaw, close_loop
from odcbf.errors import InfeasiblePointError, NonFiniteError, OdcbfError, SimulationAbort
from odcbf.odfilter import solve_decay_filter
from odcbf.scenarios import build_pendulum, build_quadrotor
from odcbf.sim import RolloutConfig, rk4_step, rollout

CFG = RolloutConfig(dt=1e-2, t_final=0.1)
STEPS = 10


def counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def run(scn, sys):
    return rollout(
        sys, scn.filter_law, scn.disturbance, scn.x0, CFG, scn.bar, layer_h=scn.layer_h, geometry=scn.geometry
    )


def test_pendulum_evaluates_k_and_grad_h_four_times_per_step(monkeypatch):
    counts = {"half_sontag": 0, "value_and_grad": 0}
    counting(monkeypatch, synthesis, "half_sontag", counts)
    counting(monkeypatch, CompositeBarrier, "value_and_grad", counts)  # bound into the spec at build time
    scn = build_pendulum()
    counts.update(half_sontag=0, value_and_grad=0)
    run(scn, scn.sys)
    # the row at t = 0 is step 1's first stage; each step adds three stages and its end row
    assert counts == {"half_sontag": 4 * STEPS + 1, "value_and_grad": 4 * STEPS + 1}


def test_quadrotor_evaluates_k_v_drift_and_grad_h_four_times_per_step(monkeypatch):
    counts = {"half_sontag": 0, "pinv_apply": 0, "value_and_grad": 0}
    counting(monkeypatch, synthesis, "half_sontag", counts)
    counting(monkeypatch, drd, "pinv_apply", counts)
    counting(monkeypatch, DrdBarrier, "value_and_grad", counts)
    scn = build_quadrotor()
    counts.update(half_sontag=0, pinv_apply=0, value_and_grad=0)
    run(scn, scn.psys)
    assert counts == {"half_sontag": 4 * STEPS + 1, "pinv_apply": 4 * STEPS + 1, "value_and_grad": 4 * STEPS + 1}


@pytest.mark.parametrize("build, sys_attr", [(build_pendulum, "sys"), (build_quadrotor, "psys")])
def test_recorded_inputs_replay_bit_for_bit(build, sys_attr):
    scn = build()
    traj, _ = run(scn, getattr(scn, sys_attr))
    for t, x, u, theta in zip(traj.times, traj.states, traj.inputs, traj.omegas):
        res = scn.filter_law.result(x, t)
        assert np.array_equal(res.u, u)
        assert res.theta_x == theta


@pytest.mark.parametrize("build, sys_attr", [(build_pendulum, "sys"), (build_quadrotor, "psys")])
def test_rollout_matches_generic_rk4_reference(build, sys_attr):
    scn = build()
    sys = getattr(scn, sys_attr)
    traj, _ = run(scn, sys)
    field = close_loop(sys, scn.filter_law, scn.disturbance)
    x = scn.x0.copy()
    ref = [x]
    for k in range(STEPS):
        x = rk4_step(field, k * CFG.dt, x, CFG.dt)
        ref.append(x)
    assert np.max(np.abs(traj.states - np.array(ref))) <= 1e-12
    assert np.max(np.abs(traj.h_values - [scn.bar.h(x) for x in ref])) <= 1e-12


def test_disturbance_bound_checked_at_mid_step_stage_times():
    # legal at every step start t = k dt, over the bound only at t = dt/2
    sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.eye(1))
    spike = DisturbanceSignal(value=lambda t: np.array([2.0 if abs(t - 0.05) < 1e-12 else 0.0]), sup_norm=1.0)
    law = FeedbackLaw(control=lambda x: np.zeros(1))
    with pytest.raises(SimulationAbort) as exc:
        rollout(sys, law, spike, np.zeros(1), RolloutConfig(dt=0.1, t_final=1.0), build_pendulum().h1)
    assert exc.value.step == 0
    assert exc.value.t == pytest.approx(0.05)


class TestFilterNeverReturnsNonFinite:
    def test_underflowing_input_direction_is_degenerate(self):
        # ||L_g h||^2 = 1e-320 is subnormal: the filter must not divide by it
        args = (0.0, np.array([1e-160]), np.zeros(1), -1.0, np.zeros(1), 1.0, 1.0, 1.0)
        with pytest.raises(InfeasiblePointError):
            solve_decay_filter(*args)
        res = solve_decay_filter(2.0, *args[1:])  # upsilon = 1 > 0: feasible, filter idle
        assert np.array_equal(res.u, [0.0]) and not res.constraint_active

    def test_nan_lie_derivative_raises(self):
        with pytest.raises(NonFiniteError) as exc:
            solve_decay_filter(math.nan, np.array([1.0]), np.zeros(1), 1.0, np.zeros(1), 1.0, 1.0, 1.0)
        assert isinstance(exc.value, OdcbfError)

    def test_overflowing_input_raises(self):
        with pytest.raises(NonFiniteError):
            solve_decay_filter(-1e300, np.array([1e-150]), np.zeros(1), -1.0, np.zeros(1), 1.0, 1.0, 1.0)

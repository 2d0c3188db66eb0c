"""One evaluation per state: the filter, the closed-loop field and the recorder
share it, and sharing changes no number."""

import math
from collections import Counter

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf import cli, drd, lower, synthesis
from odcbf.barrier import lie_kernel
from odcbf.backstepping import CompositeBarrier
from odcbf.drd import DrdBarrier
from odcbf.dynamics import DisturbanceSignal, call_law
from odcbf.errors import InfeasiblePointError, NonFiniteError, OdcbfError, SimulationAbort
from odcbf.odfilter import solve_decay_filter
from odcbf.scenarios import PendulumConfig, build_pendulum, build_quadrotor
from odcbf.sim import RolloutConfig, rk4_step, rollout
from odcbf.synthesis import SmoothVirtualController
from tests.test_dynamics import close_loop
from tests.test_sim import small_scenario

CFG = RolloutConfig(dt=1e-2, t_final=0.1)
STEPS = 10


def counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def counting_kernels(monkeypatch):
    """Calls of every lowered pass (``lower.Lowered``), per instance."""
    calls = Counter()
    original = lower.Lowered.__call__

    def counted(self, x):
        calls[self] += 1
        return original(self, x)

    monkeypatch.setattr(lower.Lowered, "__call__", counted)
    return calls


def test_pendulum_evaluates_k_and_grad_h_four_times_per_step(monkeypatch):
    # k and grad h run inside the state kernel; their own passes run only for reference passes and traces
    calls = counting_kernels(monkeypatch)
    counts = {"with_jacobian": 0, "value_and_grad": 0}
    counting(monkeypatch, SmoothVirtualController, "with_jacobian", counts)
    counting(monkeypatch, CompositeBarrier, "value_and_grad", counts)  # bound into the spec at build time
    scn = build_pendulum()
    counts.update(with_jacobian=0, value_and_grad=0)
    rollout(scn, CFG)
    kernel = lie_kernel(scn.sys, scn.bar)
    # the row at t = 0 is step 1's first stage; each step adds three stages and its end row
    assert calls[kernel] == 4 * STEPS + 1
    # per branch combination met: the state kernel's reference pass and its trace each read the barrier's
    # kernel, which runs k's Dual pass for its own reference pass and trace, and on the state kernel's trace
    traced = len(kernel.sources)
    assert traced >= 1 and len(scn.composite.kernel.sources) == traced
    assert calls[scn.composite.kernel] == 2 * traced
    assert counts == {"with_jacobian": 3 * traced, "value_and_grad": 2 * traced}


def test_quadrotor_evaluates_k_v_drift_and_grad_h_four_times_per_step(monkeypatch):
    calls = counting_kernels(monkeypatch)
    counts = {"with_jacobian": 0, "pinv_apply": 0, "value_and_grad": 0}
    counting(monkeypatch, SmoothVirtualController, "with_jacobian", counts)
    counting(monkeypatch, drd, "pinv_apply", counts)
    counting(monkeypatch, DrdBarrier, "value_and_grad", counts)
    scn = build_quadrotor()
    counts.update(with_jacobian=0, pinv_apply=0, value_and_grad=0)
    rollout(scn, CFG)
    kernel = lie_kernel(scn.sys, scn.bar)
    assert calls[kernel] == 4 * STEPS + 1
    traced = len(kernel.sources)
    assert traced >= 1 and len(scn.dbar.kernel.sources) == traced
    assert calls[scn.dbar.kernel] == 2 * traced
    assert counts == {"with_jacobian": 3 * traced, "pinv_apply": 2 * traced, "value_and_grad": 2 * traced}


def test_pendulum_runs_half_sontag_and_duals_only_to_trace(monkeypatch):
    # each branch combination costs k's Dual pass in the barrier kernel's reference pass and trace, and in
    # the state kernel's trace, which runs the barrier pass on traced values; every other step runs lowered code
    counts = {"half_sontag": 0, "dual": 0}
    counting(monkeypatch, synthesis, "half_sontag", counts)
    init = ad.Dual.__init__

    def counted(self, val, dot):
        counts["dual"] += 1
        init(self, val, dot)

    monkeypatch.setattr(ad.Dual, "__init__", counted)
    seen = []
    for steps in (100, 200):
        scn = build_pendulum()
        counts.update(half_sontag=0, dual=0)
        rollout(scn, RolloutConfig(dt=2e-2, t_final=steps * 2e-2))
        assert len(scn.composite.kernel.sources) == 2  # both branches of half-Sontag met
        assert len(lie_kernel(scn.sys, scn.bar).sources) == 2
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["half_sontag"] == 6  # three per branch


def test_finite_domain_tests_each_state_once(monkeypatch):
    # the filter's domain test reads the h of the stage's own evaluation, and the exit row that evaluation's h
    # and h_top: once the kernels are traced, no h, no barrier pass and no forward-AD pass runs outside them
    counts = {"h": 0, "value_and_grad": 0, "jacobian": 0}
    counting(monkeypatch, CompositeBarrier, "h", counts)
    counting(monkeypatch, CompositeBarrier, "value_and_grad", counts)
    counting(monkeypatch, ad, "jacobian", counts)
    runs = ((PendulumConfig(domain_b=10.0), CFG), (PendulumConfig(epsilon=10.0, domain_b=0.5), RolloutConfig(1e-2, 10.0)))
    for scn_cfg, cfg in runs:
        scn = build_pendulum(scn_cfg)
        rollout(scn, cfg)  # the first rollout traces the kernels
        counts.update(h=0, value_and_grad=0, jacobian=0)
        traj = rollout(scn, cfg)[0]
        assert counts == {"h": 0, "value_and_grad": 0, "jacobian": 0}
    assert traj.truncated  # the second run leaves the domain


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_verify_runs_forward_ad_only_to_trace(monkeypatch, tmp_path, name):
    # a seed-0 verify evaluates h thousands of times; each forward-AD pass (k, and r for the quadrotor) runs
    # once in each traced variant of the barrier's kernel and of the state kernel, and in the barrier
    # kernel's reference passes, one per variant
    counts = {"jacobian": 0, "with_jacobian": 0}
    counting(monkeypatch, ad, "jacobian", counts)
    counting(monkeypatch, SmoothVirtualController, "with_jacobian", counts)
    built = []
    build = cli._build
    monkeypatch.setattr(cli, "_build", lambda args, **changes: built.append(build(args, **changes)) or built[-1])
    assert cli.main(["verify", "--scenario", name, "--seed", "0", "--out", str(tmp_path)]) == 0
    scn = built[0]
    barrier = scn.composite if name == "pendulum" else scn.dbar
    passes = 1 if barrier.ref_map is None else 2
    traced = len(barrier.kernel.sources)
    state = sum(len(kernel.sources) for _, kernel in scn.bar.kernels.values())
    assert traced == state == 2  # both branches of half-Sontag, in both kernels
    assert counts == {"jacobian": passes * (2 * traced + state), "with_jacobian": 2 * traced + state}


# the lowered passes build no Dual: what remains are the reference passes and traces of first use
@pytest.mark.parametrize("build, per_step", [(build_pendulum, 150), (build_quadrotor, 1)])
def test_dual_constructions_per_step(monkeypatch, build, per_step):
    count = [0]
    init = ad.Dual.__init__

    def counted(self, val, dot):
        count[0] += 1
        init(self, val, dot)

    monkeypatch.setattr(ad.Dual, "__init__", counted)
    scn = build()
    count[0] = 0
    rollout(scn, RolloutConfig(dt=1e-2, t_final=2.0))
    assert count[0] <= per_step * 200  # 200 steps


@pytest.mark.parametrize("build", [build_pendulum, build_quadrotor])
def test_value_only_h_and_reference_equal_the_barrier_pass(build):
    # h, reference and value_and_grad all read the barrier's kernel
    scn = build()
    barrier = scn.composite if build is build_pendulum else scn.dbar
    for x in np.random.default_rng(5).uniform(*scn.box, size=(1000, scn.x0.size)):
        be = barrier.value_and_grad(x)
        assert barrier.h(x) == be.h
        assert np.array_equal(barrier.reference(x), be.ref)


@pytest.mark.parametrize("build, top, n_top", [(build_pendulum, "h1", 1), (build_quadrotor, "h_z", 4)])
def test_rows_take_h_layer_from_their_own_barrier_pass(monkeypatch, build, top, n_top):
    # the row's h_layer is the barrier pass's h_top: once the kernels are traced, no row calls the top barrier
    scn = build()
    h_top = getattr(scn, top).h
    rollout(scn, CFG)
    calls = []

    def counted(x):
        calls.append(x)
        return h_top(x)

    monkeypatch.setitem(vars(getattr(scn, top)), "h", counted)  # the spec is frozen
    traj, _ = rollout(scn, CFG)
    assert len(calls) == 0
    assert np.array_equal(traj.layer_h_values, [h_top(x[:n_top]) for x in traj.states])


@pytest.mark.parametrize("build", [build_pendulum, build_quadrotor])
def test_recorded_inputs_replay_bit_for_bit(build):
    scn = build()
    traj, _ = rollout(scn, CFG)
    for t, x, u, theta in zip(traj.times, traj.states, traj.inputs, traj.omegas):
        res = scn.filter_law.evaluate(x, t).result
        assert np.array_equal(res.u, u)
        assert res.theta_x == theta


@pytest.mark.parametrize("build, sys_attr", [(build_pendulum, "sys"), (build_quadrotor, "sys")])
def test_rollout_matches_generic_rk4_reference(build, sys_attr):
    scn = build()
    sys = getattr(scn, sys_attr)
    traj, _ = rollout(scn, CFG)
    field = close_loop(sys, scn.filter_law.control, scn.disturbance)
    x = scn.x0.copy()
    ref = [x]
    for k in range(STEPS):
        x = rk4_step(field, k * CFG.dt, x, CFG.dt)
        ref.append(x)
    assert np.max(np.abs(traj.states - np.array(ref))) <= 1e-12
    assert np.max(np.abs(traj.h_values - [scn.bar.h(x) for x in ref])) <= 1e-12


@pytest.mark.parametrize("build", [build_pendulum, build_quadrotor])
def test_nominal_without_a_barrier_pass_is_the_filters_nominal(build):
    # the value-only call (no barrier pass) gives bit for bit the u_nom that the filter's one pass gives
    scn = build()
    rng = np.random.default_rng(3)
    for x in rng.uniform(*scn.box, size=(500, scn.x0.size)):
        t = float(rng.uniform(0.0, 10.0))
        assert np.array_equal(call_law(scn.filter_law.nominal, x, t), scn.filter_law.evaluate(x, t).u_nom)


def test_disturbance_bound_checked_at_mid_step_stage_times():
    # legal at every step start t = k dt, over the bound only at t = dt/2
    spike = DisturbanceSignal(value=lambda t: np.array([2.0 if abs(t - 0.05) < 1e-12 else 0.0]), sup_norm=1.0)
    with pytest.raises(SimulationAbort) as exc:
        rollout(small_scenario(build_pendulum().h1, spike, lw=1.0), RolloutConfig(dt=0.1, t_final=1.0))
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

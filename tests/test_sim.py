import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from odcbf.barrier import BarrierSpec, linear_class_k
from odcbf.dynamics import DisturbanceSignal, DisturbedSystem, call_law
from odcbf.errors import IntegrationError, NonFiniteError, ParameterError, SimulationAbort
from odcbf.odfilter import OdIssfController
from odcbf.scenarios import PendulumConfig, Scenario, build_pendulum, make_disturbance, zero_disturbance
from odcbf.sim import RolloutConfig, rk4_step, rollout, sweep
from tests.test_dynamics import close_loop


class TestRk4Step:
    def test_zero_field_fixed_point(self):
        x = np.array([1.0, -2.0])
        assert np.allclose(rk4_step(lambda t, y: np.zeros(2), 0.0, x, 0.1), x)

    def test_exponential_decay_classic_value(self):
        # xdot = -x, x0 = 1, dt = 0.1: the classic single-step value
        x1 = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
        assert x1[0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(x1[0] - math.exp(-0.1)) < 1e-7

    def test_harmonic_oscillator_energy_drift(self):
        # energy error per step is O(dt^5)
        field = lambda t, y: np.array([y[1], -y[0]])
        for dt in (0.1, 0.05):
            x = np.array([1.0, 0.0])
            x_next = rk4_step(field, 0.0, x, dt)
            drift = abs(float(x_next @ x_next) - 1.0)
            assert drift < 2.0 * dt**5

    def test_nonfinite_derivative_raises(self):
        with pytest.raises(IntegrationError):
            rk4_step(lambda t, y: np.array([np.inf]), 0.0, np.array([1.0]), 0.1)

    def test_bad_dt_rejected(self):
        with pytest.raises(ParameterError):
            rk4_step(lambda t, y: y, 0.0, np.array([1.0]), 0.0)


def tiny_barrier(n=1):
    return BarrierSpec(
        h=lambda x: 1.0 - float(x[0] ** 2),
        grad_h=lambda x: np.concatenate([[-2.0 * x[0]], np.zeros(n - 1)]),
        alpha=linear_class_k(),
        epsilon=1.0,
        theta_d=1.0,
        p_weight=1.0,
        n=n,
    )


def small_scenario(bar, disturbance, nominal=lambda x, t, be: np.zeros(1), lw=0.0):
    """xdot = u + lw d on the line, from x = 0, filtered on ``bar``."""
    lw_mat = np.array([[lw]])
    sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: lw_mat)
    law = OdIssfController(sys, bar, nominal)
    return Scenario("line", None, law, np.zeros(1), disturbance, ((-1.0,), (1.0,)), ())


class TestRollout:
    def test_zero_disturbance_filtered_pendulum_stays_safe(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=2e-3, t_final=4.0)
        traj, metrics = rollout(dataclasses.replace(scn, disturbance=zero_disturbance(1)), cfg)
        assert metrics.min_h >= -1e-6
        assert metrics.max_violation <= 1e-6
        assert metrics.theta_floor_ok

    def test_theta_recorded_and_floored(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=1.0)
        traj, _ = rollout(scn, cfg)
        assert np.all(traj.omegas >= scn.bar.theta_d - 1e-12)

    def test_times_strictly_increasing_with_stride(self):
        scn = build_pendulum()
        # every step is recorded: the stride is dt
        cfg = RolloutConfig(dt=1e-3, t_final=0.5)
        traj, _ = rollout(scn, cfg)
        diffs = np.diff(traj.times)
        assert len(traj.times) == 501 and np.all(diffs > 0)
        assert np.allclose(diffs, 1e-3)
        cols = (traj.states, traj.inputs, traj.omegas, traj.disturbances, traj.h_values, traj.layer_h_values)
        assert all(len(c) == len(traj.times) for c in cols)

    def test_disturbance_bound_enforced(self):
        lying = DisturbanceSignal(value=lambda t: np.array([2.0]), sup_norm=1.0)
        with pytest.raises(SimulationAbort):
            rollout(small_scenario(tiny_barrier(), lying, lw=1.0), RolloutConfig(dt=0.1, t_final=1.0))

    def test_bound_checked_every_step_not_just_recorded(self):
        # signal legal until t = 0.25, violating after: the first stage past it aborts
        spiky = DisturbanceSignal(value=lambda t: np.array([0.0 if t < 0.25 else 2.0]), sup_norm=1.0)
        with pytest.raises(SimulationAbort) as exc:
            rollout(small_scenario(tiny_barrier(), spiky, lw=1.0), RolloutConfig(dt=0.1, t_final=10.0))
        assert exc.value.t < 0.5
        # the rows recorded before the abort come with it, truncated
        traj = exc.value.trajectory
        assert traj.truncated and traj.exit_reason == str(exc.value)
        assert np.allclose(traj.times, [0.0, 0.1, 0.2]) and traj.states.shape == (3, 1)

    def test_controller_infeasibility_aborts_with_step_index(self):
        # h = -x^2 - 1: at x = 0 the gradient vanishes, alpha(h) < 0, and the
        # barrier condition has no feasible (u, omega); the filter must abort
        bad_bar = BarrierSpec(
            h=lambda x: -float(x[0] ** 2) - 1.0,
            grad_h=lambda x: np.array([-2.0 * x[0]]),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
        )
        with pytest.raises(SimulationAbort) as exc:
            rollout(small_scenario(bad_bar, zero_disturbance(1)), RolloutConfig(dt=0.1, t_final=1.0))
        assert exc.value.step == 0
        assert "infeasible" in str(exc.value)
        # aborted at the first state: no row was recorded
        assert exc.value.trajectory.times.size == 0 and exc.value.trajectory.states.shape == (0, 1)

    def test_stage_error_aborts_with_step_and_time_chained_to_its_cause(self):
        # the nominal input turns NaN after t = 0.25; the filter raises NonFiniteError on it
        nominal = lambda x, t, be: np.array([math.nan if t > 0.25 else 0.0])
        with pytest.raises(SimulationAbort) as exc:
            rollout(small_scenario(tiny_barrier(), zero_disturbance(1), nominal), RolloutConfig(dt=0.1, t_final=1.0))
        # step 2 spans [0.2, 0.3]; its last stage, at t = 0.3, is the first past 0.25
        assert exc.value.step == 2 and exc.value.t == pytest.approx(0.3)
        assert isinstance(exc.value.__cause__, NonFiniteError)
        assert "NonFiniteError" in str(exc.value)

    def test_filter_law_leaving_domain_truncates(self):
        # the filter rejects states outside its domain; the rollout must stop there, not raise
        scn = build_pendulum(PendulumConfig(epsilon=10.0, domain_b=0.5))
        traj, metrics = rollout(scn, RolloutConfig(dt=1e-2, t_final=10.0))
        assert traj.truncated
        assert "left barrier domain" in traj.exit_reason
        assert traj.times[-1] < 10.0 and np.all(np.diff(traj.times) > 0)
        assert not scn.bar.in_domain(traj.states[-1])
        assert np.isnan(traj.inputs[-1]).all() and math.isnan(traj.omegas[-1])
        assert traj.h_values[-1] == scn.bar.h(traj.states[-1]) <= -0.5
        assert traj.layer_h_values[-1] == scn.h1.h(traj.states[-1][:1])
        assert metrics.min_h == traj.h_values[-1]
        assert np.isfinite(traj.inputs[:-1]).all()

    def test_step_halving_convergence_order(self):
        # smooth closed loop (nominal tracking law, no filter): RK4 order 4
        scn = build_pendulum()
        field = close_loop(scn.sys, lambda x, t: call_law(scn.filter_law.nominal, x, t), scn.disturbance)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            x = scn.x0
            for k in range(int(round(2.0 / dt))):
                x = rk4_step(field, k * dt, x, dt)
            finals[dt] = x
        e_coarse = np.linalg.norm(finals[0.02] - finals[0.01])
        e_fine = np.linalg.norm(finals[0.01] - finals[0.005])
        assert 8.0 <= e_coarse / e_fine <= 32.0


class TestExports:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.2)
        traj, _ = rollout(scn, cfg)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_1", "x_2", "u_1", "d_1", "h", "h_layer", "theta"]
        assert len(rows) - 1 == len(traj.times)
        # bit-exact roundtrip via repr
        assert float(rows[1][1]) == traj.states[0, 0]
        # every field is the repr of its float, in column order
        for i, row in enumerate(rows[1:]):
            values = [traj.times[i], *traj.states[i], *traj.inputs[i], *traj.disturbances[i],
                      traj.h_values[i], traj.layer_h_values[i], traj.omegas[i]]
            assert row == [repr(float(v)) for v in values]

    def test_json_export(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.1)
        traj, _ = rollout(scn, cfg)
        path = tmp_path / "traj.json"
        traj.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload) >= {"times", "states", "inputs", "omegas", "disturbances", "h", "h_layer"}

    def test_csv_bit_exact_across_runs(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.2)
        out = []
        for name in ("a.csv", "b.csv"):
            traj, _ = rollout(scn, cfg)
            p = tmp_path / name
            traj.to_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]


class TestMetrics:
    def test_violation_consistency(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.5)
        traj, metrics = rollout(scn, cfg)
        assert (metrics.max_violation == 0.0) == (metrics.min_h >= 0.0)

    def test_issf_bound_uses_gamma(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.5)
        traj, metrics = rollout(scn, cfg)
        assert metrics.gamma_delta == pytest.approx(scn.cfg.epsilon * 1.0 / (2 * scn.cfg.theta_d))
        assert metrics.issf_bound_satisfied

    def test_issf_bound_holds_at_dt_and_half_dt(self):
        scn = build_pendulum()
        for dt in (4e-3, 2e-3):
            cfg = RolloutConfig(dt=dt, t_final=3.0)
            _, metrics = rollout(scn, cfg)
            assert metrics.min_h + metrics.gamma_delta >= -1e-6

    def test_admissible_delta_gates_certification(self):
        # with a declared finite domain bound, the admissible threshold splits
        # deltas into certifiable (S_delta invariance observed) and
        # margin-undefined (certification unavailable)
        from odcbf.barrier import admissible_delta, gamma_margin
        from odcbf.errors import MarginUndefinedError

        scn = build_pendulum(PendulumConfig(domain_b=1.0))
        delta_star = admissible_delta(scn.bar)
        assert delta_star == pytest.approx(np.sqrt(2.0))

        below = 1.3
        gamma = gamma_margin(scn.bar, below)
        assert gamma < scn.bar.domain_b
        cell = dataclasses.replace(scn, disturbance=make_disturbance("sin", p=1, delta=below))
        _, metrics = rollout(cell, RolloutConfig(dt=2e-3, t_final=3.0))
        assert metrics.min_h + gamma >= -1e-6

        above = 1.5
        capped = BarrierSpec(
            h=scn.bar.h, grad_h=scn.bar.grad_h,
            alpha=linear_class_k(1.0, b=scn.bar.domain_b),
            epsilon=scn.bar.epsilon, theta_d=scn.bar.theta_d, p_weight=scn.bar.p_weight, n=2,
            domain_b=scn.bar.domain_b,  # alpha's domain covers D, as BarrierSpec requires
        )
        with pytest.raises(MarginUndefinedError):
            gamma_margin(capped, above)


class TestSweep:
    def test_error_cells_captured(self):
        scn = build_pendulum()
        bad = dataclasses.replace(scn, x0=np.array([0.0, 0.0, 0.0]))
        cfg = RolloutConfig(dt=5e-3, t_final=0.1)
        table = sweep({"ok": scn, "broken": bad}, cfg)
        assert table["ok"] == rollout(scn, cfg)[1].to_dict()
        assert list(table["broken"]) == ["error"]

    def test_zero_disturbance_cells_deterministic(self):
        scn = build_pendulum()
        cell = dataclasses.replace(scn, disturbance=zero_disturbance(1))
        cfg = RolloutConfig(dt=5e-3, t_final=0.3)
        t1 = sweep({"a": cell, "b": cell}, cfg)
        _, direct = rollout(cell, cfg)
        assert t1["a"]["min_h"] == t1["b"]["min_h"] == direct.min_h

    def test_programming_error_in_a_cell_propagates(self):
        scn = build_pendulum()

        class BrokenLaw:
            sys, bar = scn.filter_law.sys, scn.filter_law.bar

            def evaluate(self, x, t):
                raise TypeError("planted")

        broken = dataclasses.replace(scn, filter_law=BrokenLaw())
        with pytest.raises(TypeError, match="planted"):
            sweep({"ok": scn, "broken": broken}, RolloutConfig(dt=5e-3, t_final=0.1))

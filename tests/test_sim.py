import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from odcbf.barrier import BarrierSpec, SafeSetGeometry, linear_class_k
from odcbf.dynamics import DisturbanceSignal, DisturbedSystem, FeedbackLaw
from odcbf.errors import IntegrationError, NonFiniteError, ParameterError, SimulationAbort
from odcbf.scenarios import PendulumConfig, build_pendulum, zero_disturbance
from odcbf.sim import (
    RolloutConfig,
    SafetyMetrics,
    compute_metrics,
    rk4_step,
    rollout,
    sweep,
)


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


class TestRollout:
    def test_zero_disturbance_filtered_pendulum_stays_safe(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=2e-3, t_final=4.0)
        traj, metrics = rollout(
            scn.sys, scn.filter_law, zero_disturbance(1), scn.x0, cfg, scn.bar,
            layer_h=scn.layer_h, geometry=scn.geometry,
        )
        assert metrics.min_h >= -1e-6
        assert metrics.max_violation <= 1e-6
        assert metrics.theta_floor_ok

    def test_theta_recorded_and_floored(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=1.0)
        traj, _ = rollout(
            scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar,
            layer_h=scn.layer_h, geometry=scn.geometry,
        )
        assert np.all(traj.omegas >= scn.bar.theta_d - 1e-12)

    def test_times_strictly_increasing_with_stride(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=1e-3, t_final=0.5, record_every=10)
        traj, _ = rollout(
            scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar,
            layer_h=scn.layer_h,
        )
        diffs = np.diff(traj.times)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, 0.01)
        cols = (traj.states, traj.inputs, traj.omegas, traj.disturbances, traj.h_values, traj.layer_h_values)
        assert all(len(c) == len(traj.times) for c in cols)

    def test_disturbance_bound_enforced(self):
        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.eye(1))
        lying = DisturbanceSignal(value=lambda t: np.array([2.0]), sup_norm=1.0)
        law = FeedbackLaw(control=lambda x: np.zeros(1))
        with pytest.raises(SimulationAbort):
            rollout(sys, law, lying, np.zeros(1), RolloutConfig(dt=0.1, t_final=1.0), tiny_barrier())

    def test_bound_checked_every_step_not_just_recorded(self):
        # signal legal until t = 0.25, violating after; stride skips most records
        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.eye(1))
        spiky = DisturbanceSignal(value=lambda t: np.array([0.0 if t < 0.25 else 2.0]), sup_norm=1.0)
        law = FeedbackLaw(control=lambda x: np.zeros(1))
        with pytest.raises(SimulationAbort) as exc:
            rollout(sys, law, spiky, np.zeros(1), RolloutConfig(dt=0.1, t_final=10.0, record_every=1000), tiny_barrier())
        assert exc.value.t < 0.5

    def test_controller_infeasibility_aborts_with_step_index(self):
        # h = -x^2 - 1: at x = 0 the gradient vanishes, alpha(h) < 0, and the
        # barrier condition has no feasible (u, omega); the filter must abort
        from odcbf.odfilter import OdIssfController

        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)))
        bad_bar = BarrierSpec(
            h=lambda x: -float(x[0] ** 2) - 1.0,
            grad_h=lambda x: np.array([-2.0 * x[0]]),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
        )
        law = OdIssfController(sys, bad_bar, FeedbackLaw(control=lambda x: np.zeros(1)))
        with pytest.raises(SimulationAbort) as exc:
            rollout(sys, law, zero_disturbance(1), np.zeros(1), RolloutConfig(dt=0.1, t_final=1.0), bad_bar)
        assert exc.value.step == 0
        assert "infeasible" in str(exc.value)

    def test_stage_error_aborts_with_step_and_time_chained_to_its_cause(self):
        # the nominal input turns NaN after t = 0.25; the filter raises NonFiniteError on it
        from odcbf.odfilter import OdIssfController

        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)))
        bar = tiny_barrier()
        nominal = FeedbackLaw(control=lambda x, t: np.array([math.nan if t > 0.25 else 0.0]), time_varying=True)
        law = OdIssfController(sys, bar, nominal)
        with pytest.raises(SimulationAbort) as exc:
            rollout(sys, law, zero_disturbance(1), np.zeros(1), RolloutConfig(dt=0.1, t_final=1.0), bar)
        # step 2 spans [0.2, 0.3]; its last stage, at t = 0.3, is the first past 0.25
        assert exc.value.step == 2 and exc.value.t == pytest.approx(0.3)
        assert isinstance(exc.value.__cause__, NonFiniteError)
        assert "NonFiniteError" in str(exc.value)

    def test_exit_from_domain_truncates_with_flag(self):
        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)))
        law = FeedbackLaw(control=lambda x: np.ones(1))  # drives x upward
        bar = BarrierSpec(h=lambda x: -float(x[0]), grad_h=lambda x: np.array([-1.0]), alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1)
        geom = SafeSetGeometry(h=bar.h, b=1.0)  # domain is x < 1
        traj, _ = rollout(sys, law, zero_disturbance(1), np.array([0.5]), RolloutConfig(dt=0.01, t_final=2.0), bar, geometry=geom)
        assert traj.truncated
        assert "left barrier domain" in traj.exit_reason
        assert traj.times[-1] < 2.0

    def test_filter_law_leaving_domain_truncates(self):
        # the filter rejects states outside its domain; the rollout must stop there, not raise
        scn = build_pendulum(PendulumConfig(epsilon=10.0, domain_b=0.5))
        traj, metrics = rollout(
            scn.sys, scn.filter_law, scn.disturbance, scn.x0, RolloutConfig(dt=1e-2, t_final=10.0), scn.bar,
            layer_h=scn.layer_h, geometry=scn.geometry,
        )
        assert traj.truncated
        assert "left barrier domain" in traj.exit_reason
        assert traj.times[-1] < 10.0 and np.all(np.diff(traj.times) > 0)
        assert not scn.geometry.in_domain(traj.states[-1])
        assert np.isnan(traj.inputs[-1]).all() and math.isnan(traj.omegas[-1])
        assert traj.h_values[-1] == scn.bar.h(traj.states[-1]) <= -0.5
        assert metrics.min_h == traj.h_values[-1]
        assert np.isfinite(traj.inputs[:-1]).all()

    def test_step_halving_convergence_order(self):
        # smooth closed loop (nominal tracking law, no filter): RK4 order 4
        scn = build_pendulum()
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            cfg = RolloutConfig(dt=dt, t_final=2.0)
            traj, _ = rollout(scn.sys, scn.filter_law.nominal, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
            finals[dt] = traj.states[-1]
        e_coarse = np.linalg.norm(finals[0.02] - finals[0.01])
        e_fine = np.linalg.norm(finals[0.01] - finals[0.005])
        assert 8.0 <= e_coarse / e_fine <= 32.0


class TestExports:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.2)
        traj, _ = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x_1", "x_2", "u_1", "d_1", "h", "h_layer", "theta"]
        assert len(rows) - 1 == len(traj.times)
        # bit-exact roundtrip via repr
        assert float(rows[1][1]) == traj.states[0, 0]

    def test_json_export(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.1)
        traj, _ = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
        path = tmp_path / "traj.json"
        traj.to_json(path)
        payload = json.loads(path.read_text())
        assert set(payload) >= {"times", "states", "inputs", "omegas", "disturbances", "h", "h_layer"}

    def test_csv_bit_exact_across_runs(self, tmp_path):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.2)
        out = []
        for name in ("a.csv", "b.csv"):
            traj, _ = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
            p = tmp_path / name
            traj.to_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]


class TestMetrics:
    def test_violation_consistency(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.5)
        traj, metrics = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
        assert (metrics.max_violation == 0.0) == (metrics.min_h >= 0.0)

    def test_issf_bound_uses_gamma(self):
        scn = build_pendulum()
        cfg = RolloutConfig(dt=5e-3, t_final=0.5)
        traj, metrics = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
        assert metrics.gamma_delta == pytest.approx(scn.cfg.epsilon * 1.0 / (2 * scn.cfg.theta_d))
        assert metrics.issf_bound_satisfied

    def test_issf_bound_holds_at_dt_and_half_dt(self):
        scn = build_pendulum()
        for dt in (4e-3, 2e-3):
            cfg = RolloutConfig(dt=dt, t_final=3.0)
            _, metrics = rollout(scn.sys, scn.filter_law, scn.disturbance, scn.x0, cfg, scn.bar, layer_h=scn.layer_h)
            assert metrics.min_h + metrics.gamma_delta >= -1e-6

    def test_admissible_delta_gates_certification(self):
        # with a declared finite domain bound, the admissible threshold splits
        # deltas into certifiable (S_delta invariance observed) and
        # margin-undefined (certification unavailable)
        from odcbf.barrier import admissible_delta, gamma_margin
        from odcbf.errors import MarginUndefinedError
        from odcbf.scenarios import make_disturbance

        scn = build_pendulum()
        geom = SafeSetGeometry(h=scn.bar.h, b=1.0)
        delta_star = admissible_delta(scn.bar, geom)
        assert delta_star == pytest.approx(np.sqrt(2.0))

        below = 1.3
        gamma = gamma_margin(scn.bar, below)
        assert gamma < geom.b
        dist = make_disturbance("sin", p=1, delta=below)
        _, metrics = rollout(scn.sys, scn.filter_law, dist, scn.x0, RolloutConfig(dt=2e-3, t_final=3.0), scn.bar, layer_h=scn.layer_h)
        assert metrics.min_h + gamma >= -1e-6

        above = 1.5
        capped = BarrierSpec(
            h=scn.bar.h, grad_h=scn.bar.grad_h,
            alpha=linear_class_k(1.0, b=geom.b, c=np.inf),
            epsilon=scn.bar.epsilon, theta_d=scn.bar.theta_d, p_weight=scn.bar.p_weight, n=2,
        )
        with pytest.raises(MarginUndefinedError):
            gamma_margin(capped, above)


class TestSweep:
    def test_error_cells_captured(self):
        scn = build_pendulum()
        bad = dataclasses.replace(scn, x0=np.array([0.0, 0.0, 0.0]))
        table = sweep({"ok": scn, "broken": bad}, RolloutConfig(dt=5e-3, t_final=0.1))
        assert isinstance(table["ok"], SafetyMetrics)
        assert "error" in table["broken"]

    def test_zero_disturbance_cells_deterministic(self):
        scn = build_pendulum()
        cell = dataclasses.replace(scn, disturbance=zero_disturbance(1))
        cfg = RolloutConfig(dt=5e-3, t_final=0.3)
        t1 = sweep({"a": cell, "b": cell}, cfg)
        _, direct = rollout(scn.sys, scn.filter_law, zero_disturbance(1), scn.x0, cfg, scn.bar,
                            layer_h=scn.layer_h, geometry=scn.geometry)
        assert t1["a"].min_h == t1["b"].min_h == direct.min_h

    def test_programming_error_in_a_cell_propagates(self):
        scn = build_pendulum()

        class BrokenLaw:
            sys, bar = scn.filter_law.sys, scn.filter_law.bar

            def evaluate(self, x, t):
                raise TypeError("planted")

        broken = dataclasses.replace(scn, filter_law=BrokenLaw())
        with pytest.raises(TypeError, match="planted"):
            sweep({"ok": scn, "broken": broken}, RolloutConfig(dt=5e-3, t_final=0.1))

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.backstepping import check_full_row_rank
from odcbf.barrier import gamma_margin
from odcbf.errors import ParameterError
from odcbf.scenarios import (
    PendulumConfig,
    QuadrotorConfig,
    build_pendulum,
    build_quadrotor,
    make_disturbance,
)
from odcbf.sim import RolloutConfig, rollout
from odcbf.verify import check_matched, check_prop1, exterior_sampler


class TestPendulumAssembly:
    def test_h1_matches_declared_constraint(self):
        scn = build_pendulum()
        for q in np.linspace(-2, 2, 41):
            assert scn.h1.h(np.array([q])) == pytest.approx(1.0 - q**2)

    def test_system_matches_two_state_display(self):
        scn = build_pendulum()
        x = np.array([0.3, -1.2])
        f = scn.sys.f(x)
        assert f[0] == pytest.approx(-1.2)
        assert f[1] == pytest.approx(9.81 * np.sin(0.3) + 0.12)
        assert np.allclose(scn.sys.g(x).ravel(), [0.0, 1.0])
        assert np.allclose(scn.sys.w(x).ravel(), [0.5, 1.0])

    def test_default_config_passes_prop1_on_layer1(self):
        scn = build_pendulum()
        sampler = exterior_sampler(scn.h1, scn.cfg.box_lo[:1], scn.cfg.box_hi[:1])
        report = check_prop1(scn.top_sys, scn.h1, sampler, n_samples=500, seed=0)
        assert report.verdict == "pass"

    def test_layer1_matched_full_unmatched(self):
        scn = build_pendulum()
        rng = np.random.default_rng(1)
        assert check_matched(scn.top_sys, rng.uniform(-2, 2, (50, 1)))["matched"]
        assert not check_matched(scn.sys, rng.uniform(-2, 2, (50, 2)))["matched"]

    def test_build_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_pendulum(PendulumConfig(epsilon=0.0))
        with pytest.raises(ParameterError):
            build_pendulum(PendulumConfig(mu=-0.5))

    def test_assembly_deterministic(self):
        a, b = build_pendulum(), build_pendulum()
        rng = np.random.default_rng(3)
        for x in rng.uniform([-1.8, -3.5], [1.8, 3.5], size=(1000, 2)):
            assert a.bar.h(x) == b.bar.h(x)  # bit-level
            assert np.array_equal(a.bar.grad_h(x), b.bar.grad_h(x))

    def test_delta_boundary_is_exact_level_set(self):
        scn = build_pendulum()
        for delta in (0.25, 0.5, 1.0):
            gamma = gamma_margin(scn.bar, delta)
            q, upper, lower = scn.delta_boundary(delta, n_grid=101)
            for arr in (upper, lower):
                for qi, qd in zip(q, arr):
                    assert scn.bar.h(np.array([qi, qd])) == pytest.approx(-gamma, abs=1e-9)

    def test_delta_boundaries_strictly_nested(self):
        scn = build_pendulum()
        deltas = [0.25, 0.5, 1.0]
        gammas = [gamma_margin(scn.bar, d) for d in deltas]
        assert gammas[0] < gammas[1] < gammas[2]
        for d_small, d_big in zip(deltas, deltas[1:]):
            g_big = gamma_margin(scn.bar, d_big)
            q, upper, lower = scn.delta_boundary(d_small, n_grid=51)
            for qi, qd in zip(q, upper):
                # boundary of the smaller set lies strictly inside the bigger one
                assert scn.bar.h(np.array([qi, qd])) + g_big > 0


class TestQuadrotorAssembly:
    def test_top_layer_matches_declared_dynamics(self):
        scn = build_quadrotor()
        z = np.array([0.2, -0.4, 1.1, 0.6])
        f = np.asarray(scn.dsys.f_top(z))
        assert np.allclose(f, [1.1, 0.6, 0.0, -9.81])
        g = np.asarray(scn.dsys.g_top(z))
        assert np.allclose(g, np.vstack([np.zeros((2, 2)), np.eye(2)]))
        # wind enters through the same channels as thrust
        assert np.allclose(np.asarray(scn.dsys.w_top(z)), g)

    def test_psi_full_column_rank_everywhere(self):
        scn = build_quadrotor()
        report = check_full_row_rank(
            lambda eta: np.asarray(ad.value(scn.dsys.psi(eta))), [np.array([t]) for t in np.linspace(-3, 3, 25)]
        )
        assert report.ok
        assert report.min_singular_value == pytest.approx(1.0)  # unit thrust direction

    def test_g_bot_row_rank(self):
        scn = build_quadrotor()
        report = check_full_row_rank(scn.dsys.g_bot, [np.array([t]) for t in np.linspace(-1, 1, 9)])
        assert report.ok

    def test_h_z_is_first_order_reduction_of_wall(self):
        scn = build_quadrotor()
        a1, x_max = scn.cfg.hocbf_gain, scn.cfg.x_max
        z = np.array([1.4, 0.0, 0.7, -0.2])
        assert scn.h_z.h(z) == pytest.approx(a1 * (x_max - 1.4) - 0.7)

    def test_virtual_controller_keeps_thrust_positive(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(5)
        v_min = scn.cfg.v_min_frac * scn.cfg.mass * scn.cfg.gravity
        for z in rng.uniform([-1, -1, -2, -2], [3, 1, 3, 2], size=(500, 4)):
            v = np.asarray(ad.value(scn.k_v.k1(z)))
            assert v[1] > v_min

    def test_assembly_deterministic(self):
        a, b = build_quadrotor(), build_quadrotor()
        rng = np.random.default_rng(7)
        lo = np.array([-1.0, -1.0, -2.0, -2.0, -1.0])
        hi = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        for x in rng.uniform(lo, hi, size=(1000, 5)):
            assert a.bar.h(x) == b.bar.h(x)
            assert np.array_equal(a.bar.grad_h(x), b.bar.grad_h(x))


class TestPendulumClosedLoop:
    def test_min_h_nonincreasing_in_epsilon(self):
        cfg = RolloutConfig(dt=2e-3, t_final=6.0)
        mins = []
        for eps in (0.1, 1.0, 10.0):
            scn = build_pendulum(PendulumConfig(epsilon=eps))
            _, m = rollout(scn, cfg)
            mins.append(m.min_h)
        assert mins[0] >= mins[1] >= mins[2]


class TestQuadrotorClosedLoop:
    def test_unit_eps_keeps_wall_satisfied(self):
        scn = build_quadrotor(QuadrotorConfig(epsilon=1.0))
        cfg = RolloutConfig(dt=2e-3, t_final=6.0)
        traj, m = rollout(scn, cfg)
        assert traj.states[:, 0].max() <= scn.cfg.x_max + 1e-9

    def test_attitude_points_away_from_wall_near_boundary(self):
        scn = build_quadrotor()
        cfg = RolloutConfig(dt=2e-3, t_final=8.0)
        traj, _ = rollout(scn, cfg)
        near = traj.states[:, 0] > scn.cfg.x_max - 0.3
        assert near.any()
        # wind pushes +x; with psi = (-sin, cos) the horizontal thrust is
        # -sin(theta) T, so pointing away from the wall means theta > 0
        assert np.all(traj.states[near, 4] > 0)
        # and the commanded attitude approaches the alignment target there
        gaps = [abs(x[4] - scn.eta_d_of_state(x)) for x in traj.states[near][-50:]]
        assert max(gaps) < 0.1


class TestDisturbanceCatalog:
    def test_sin_parsing(self):
        d = make_disturbance("sin", p=1, delta=0.7)
        assert d.sup_norm == pytest.approx(0.7)
        assert d.at(np.pi / 2)[0] == pytest.approx(0.7)

    def test_zero(self):
        d = make_disturbance("zero", p=3)
        assert d.sup_norm == 0.0
        assert np.allclose(d.at(2.0), np.zeros(3))

    def test_direction(self):
        d = make_disturbance("dir:0.7853981633974483", p=2)  # pi/4
        assert np.allclose(d.at(0.0), [np.sqrt(0.5), np.sqrt(0.5)])
        assert d.sup_norm == pytest.approx(1.0)

    def test_const_vector(self):
        d = make_disturbance("const:0.3,-0.4", p=2)
        assert d.sup_norm == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            make_disturbance("gusts", p=1)
        with pytest.raises(ParameterError):
            make_disturbance("dir:0.0", p=1)


@pytest.mark.parametrize("build", [build_pendulum, build_quadrotor])
def test_rollout_runs_what_verify_samples(build):
    # rollout reads the system and the barrier, with its domain, from the filter law; so does verify's zero-set check
    scn = build()
    law = scn.filter_law
    assert scn.sys is law.sys and scn.bar is law.bar
    (zero_set,) = [check for check in scn.checks if check.kind == "od_issf"]
    assert zero_set.sys is law.sys and zero_set.bar is law.bar


def test_closure_constants_are_built_once_and_read_only():
    pen, quad = build_pendulum(), build_quadrotor()
    x, z, eta = np.array([0.1, 0.2]), np.array([0.5, 0.0, 0.1, 0.0]), np.array([0.05])
    calls = [
        lambda: pen.sfs.layers[0].f(x[:1]),
        lambda: pen.sfs.layers[0].g(x[:1]),
        lambda: pen.sfs.layers[0].w(x[:1]),
        lambda: pen.sfs.layers[1].g(x),
        lambda: pen.sfs.layers[1].w(x),
        lambda: quad.dsys.g_top(z),
        lambda: quad.dsys.w_top(z),
        lambda: quad.dsys.f_bot(eta),
        lambda: quad.dsys.g_bot(eta),
        lambda: quad.dsys.w_bot(eta),
        lambda: quad.h_z.grad_h(z),
    ]
    for call in calls:
        arr = call()
        assert call() is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1.0

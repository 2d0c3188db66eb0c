import dataclasses
import math

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.backstepping import CompositeBarrier, barrier_pass
from odcbf.barrier import BarrierSpec, eval_lie, linear_class_k
from odcbf.drd import (
    DrdBarrier,
    alignment_residual,
    check_attitude_alignment,
    partial_closed_loop,
    pinv_apply,
    quadrotor_eta_d,
)
from odcbf.errors import AlignmentError, NonFiniteError, ParameterError, ShapeError, SimulationAbort, ThrustDomainError
from odcbf.scenarios import QuadrotorConfig, build_quadrotor
from odcbf.sim import RolloutConfig, rollout
from odcbf.synthesis import SmoothVirtualController
from tests.finite_differences import fd_gradient, fd_jacobian


class TestAlignment:
    def test_level_attitude_vertical_command(self):
        scn = build_quadrotor()
        u_z = pinv_apply(scn.dsys.psi(np.array([0.0])), np.array([0.0, 2.0]))
        assert u_z[0] == pytest.approx(2.0)

    def test_rotated_attitude_horizontal_command(self):
        scn = build_quadrotor()
        u_z = pinv_apply(scn.dsys.psi(np.array([np.pi / 2])), np.array([-3.0, 0.0]))
        assert u_z[0] == pytest.approx(3.0)

    def test_least_squares_projection_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            psi = rng.normal(size=(int(rng.integers(2, 5)), 1))
            v = rng.normal(size=psi.shape[0])
            u = pinv_apply(psi, v)
            # normal-equations oracle
            u_ref = np.linalg.solve(psi.T @ psi, psi.T @ v)
            assert np.allclose(u, u_ref, atol=1e-10)
            residual = v - psi @ u
            assert np.max(np.abs(psi.T @ residual)) <= 1e-10  # orthogonal to range

    def test_rank_deficiency_reported(self):
        psi = np.array([[1e-9], [0.0]])
        with pytest.raises(AlignmentError) as exc:
            pinv_apply(psi, np.array([1.0, 0.0]))
        assert exc.value.singular_values.min() <= 1e-8

    def test_several_columns_are_refused(self):
        with pytest.raises(ShapeError, match="psi"):
            pinv_apply(np.eye(2), np.array([1.0, 0.0]))

    def test_one_column_division_equals_the_lapack_solve(self):
        # the quadrotor's psi(theta) is one column: its solve is one division, and rounds like np.linalg.solve
        # on the normal equations formed by the contraction rule (multiply, then sum from 0.0)
        scn = build_quadrotor()
        rng = np.random.default_rng(29)
        for theta, v in zip(rng.uniform(-3.2, 3.2, size=10_000), rng.normal(scale=10.0, size=(10_000, 2))):
            psi = scn.dsys.psi(np.array([theta]))
            (a,), (b,) = psi.tolist()
            gram = np.array([[0.0 + a * a + b * b]])
            rhs = np.array([0.0 + a * v[0] + b * v[1]])
            u = pinv_apply(psi, v)
            assert u.shape == (1,) and np.array_equal(u, np.linalg.solve(gram, rhs))

    @pytest.mark.parametrize(
        "psi, v",
        [
            (np.array([[math.nan], [1.0]]), np.array([0.0, 9.81])),
            (np.array([[math.inf], [1.0]]), np.array([0.0, 9.81])),
            (np.array([[0.0], [1.0]]), np.array([math.nan, 9.81])),
            (np.array([[1.0], [math.nan], [1.0]]), np.array([0.0, 1.0, 2.0])),
            (np.array([[1.0], [0.0], [1.0]]), np.array([0.0, math.inf, 2.0])),
        ],
        ids=["nan-psi", "inf-psi", "nan-v", "nan-psi-three-rows", "inf-v-three-rows"],
    )
    def test_non_finite_data_raises(self, psi, v):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite alignment data"):
            pinv_apply(psi, v)

    def test_non_finite_attitude_aborts_the_rollout(self):
        scn = build_quadrotor()
        bad = dataclasses.replace(scn, x0=np.array([0.0, 0.0, 0.0, 0.0, math.nan]))
        with pytest.raises(SimulationAbort, match="NonFiniteError: non-finite alignment data") as exc:
            rollout(bad, RolloutConfig(dt=1e-2, t_final=0.1))
        assert exc.value.step == 0 and exc.value.t == 0.0


class TestQuadrotorEtaD:
    def test_vertical_command_zero_angle(self):
        assert quadrotor_eta_d(np.array([0.0, 1.0]))[0] == pytest.approx(0.0)

    def test_diagonal_command(self):
        assert quadrotor_eta_d(np.array([-1.0, 1.0]))[0] == pytest.approx(np.pi / 4)

    def test_alignment_residual_zero_at_diagonal(self):
        theta_d = float(quadrotor_eta_d(np.array([-1.0, 1.0]))[0])
        psi = np.array([[-np.sin(theta_d)], [np.cos(theta_d)]])
        v = np.array([-1.0, 1.0])
        proj = psi @ pinv_apply(psi, v)
        assert np.linalg.norm(proj - v) <= 1e-12

    def test_thrust_guard(self):
        with pytest.raises(ThrustDomainError):
            quadrotor_eta_d(np.array([1.0, 0.0]), v_min=0.1)
        with pytest.raises(ThrustDomainError):
            quadrotor_eta_d(np.array([1.0, 0.05]), v_min=0.1)

    def test_jacobian_via_ad(self):
        v = np.array([0.3, 2.0])
        _, jac = ad.jacobian(quadrotor_eta_d, v)
        fd = fd_jacobian(lambda u: np.asarray(quadrotor_eta_d(u)), v)
        assert np.allclose(jac, fd, rtol=1e-7, atol=1e-9)


class TestLoweredAttitudeMap:
    def test_lowered_pass_equals_the_dual_pass(self):
        # the attitude map lowers as part of a barrier's kernel; here k is the identity on v, so that
        # r and dr/dx_top are checked against the Dual pass over a wide range of virtual inputs
        scn = build_quadrotor()
        v_min = scn.cfg.v_min_frac * scn.cfg.mass * scn.cfg.gravity
        flat = BarrierSpec(h=lambda v: 0.0, grad_h=lambda v: np.zeros(2), alpha=linear_class_k(), epsilon=1.0,
                           theta_d=1.0, p_weight=1.0, n=2)
        barrier = CompositeBarrier(flat, SmoothVirtualController(k1=lambda v: v), 1.0, 2, 1, scn.attitude)
        rng = np.random.default_rng(31)
        states = np.column_stack([rng.uniform(-30.0, 30.0, 10_000), rng.uniform(1.001 * v_min, 40.0, 10_000),
                                  rng.uniform(-1.2, 1.2, 10_000)])
        for x in states:
            got, ref = barrier.kernel(x), barrier_pass(barrier, x)
            assert all(np.array_equal(mine, theirs) for mine, theirs in zip(got, ref))
            assert got[4].shape == (1,) and got[5].shape == (1, 2)
        assert len(barrier.kernel.sources) == 1 and "_arctan(" in barrier.kernel.sources[0]

    def test_thrust_below_the_floor_raises_the_reference_error(self):
        # k_v's v2 is the gravity feedforward m g; a floor above it puts every state outside the map's domain
        cfg = QuadrotorConfig(v_min_frac=1.5)
        scn = build_quadrotor(cfg)
        m_g, v_min = cfg.mass * cfg.gravity, 1.5 * cfg.mass * cfg.gravity
        for x in (scn.x0, np.array([1.0, 0.2, 0.5, -0.3, 0.1])):
            for read in (scn.dbar.value_and_grad, scn.dbar.h, scn.dbar.reference):
                with pytest.raises(ThrustDomainError) as got:
                    read(x)
                # the message the Dual pass has always given
                assert str(got.value) == f"thrust component v2={m_g:.6g} <= v_min={v_min:.6g}"
        assert not scn.dbar.kernel.sources  # a failing state is never traced

    def test_strict_feedback_barrier_has_no_reference_pass(self):
        scn = build_quadrotor()
        plain = CompositeBarrier(scn.h_z, scn.k_v, scn.cfg.mu, 4, 1)
        assert plain.ref_map is None and scn.dbar.ref_map is not None
        plain.h(scn.x0)
        scn.dbar.h(scn.x0)
        assert "_arctan(" not in plain.kernel.sources[0] and "_arctan(" in scn.dbar.kernel.sources[0]


class TestDrdBarrier:
    def test_on_manifold_h_equals_hz(self):
        scn = build_quadrotor()
        z = np.array([0.5, 0.2, 0.4, -0.1])
        eta_star = scn.eta_d_of_state(np.concatenate([z, [0.0]]))
        x = np.concatenate([z, [eta_star]])
        assert scn.dbar.h(x) == pytest.approx(float(scn.h_z.h(z)))
        grad = scn.dbar.grad_h(x)
        assert np.allclose(grad[4:], 0.0, atol=1e-13)

    def test_eta_gradient_is_scaled_error(self):
        scn = build_quadrotor()
        x = np.array([0.5, 0.2, 0.4, -0.1, 0.3])
        e = x[4:] - scn.dbar.reference(x)
        grad = scn.dbar.grad_h(x)
        assert np.allclose(grad[4:], -e / scn.cfg.mu, atol=1e-14)

    def test_full_gradient_matches_fd(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(7)
        lo = np.array([-1.0, -1.0, -1.5, -1.5, -1.0])
        hi = np.array([3.0, 1.0, 2.5, 1.5, 1.0])
        for x in rng.uniform(lo, hi, size=(150, 5)):
            analytic = scn.dbar.grad_h(x)
            fd = fd_gradient(scn.dbar.h, x)
            rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd)))
            assert rel <= 1e-6

    def test_rejects_nonpositive_mu(self):
        scn = build_quadrotor()
        with pytest.raises(ParameterError):
            CompositeBarrier(scn.h_z, scn.k_v, -1.0, 4, 1, ref_map=scn.attitude)

    def test_one_implementation_under_two_names(self):
        for name in ("value_and_grad", "h"):
            assert DrdBarrier.__dict__[name] is CompositeBarrier.__dict__[name]
        scn = build_quadrotor()
        plain = CompositeBarrier(scn.h_z, scn.k_v, scn.cfg.mu, 4, 1, ref_map=scn.attitude)
        assert type(plain) is CompositeBarrier and plain.to_spec().layers == scn.bar.layers == 2
        rng = np.random.default_rng(23)
        for x in rng.uniform([-0.5, -0.5, -1.0, -1.0, -0.8], [2.5, 0.5, 2.0, 1.0, 0.8], size=(20, 5)):
            a, b = plain.value_and_grad(x), scn.dbar.value_and_grad(x)
            assert a.h == b.h and np.array_equal(a.grad, b.grad) and np.array_equal(a.ref_jac, b.ref_jac)
            assert plain.h(x) == scn.dbar.h(x)


class TestPartialClosedLoop:
    def test_aligned_drift_uses_virtual_controller(self):
        scn = build_quadrotor()
        z = np.array([0.5, 0.2, 0.4, -0.1])
        x = np.concatenate([z, [scn.eta_d_of_state(np.concatenate([z, [0.0]]))]])
        f_p = scn.sys.f(x)
        v = np.asarray(ad.value(scn.k_v.k1(z)))
        expected_top = np.asarray(scn.dsys.f_top(z)) + np.asarray(scn.dsys.g_top(z)) @ v
        assert np.allclose(f_p[:4], expected_top, atol=1e-10)

    def test_lg_formula_hand_vs_ad(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform([-0.5, -0.5, -1.0, -1.0, -0.8], [2.5, 0.5, 2.0, 1.0, 0.8])
            lie = eval_lie(scn.sys, scn.bar, x)
            e = x[4:] - scn.dbar.reference(x)
            hand = -(e / scn.cfg.mu) @ np.eye(1)  # g_eta = 1
            assert np.allclose(lie.lg_h, hand, atol=1e-12)
            # AD cross-check of the same directional derivative
            g_col = scn.sys.g(x)[:, 0]
            _, grad_fd = float(scn.bar.h(x)), fd_gradient(scn.bar.h, x)
            assert lie.lg_h[0] == pytest.approx(float(grad_fd @ g_col), abs=1e-6)

    def test_lg_zero_iff_on_manifold(self):
        scn = build_quadrotor()
        z = np.array([1.0, 0.0, 0.5, 0.0])
        eta_star = scn.eta_d_of_state(np.concatenate([z, [0.0]]))
        on = np.concatenate([z, [eta_star]])
        off = np.concatenate([z, [eta_star + 0.2]])
        assert np.linalg.norm(eval_lie(scn.sys, scn.bar, on).lg_h) <= 1e-12
        assert np.linalg.norm(eval_lie(scn.sys, scn.bar, off).lg_h) > 1e-3

    def test_lie_collapse_on_manifold(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = rng.uniform([-0.5, -0.5, -1.0, -1.0], [3.0, 0.5, 2.0, 1.0])
            x = np.concatenate([z, [scn.eta_d_of_state(np.concatenate([z, [0.0]]))]])
            lie_p = eval_lie(scn.sys, scn.bar, x)
            lie_z = eval_lie(scn.top_sys, scn.h_z, z)
            v = np.asarray(ad.value(scn.k_v.k1(z)))
            expected_lf = lie_z.lf_h + float(lie_z.lg_h @ v)
            assert abs(lie_p.lf_h - expected_lf) <= 1e-10
            assert np.max(np.abs(lie_p.lw_h - lie_z.lw_h)) <= 1e-10

    def test_margin_positive_on_manifold_outside_safe_set(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(300):
            z = rng.uniform([1.5, -0.5, -0.5, -1.0], [3.2, 0.5, 2.5, 1.0])
            if float(scn.h_z.h(z)) > 0:
                continue
            x = np.concatenate([z, [scn.eta_d_of_state(np.concatenate([z, [0.0]]))]])
            lie = eval_lie(scn.sys, scn.bar, x)
            margin = lie.lf_h + scn.bar.theta_d * float(scn.bar.alpha(lie.h_val)) - float(lie.lw_h @ lie.lw_h) / scn.bar.epsilon
            assert margin > 0.0
            hits += 1
        assert hits >= 100


class TestAssumptionResidual:
    def test_alignment_identity_over_domain(self):
        scn = build_quadrotor()
        rng = np.random.default_rng(19)
        zs = rng.uniform([-1.0, -1.0, -2.0, -2.0], [3.0, 1.0, 3.0, 2.0], size=(1000, 4))
        report = check_attitude_alignment(scn.dsys, scn.dbar, zs)
        assert report["ok"]
        assert report["max_residual"] <= 1e-9

    def test_residual_is_tiny_pointwise(self):
        scn = build_quadrotor()
        assert alignment_residual(scn.dsys, scn.dbar, np.zeros(4)) <= 1e-12

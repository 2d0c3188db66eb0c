import dataclasses
import math

import numpy as np
import pytest

from odcbf.barrier import (
    BarrierSpec,
    ExtendedClassK,
    admissible_delta,
    eval_lie,
    gamma_margin,
    linear_class_k,
)
from odcbf.dynamics import DisturbedSystem
from odcbf.errors import MarginUndefinedError, ParameterError, ShapeError
from tests.finite_differences import fd_gradient


def pendulum_top(nu=0.5):
    # layer-1 subsystem: qdot = x2 + nu d, virtual input x2
    return DisturbedSystem(
        n=1, m=1, p=1,
        f=lambda x: np.zeros(1),
        g=lambda x: np.eye(1),
        w=lambda x: np.array([[nu]]),
    )


def h1_spec(eps=1.0, theta_d=1.0, p=1.0, alpha=None, domain_b=math.inf):
    return BarrierSpec(
        h=lambda x: 1.0 - x[0] ** 2,
        grad_h=lambda x: np.array([-2.0 * x[0]]),
        alpha=alpha or linear_class_k(1.0),
        epsilon=eps,
        theta_d=theta_d,
        p_weight=p,
        n=1,
        domain_b=domain_b,
    )


def cubic(gain=1.0):
    return ExtendedClassK(lambda s: gain * s**3, lambda y: float(np.cbrt(y / gain)))


def class_k_self_test(k, n_grid=101, tol=1e-10):
    """Check alpha(0)=0, strict monotonicity, and inverse consistency."""
    if abs(float(k(0.0))) > tol:
        raise ParameterError("alpha(0) != 0")
    end = min(k.b, 1e3) * (1 - 1e-9)  # alpha is defined on s > -b; the grid is symmetric about 0
    grid = np.linspace(-end, end, n_grid)
    vals = np.array([float(k(s)) for s in grid])
    if not np.all(np.diff(vals) > 0):
        raise ParameterError("alpha not strictly increasing on sampled grid")
    err = np.max(np.abs(np.array([float(k.inverse(v)) for v in vals]) - grid) / (1.0 + np.abs(grid)))
    if err > tol:
        raise ParameterError(f"alpha_inv(alpha(s)) != s: relative error {err:.3e}")
    return True


class TestExtendedClassK:
    def test_catalog_self_tests(self):
        for k in (linear_class_k(2.0), linear_class_k(0.5, b=3.0)):
            assert class_k_self_test(k)

    def test_linear_inverse(self):
        k = linear_class_k(3.0)
        assert k.inverse(k(1.7)) == pytest.approx(1.7, abs=1e-12)

    def test_register_custom_pair(self):
        k = ExtendedClassK(np.sinh, np.arcsinh, b=2.0)
        assert class_k_self_test(k)
        assert k(0.0) == 0.0
        assert k.inverse(k(1.3)) == pytest.approx(1.3, abs=1e-12)
        assert k.range_lo == pytest.approx(np.sinh(-2.0))  # probed at construction

    def test_register_rejects_broken_inverse(self):
        with pytest.raises(ParameterError):
            class_k_self_test(ExtendedClassK(lambda s: s, lambda y: 2 * y))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ParameterError):
            class_k_self_test(ExtendedClassK(lambda s: -s, lambda y: -y))


class TestBarrierSpec:
    def test_positive_parameters_enforced(self):
        with pytest.raises(ParameterError):
            h1_spec(eps=0.0)
        with pytest.raises(ParameterError):
            h1_spec(theta_d=-1.0)
        with pytest.raises(ParameterError):
            h1_spec(p=0.0)

    def test_grad_h_is_required(self):
        # no finite-difference default: a barrier comes with its gradient
        with pytest.raises(TypeError, match="grad_h"):
            BarrierSpec(h=lambda x: float(np.sin(x[0])), alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1)


class TestEvalLie:
    def test_pendulum_layer1_lg(self):
        lie = eval_lie(pendulum_top(), h1_spec(), np.array([0.5]))
        assert lie.lg_h[0] == pytest.approx(-1.0)  # -2q at q = 0.5

    def test_zero_drift_gives_zero_lf(self):
        sys = DisturbedSystem(n=2, m=1, p=1, f=lambda x: np.zeros(2), g=lambda x: np.ones((2, 1)), w=lambda x: np.zeros((2, 1)))
        bar = BarrierSpec(h=lambda x: x[0], grad_h=lambda x: np.array([1.0, 0.0]), alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=2)
        for x in np.random.default_rng(1).normal(size=(10, 2)):
            assert eval_lie(sys, bar, x).lf_h == 0.0

    def test_pendulum_layer1_lw_chain_rule(self):
        lie = eval_lie(pendulum_top(nu=0.5), h1_spec(), np.array([0.5]))
        assert lie.lw_h[0] == pytest.approx(-0.5)  # -2 q nu

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            eval_lie(pendulum_top(), h1_spec(), np.array([0.1, 0.2]))


class TestGammaMargin:
    def test_zero_delta(self):
        assert gamma_margin(h1_spec(), 0.0) == 0.0

    def test_linear_alpha(self):
        bar = h1_spec(eps=2.0, theta_d=1.0)
        assert gamma_margin(bar, 1.0) == pytest.approx(1.0)

    def test_cubic_alpha_numeric_inversion(self):
        bar = h1_spec(eps=1.0, theta_d=0.5, alpha=cubic(1.0))
        gamma = gamma_margin(bar, 1.0)
        assert gamma == pytest.approx(1.0, abs=1e-10)
        # cross-check by inverting s^3 = -1 numerically
        roots = np.roots([1.0, 0.0, 0.0, 1.0])
        s_star = float(np.real(roots[np.isreal(roots)][0]))
        assert gamma == pytest.approx(-s_star, abs=1e-10)

    def test_out_of_range_raises(self):
        saturating = ExtendedClassK(np.arctan, np.tan)
        bar = h1_spec(eps=10.0, theta_d=1.0, alpha=saturating)
        # required decay -5 below the saturating range (-pi/2, pi/2)
        with pytest.raises(MarginUndefinedError):
            gamma_margin(bar, 1.0)

    def test_monotone_in_delta(self):
        bar = h1_spec(eps=1.0, theta_d=1.0, alpha=cubic(2.0))
        deltas = np.linspace(0.0, 2.0, 21)
        gammas = [gamma_margin(bar, d) for d in deltas]
        assert all(g2 >= g1 for g1, g2 in zip(gammas, gammas[1:]))


class TestAdmissibleDelta:
    def test_linear_cases(self):
        assert admissible_delta(h1_spec(eps=2.0, theta_d=1.0, domain_b=1.0)) == pytest.approx(1.0)
        assert admissible_delta(h1_spec(eps=1.0, theta_d=2.0, domain_b=1.0)) == pytest.approx(2.0)

    def test_infinite_b_sentinel(self):
        assert admissible_delta(h1_spec()) == math.inf


class TestBarrierDomain:
    def test_membership_consistency(self):
        bar = h1_spec(domain_b=1.0)
        assert bar.in_domain(np.array([0.5]))  # inside S
        assert bar.in_domain(np.array([1.2]))  # h = -0.44 > -b
        assert not bar.in_domain(np.array([2.0]))  # h = -3 <= -1
        assert not bar.in_domain(None, -3.0) and bar.in_domain(None, -0.44)  # a given h is not re-evaluated
        assert h1_spec().in_domain(np.array([2.0]))  # b = inf: D is everything

    def test_set_nesting_below_admissible(self):
        bar = h1_spec(eps=1.0, theta_d=1.0, domain_b=1.0)
        delta_max = admissible_delta(bar)
        rng = np.random.default_rng(5)
        for delta in rng.uniform(0.0, delta_max * 0.999, size=20):
            gamma = gamma_margin(bar, delta)
            assert gamma < bar.domain_b
            for x in rng.uniform(-1.0, 1.0, size=(50, 1)):
                if bar.h(x) >= 0.0:  # x in S, so x in S_delta = {h + gamma >= 0} and in D
                    assert bar.h(x) + gamma >= 0.0
                    assert bar.in_domain(x)

    @pytest.mark.parametrize("b", [math.nan, 0.0, -0.5])
    def test_bad_bound_rejected(self, b):
        # NaN would turn the domain test off; b <= 0 leaves D without the safe set's boundary
        with pytest.raises(ParameterError, match="domain_b"):
            h1_spec(domain_b=b)

    @pytest.mark.parametrize("domain_b", [1.0, math.inf])
    def test_alpha_defined_short_of_the_domain_rejected(self, domain_b):
        # alpha on (-0.5, inf) is undefined where -b < h <= -0.5, which D contains
        with pytest.raises(ParameterError, match="alpha is undefined"):
            h1_spec(alpha=linear_class_k(1.0, b=0.5), domain_b=domain_b)

    def test_alpha_covering_the_domain_accepted(self):
        assert h1_spec(alpha=linear_class_k(1.0, b=1.0), domain_b=1.0).alpha.b == 1.0
        assert h1_spec(alpha=linear_class_k(1.0, b=2.0), domain_b=1.0).domain_b == 1.0

    def test_pendulum_spec_with_short_alpha_rejected(self):
        # the pendulum's own spec with alpha cut at b = 0.5 inside D = {h > -1}: alpha(-0.5625) was used
        from odcbf.scenarios import PendulumConfig, build_pendulum

        bar = build_pendulum(PendulumConfig(domain_b=1.0)).bar
        with pytest.raises(ParameterError, match="alpha is undefined"):
            dataclasses.replace(bar, alpha=linear_class_k(1.0, b=0.5))

    @pytest.mark.parametrize("domain_b", [1.0, math.inf])
    def test_shipped_scenarios_build(self, domain_b):
        from odcbf.scenarios import PendulumConfig, QuadrotorConfig, build_pendulum, build_quadrotor

        assert build_pendulum(PendulumConfig(domain_b=domain_b)).bar.domain_b == domain_b
        assert build_quadrotor(QuadrotorConfig(domain_b=domain_b)).bar.domain_b == domain_b


def test_finite_difference_consistency_random_states():
    bar = h1_spec()
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1.4, 1.4, size=(1000, 1)):
        analytic = bar.grad_h(x)
        fd = fd_gradient(bar.h, x)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-9)

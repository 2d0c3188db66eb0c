import math

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.errors import NonFiniteError, SynthesisInfeasibleError
from odcbf.scenarios import build_pendulum
from odcbf.synthesis import half_sontag, synth_virtual
from tests.finite_differences import fd_jacobian


def strict_margin(top, bar, ctrl, x1):
    """Residual of the strict inequality the controller must satisfy at x1."""
    grad = np.asarray(bar.grad_h(x1), dtype=float)
    lf = float(grad @ np.asarray(top.f(x1), dtype=float))
    lg = grad @ np.asarray(top.g(x1), dtype=float)
    lw = grad @ np.asarray(top.w(x1), dtype=float)
    hv = float(bar.h(x1))
    k = np.asarray(ad.value(ctrl.k1(np.asarray(x1, dtype=float))), dtype=float)
    return lf + float(lg @ k) + bar.theta_d * float(bar.alpha(hv)) - float(lw @ lw) / bar.epsilon


class TestHalfSontag:
    def test_zero_a_unit_b(self):
        u = half_sontag(0.0, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(u, [0.5, 0.0])
        assert 0.0 + np.array([1.0, 0.0]) @ u == pytest.approx(0.5)

    def test_zero_b_positive_a(self):
        assert np.allclose(half_sontag(3.0, np.zeros(2), 1.0), np.zeros(2))

    def test_negative_a_scalar_b(self):
        u = half_sontag(-1.0, np.array([1.0]), 4.0)
        lam = (1.0 + np.sqrt(5.0)) / 2.0
        assert u[0] == pytest.approx(lam)
        residual = -1.0 + u[0]
        assert residual == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0)
        assert residual > 0

    def test_zero_b_nonpositive_a_infeasible(self):
        with pytest.raises(SynthesisInfeasibleError):
            half_sontag(-0.5, np.zeros(2), 1.0)
        with pytest.raises(SynthesisInfeasibleError):
            half_sontag(0.0, np.zeros(1), 1.0)

    def test_underflowing_input_direction_is_degenerate(self):
        # ||b||^2 = 1e-320 is subnormal: dividing by it would return inf
        with pytest.raises(SynthesisInfeasibleError):
            half_sontag(-1.0, np.array([1e-160]), 1.0)
        assert np.array_equal(half_sontag(1.0, np.array([1e-160]), 1.0), [0.0])  # a > 0: no correction needed

    @pytest.mark.parametrize("a, b", [(math.nan, [1.0]), (-math.inf, [1.0]), (1.0, [math.inf]), (-1.0, [math.nan])])
    def test_non_finite_data_raises(self, a, b):
        with pytest.raises(NonFiniteError):
            half_sontag(a, np.array(b), 1.0)

    def test_guaranteed_residual_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a = rng.normal() * 2
            b = rng.normal(size=rng.integers(1, 4))
            if np.linalg.norm(b) < 1e-12 and a <= 0:
                continue
            sigma = rng.uniform(0.1, 5.0)
            u = half_sontag(a, b, sigma)
            expected = 0.5 * (a + np.sqrt(a**2 + sigma * np.linalg.norm(b) ** 4))
            assert a + b @ u == pytest.approx(expected, rel=1e-10)
            assert a + b @ u > 0

    def test_branches_agree_where_both_defined(self):
        # rationalized (a > 0) and classic (q > 0) forms are the same function
        for a in (0.5, 2.0):
            for bnorm in (0.3, 1.7):
                b = np.array([bnorm])
                sigma = 1.3
                q = bnorm**2
                classic = (-a + np.sqrt(a**2 + sigma * q**2)) / (2 * q)
                assert half_sontag(a, b, sigma)[0] == pytest.approx(classic * bnorm, rel=1e-12)

    def test_smooth_through_b_zero_when_a_positive(self):
        # jacobian of u(x) = half_sontag(1, (x,), 1) exists and is finite at x=0
        f = lambda x: half_sontag(1.0, ad.stack([x[0]]), 1.0)
        _, jac = ad.jacobian(f, np.array([0.0]))
        assert np.all(np.isfinite(jac))
        fd = fd_jacobian(lambda x: half_sontag(1.0, np.array([x[0]]), 1.0), np.array([0.0]))
        assert np.allclose(jac, fd, atol=1e-7)


class TestSynthVirtual:
    def test_non_finite_synthesis_names_state_and_layer(self):
        scn = build_pendulum()
        for run in (scn.k1.k1, scn.k1.with_jacobian):  # the value pass and the jacobian pass
            with pytest.raises(NonFiniteError, match=r"a=nan.* \(layer 1\) at x=\[nan\]"):
                run(np.array([math.nan]))

    def test_pendulum_interior_zero_correction(self):
        scn = build_pendulum()
        # at q=0: L_g1 h1 = 0 and a = theta_d*1 - 0 > 0, so k1 = 0
        k = ad.value(scn.k1.k1(np.array([0.0])))
        assert np.allclose(k, [0.0], atol=1e-14)

    def test_sigma_to_zero_limit(self):
        scn = build_pendulum()
        vals = []
        for sigma in (1.0, 1e-2, 1e-4, 1e-6):
            k = synth_virtual(scn.top_sys, scn.h1, sigma)
            vals.append(abs(float(ad.value(k.k1(np.array([0.5])))[0])))
        # a(0.5) > 0 there, so the correction vanishes continuously with sigma
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert vals[3] < 1e-6

    def test_strict_margin_positive_on_domain_samples(self):
        scn = build_pendulum()
        rng = np.random.default_rng(17)
        for x1 in rng.uniform(-1.8, 1.8, size=(1000, 1)):
            assert strict_margin(scn.top_sys, scn.h1, scn.k1, x1) > 0.0

    def test_sigma_monotonicity_of_residual(self):
        scn = build_pendulum()
        x1 = np.array([1.1])
        residuals = []
        for sigma in (0.5, 1.0, 2.0, 4.0):
            k = synth_virtual(scn.top_sys, scn.h1, sigma)
            residuals.append(strict_margin(scn.top_sys, scn.h1, k, x1))
        assert all(r2 >= r1 for r1, r2 in zip(residuals, residuals[1:]))

    def test_jacobian_matches_finite_differences(self):
        scn = build_pendulum()
        rng = np.random.default_rng(23)
        for x1 in rng.uniform(-1.5, 1.5, size=(200, 1)):
            ja = np.asarray(scn.k1.with_jacobian(x1)[1], dtype=float)
            jf = fd_jacobian(lambda y: np.asarray(ad.value(scn.k1.k1(y)), dtype=float), x1)
            assert np.allclose(ja, jf, rtol=1e-6, atol=1e-8)

    def test_jacobian_finite_on_vanishing_input_direction(self):
        # L_g1 h1 = -2q vanishes at q = 0; the controller must stay smooth there
        scn = build_pendulum()
        ja = np.asarray(scn.k1.with_jacobian(np.array([0.0]))[1], dtype=float)
        assert np.all(np.isfinite(ja))
        jf = fd_jacobian(lambda y: np.asarray(ad.value(scn.k1.k1(y)), dtype=float), np.array([0.0]))
        assert np.allclose(ja, jf, rtol=1e-6, atol=1e-8)

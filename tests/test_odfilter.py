import numpy as np
import pytest

from odcbf.barrier import SafeSetGeometry
from odcbf.dynamics import FeedbackLaw
from odcbf.errors import DomainError, InfeasiblePointError
from odcbf.odfilter import od_issf_filter, solve_decay_filter
from odcbf.scenarios import build_pendulum
from odcbf.verify import qp_oracle


def random_raw_terms(rng, force_xi_zero=False, force_zeta_nonpos=False, force_ups_neg=False):
    """Raw Lie-derivative tuples spanning the KKT case grid."""
    m = int(rng.integers(1, 4))
    p_dist = int(rng.integers(1, 4))
    lg = np.zeros(m) if force_xi_zero else rng.normal(size=m)
    lw = rng.normal(size=p_dist)
    eps = float(rng.uniform(0.2, 5.0))
    theta_d = float(rng.uniform(0.1, 3.0))
    p = float(rng.uniform(0.2, 5.0))
    k_d = rng.normal(size=m)
    alpha_h = -abs(rng.normal()) if force_zeta_nonpos else rng.normal()
    lf = rng.normal() * 3.0
    if force_ups_neg:
        # choose lf so upsilon < 0
        ups_rest = float(lg @ k_d + theta_d * alpha_h - (lw @ lw) / eps)
        lf = -abs(rng.normal()) - 0.5 - ups_rest
    return dict(lf_h=lf, lg_h=lg, lw_h=lw, alpha_h=alpha_h, epsilon=eps, theta_d=theta_d, p=p, k_d=k_d)


def closed_form(terms):
    return solve_decay_filter(
        terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
        terms["k_d"], terms["epsilon"], terms["theta_d"], terms["p"],
    )


def oracle(terms):
    return qp_oracle(
        terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
        terms["epsilon"], terms["theta_d"], terms["p"], terms["k_d"],
    )


def constraint_residual(terms, u, omega):
    lw_sq = float(terms["lw_h"] @ terms["lw_h"])
    return (
        terms["lf_h"]
        + float(terms["lg_h"] @ u)
        + omega * terms["alpha_h"]
        - lw_sq / terms["epsilon"]
    )


class TestClosedFormAgainstOracle:
    def test_equivalence_across_case_grid(self):
        rng = np.random.default_rng(42)
        checked = 0
        for i in range(4000):
            terms = random_raw_terms(
                rng,
                force_xi_zero=(i % 4 == 1),
                force_zeta_nonpos=(i % 4 == 2),
                force_ups_neg=(i % 3 == 0),
            )
            sol = oracle(terms)
            if not sol.feasible:
                with pytest.raises(InfeasiblePointError):
                    closed_form(terms)
                continue
            res = closed_form(terms)
            assert np.allclose(res.u, sol.u, atol=1e-8), (terms, res, sol)
            assert res.theta_x == pytest.approx(sol.omega, abs=1e-8)
            obj_cf = 0.5 * float((res.u - terms["k_d"]) @ (res.u - terms["k_d"])) + 0.5 * terms["p"] * (res.theta_x - terms["theta_d"]) ** 2
            assert obj_cf == pytest.approx(sol.objective, abs=1e-8)
            checked += 1
        assert checked > 2000

    def test_theta_floor_never_violated(self):
        rng = np.random.default_rng(7)
        for i in range(2000):
            terms = random_raw_terms(rng, force_ups_neg=(i % 2 == 0))
            try:
                res = closed_form(terms)
            except InfeasiblePointError:
                continue
            assert res.theta_x >= terms["theta_d"]

    def test_complementary_slackness(self):
        rng = np.random.default_rng(13)
        for i in range(2000):
            terms = random_raw_terms(rng, force_ups_neg=(i % 2 == 0))
            try:
                res = closed_form(terms)
            except InfeasiblePointError:
                continue
            residual = constraint_residual(terms, res.u, res.theta_x)
            assert residual >= -1e-9
            if res.constraint_active:
                assert res.lambda_val > 0
                assert abs(residual) <= 1e-9 * (1 + abs(terms["lf_h"]))
            else:
                assert res.lambda_val == 0.0
                assert np.allclose(res.u, terms["k_d"])
                assert res.theta_x == terms["theta_d"]

    def test_minimal_deviation_when_nominal_safe(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            terms = random_raw_terms(rng)
            res = closed_form(terms)
            if res.upsilon >= 0:
                assert np.linalg.norm(res.u - terms["k_d"]) == 0.0


class TestSpecExamples:
    def test_nominal_already_safe(self):
        res = solve_decay_filter(5.0, np.array([1.0]), np.array([0.3]), 0.5, np.array([0.2]), 1.0, 1.0, 1.0)
        assert res.lambda_val == 0.0
        assert np.allclose(res.u, [0.2])
        assert res.theta_x == 1.0
        assert not res.constraint_active

    def test_lambda_one_case(self):
        # upsilon=-2, xi=1, zeta=1, p=1 -> lambda = 1, theta = theta_d + 1
        # build raw terms realizing it: lg=(1,), alpha=1, p=1, k_d=0, lw=0,
        # theta_d=1 -> upsilon = lf + 1 => lf = -3
        res = solve_decay_filter(-3.0, np.array([1.0]), np.zeros(1), 1.0, np.zeros(1), 1.0, 1.0, 1.0)
        assert res.upsilon == pytest.approx(-2.0)
        assert res.xi == pytest.approx(1.0)
        assert res.zeta == pytest.approx(1.0)
        assert res.lambda_val == pytest.approx(1.0)
        assert res.theta_x == pytest.approx(2.0)

    def test_degenerate_branch_zero_lambda(self):
        # xi = 0, zeta = -0.5: lambda = 0 when feasible
        res = solve_decay_filter(3.0, np.zeros(1), np.zeros(1), -0.5, np.zeros(1), 1.0, 1.0, 1.0)
        assert res.lambda_val == 0.0
        # and the infeasibility diagnostic fires when upsilon < 0
        with pytest.raises(InfeasiblePointError):
            solve_decay_filter(-3.0, np.zeros(1), np.zeros(1), -0.5, np.zeros(1), 1.0, 1.0, 1.0)


class TestFilterOnSystems:
    def test_domain_precondition(self):
        scn = build_pendulum()
        geom = SafeSetGeometry(h=scn.bar.h, b=0.5)
        with pytest.raises(DomainError):
            od_issf_filter(scn.sys, scn.bar, scn.nominal, np.array([3.0, 8.0]), geometry=geom)

    def test_virtual_filter_interior_nominal_safe(self):
        scn = build_pendulum()
        safe_nominal = FeedbackLaw(control=lambda x1: np.zeros(1))
        res = od_issf_filter(scn.top_sys, scn.h1, safe_nominal, np.array([0.0]))
        assert not res.constraint_active
        assert np.allclose(res.u, [0.0])

    def test_virtual_filter_active_near_boundary(self):
        scn = build_pendulum()
        aggressive = FeedbackLaw(control=lambda x1: np.array([5.0]))  # drive outward
        res = od_issf_filter(scn.top_sys, scn.h1, aggressive, np.array([0.99]))
        assert res.lambda_val > 0
        # constraint exactly active at the optimum
        lie_lg = -2 * 0.99
        residual = res.upsilon + res.lambda_val * (res.xi**2 + 1.0 * max(res.zeta, 0.0) ** 2)
        assert abs(residual) <= 1e-9

    def test_continuity_probe_along_segments(self):
        """Refining the sampling step should shrink observed jumps (no discontinuity)."""
        scn = build_pendulum()
        rng = np.random.default_rng(101)
        for _ in range(120):
            a = rng.uniform([-1.2, -2.0], [1.2, 2.0])
            b = a + rng.uniform(0.05, 0.3) * rng.normal(size=2)

            def max_jump(k):
                ts = np.linspace(0.0, 1.0, k + 1)
                us = [scn.filter_law.control(a + t * (b - a), 0.0) for t in ts]
                return max(float(np.linalg.norm(u2 - u1)) for u1, u2 in zip(us, us[1:]))

            coarse, fine = max_jump(16), max_jump(128)
            assert fine <= 0.6 * coarse + 1e-9

import dataclasses
import math

import numpy as np
import pytest

from odcbf.errors import DomainError, InfeasiblePointError, NonFiniteError
from odcbf.odfilter import OdIssfController, solve_decay_filter
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
        bar = dataclasses.replace(scn.bar, domain_b=0.5)
        with pytest.raises(DomainError) as exc:
            OdIssfController(scn.sys, bar, scn.filter_law.nominal).evaluate(np.array([3.0, 8.0]), 0.25)
        assert exc.value.t == 0.25 and np.array_equal(exc.value.x, [3.0, 8.0])
        # the error carries the refused evaluation's h and h_top
        assert exc.value.h == bar.h(np.array([3.0, 8.0])) <= -0.5 and exc.value.h_top == scn.h1.h(np.array([3.0]))

    def test_virtual_filter_interior_nominal_safe(self):
        scn = build_pendulum()
        safe_nominal = lambda x1, t, be: np.zeros(1)
        res = OdIssfController(scn.top_sys, scn.h1, safe_nominal).evaluate(np.array([0.0])).result
        assert not res.constraint_active
        assert np.allclose(res.u, [0.0])

    def test_virtual_filter_active_near_boundary(self):
        scn = build_pendulum()
        aggressive = lambda x1, t, be: np.array([5.0])  # drive outward
        res = OdIssfController(scn.top_sys, scn.h1, aggressive).evaluate(np.array([0.99])).result
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


# -- the filter's contract as properties ------------------------------------
#
# Raw terms come from a grid of step 1e-4, so that exact zeros (L_g h = 0,
# alpha(h) = 0) are drawn while no magnitude lies between 0 and 1e-4: the
# oracle's absolute KKT tolerances hold there, and the degenerate branch is
# reached only through exact zeros and the explicit scans below.

from hypothesis import given, settings
from hypothesis import strategies as st

FILTER_PROPS = settings(max_examples=200, deadline=None, derandomize=True)


def grid(lo, hi):
    return st.integers(int(lo * 1e4), int(hi * 1e4)).map(lambda k: k / 1e4)


@st.composite
def raw_terms(draw):
    m, p_dist = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vec = lambda size: np.array(draw(st.lists(grid(-5.0, 5.0), min_size=size, max_size=size)))
    return dict(
        lf_h=draw(grid(-20.0, 20.0)), lg_h=vec(m), lw_h=vec(p_dist), alpha_h=draw(grid(-5.0, 5.0)),
        epsilon=draw(grid(0.1, 5.0)), theta_d=draw(grid(0.1, 3.0)), p=draw(grid(0.1, 5.0)), k_d=vec(m),
    )


def problem_scale(terms, u, omega):
    """Sum of the magnitudes of the terms of upsilon and of the constraint at (u, omega): the size of their rounding."""
    lg, alpha = np.abs(terms["lg_h"]), abs(terms["alpha_h"])
    lw_sq = float(terms["lw_h"] @ terms["lw_h"])
    return abs(terms["lf_h"]) + float(lg @ (np.abs(terms["k_d"]) + np.abs(u))) + (terms["theta_d"] + omega) * alpha + lw_sq / terms["epsilon"]


def scaled(terms, c):
    """The same QP with every constraint term times c: (u, omega) must not move."""
    return dict(
        terms, lf_h=c * terms["lf_h"], lg_h=c * terms["lg_h"], lw_h=c * terms["lw_h"],
        alpha_h=c * terms["alpha_h"], epsilon=c * terms["epsilon"],
    )


@FILTER_PROPS
@given(raw_terms())
def test_property_agrees_with_oracle(terms):
    sol = oracle(terms)
    if not sol.feasible:
        with pytest.raises(InfeasiblePointError):
            closed_form(terms)
        return
    res = closed_form(terms)
    scale = 1.0 + float(np.max(np.abs(sol.u)))
    assert np.max(np.abs(res.u - sol.u)) <= 1e-8 * scale
    assert abs(res.theta_x - sol.omega) <= 1e-8 * (1.0 + abs(sol.omega))


@FILTER_PROPS
@given(raw_terms())
def test_property_stays_feasible(terms):
    try:
        res = closed_form(terms)
    except InfeasiblePointError:
        return
    assert np.all(np.isfinite(res.u)) and res.theta_x >= terms["theta_d"]
    residual = constraint_residual(terms, res.u, res.theta_x)
    assert residual >= -1e-12 * problem_scale(terms, res.u, res.theta_x)


@FILTER_PROPS
@given(raw_terms(), st.integers(-6, 6), st.floats(1.0, 10.0))
def test_property_scale_invariant(terms, exponent, mantissa):
    c = mantissa * 10.0**exponent
    try:
        res = closed_form(terms)
    except InfeasiblePointError:
        with pytest.raises(InfeasiblePointError):
            closed_form(scaled(terms, c))
        return
    big = closed_form(scaled(terms, c))
    assert np.max(np.abs(big.u - res.u)) <= 1e-12 * (1.0 + float(np.max(np.abs(res.u))))
    assert abs(big.theta_x - res.theta_x) <= 1e-12 * res.theta_x


# L_g h shrunk through the degenerate branch: its square crosses the smallest
# normal float (~2.2e-308) at |L_g h| ~ 1.5e-154
SHRINK = [10.0**-k for k in range(0, 320, 8)] + [0.0]


def upsilon(terms):
    lw_sq = float(terms["lw_h"] @ terms["lw_h"])
    return terms["lf_h"] + float(terms["lg_h"] @ terms["k_d"]) + terms["theta_d"] * terms["alpha_h"] - lw_sq / terms["epsilon"]


@FILTER_PROPS
@given(raw_terms(), st.booleans())
def test_property_continuous_across_degenerate_branch(terms, zeta_at_zero):
    """With alpha(h) <= 0 and k_d = 0, upsilon does not depend on L_g h. As
    L_g h shrinks to 0, the filter stays idle where upsilon >= 0. Where
    upsilon < 0, the input grows like |upsilon| / |L_g h| with the constraint
    active while |L_g h|^2 is a normal float, and the filter says infeasible
    below that, in the degenerate branch. Just above it the multiplier
    overflows while the input does not, and the input is still returned;
    only an input too large for a float raises NonFiniteError, and a
    non-finite input is never returned."""
    alpha = 0.0 if zeta_at_zero else -abs(terms["alpha_h"]) - 0.5
    terms = dict(terms, alpha_h=alpha, k_d=np.zeros_like(terms["k_d"]))
    if not np.any(terms["lg_h"]):
        terms["lg_h"] = np.ones_like(terms["k_d"])
    unsafe = upsilon(terms) < 0.0
    for t in SHRINK:
        shrunk = dict(terms, lg_h=t * terms["lg_h"])
        xi = float(np.linalg.norm(shrunk["lg_h"]))
        degenerate = xi**2 < np.finfo(float).tiny
        try:
            res = closed_form(shrunk)
        except InfeasiblePointError:
            assert degenerate and unsafe
            continue
        except NonFiniteError:
            # only an input |upsilon| / |L_g h| too large for a float is refused
            assert not degenerate and unsafe and abs(upsilon(terms)) > np.finfo(float).max * xi
            continue
        assert not (unsafe and degenerate)
        assert np.all(np.isfinite(res.u)) and res.theta_x == terms["theta_d"]
        if not unsafe:
            assert np.array_equal(res.u, terms["k_d"])
        else:
            residual = constraint_residual(shrunk, res.u, res.theta_x)
            assert abs(residual) <= 1e-9 * problem_scale(shrunk, res.u, res.theta_x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's objective overflows; its input does not
def test_multiplier_overflow_just_above_the_degenerate_floor():
    # |L_g h|^2 = 2.25e-308 is a normal float, so the branch is not degenerate; lambda = 5.05 / 2.25e-308
    # overflows, while the input 5.05 / 1.5e-154 and the decay scale are finite
    terms = dict(lf_h=-4.05, lg_h=np.array([1.5e-154]), lw_h=np.zeros(1), alpha_h=-1.0,
                 epsilon=1.0, theta_d=1.0, p=1.0, k_d=np.zeros(1))
    res = closed_form(terms)
    assert res.upsilon == pytest.approx(-5.05) and res.lambda_val == math.inf and res.constraint_active
    assert res.u[0] == pytest.approx(5.05 / 1.5e-154, rel=1e-14) and res.theta_x == 1.0
    assert res.u[0] == pytest.approx(oracle(terms).u[0], rel=1e-14)
    assert abs(constraint_residual(terms, res.u, res.theta_x)) <= 1e-14
    # with xi = 0 the decay scale carries the step: lambda overflows, u stays nominal
    res = solve_decay_filter(-5.0, [0.0], [0.0], 1.5e-154, [0.0], 1.0, 1.0, 1.0)
    assert res.lambda_val == math.inf and res.u[0] == 0.0
    assert res.theta_x == pytest.approx(1.0 + 5.0 / 1.5e-154, rel=1e-14)


def test_overflowing_denominator_raises_only_where_the_filter_must_act():
    # p zeta^2 overflows (as a product, p = 1e10, or in zeta^2 itself, p = 1): lambda and psi would
    # round to 0 and pass the unsafe nominal input through
    for alpha_h, p in ((1e160, 1e10), (2e154, 1.0)):
        with pytest.raises(NonFiniteError):
            solve_decay_filter(-alpha_h * (1.0 + 2.0**-40), [1.0], [0.0], alpha_h, [0.0], 1.0, 1.0, p)
        # with upsilon >= 0 the nominal input is the solution
        res = solve_decay_filter(0.0, [1.0], [0.0], alpha_h, [0.0], 1.0, 1.0, p)
        assert res.u[0] == 0.0 and res.theta_x == 1.0 and not res.constraint_active

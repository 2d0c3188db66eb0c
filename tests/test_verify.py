import dataclasses
import json
import math

import numpy as np
import pytest

from odcbf import verify
from odcbf.autodiff import fd_jacobian
from odcbf.barrier import BarrierSpec, eval_lie, linear_class_k
from odcbf.dynamics import DisturbedSystem
from odcbf.errors import ParameterError, SamplerError
from odcbf.scenarios import build_pendulum, build_quadrotor
from odcbf.verify import (
    BoxRegionSampler,
    ROOT_MAXITER,
    SampleReport,
    bracket_root,
    check_matched,
    check_od_issf,
    check_prop1,
    check_regular_values,
    exterior_sampler,
    lg_jacobian,
    qp_oracle,
)
from tests.test_odfilter import random_raw_terms


def projected_gradient_qp(terms, iters=200_000, tol=1e-12):
    """Slow projected-gradient solver for the decay QP (independent route).

    Variables y = (du, domega); objective 1/2||du||^2 + p/2 domega^2;
    feasible set is the intersection of one halfspace with {domega >= 0},
    projected exactly by candidate enumeration.
    """
    b = np.asarray(terms["lg_h"], dtype=float)
    alpha_h = float(terms["alpha_h"])
    p = terms["p"]
    lw = terms["lw_h"]
    r0 = float(
        terms["lf_h"] + b @ terms["k_d"] + terms["theta_d"] * alpha_h - (lw @ lw) / terms["epsilon"]
    )
    m = b.size
    a1 = np.concatenate([b, [alpha_h]])  # halfspace a1 . y >= -r0
    c1 = -r0
    norm_sq = float(a1 @ a1)

    def feasible(y, slack=1e-12):
        return a1 @ y >= c1 - slack and y[-1] >= -slack

    def project(y):
        if feasible(y, 0.0):
            return y
        cands = []
        if norm_sq > 0:
            y1 = y + (c1 - a1 @ y) / norm_sq * a1
            if y1[-1] >= -1e-15:
                cands.append(y1)
        y2 = y.copy()
        y2[-1] = 0.0
        if norm_sq == 0 or a1 @ y2 >= c1 - 1e-15:
            cands.append(y2)
        if norm_sq > 0:
            # intersection of both boundaries: y[-1] = 0, b . du = c1
            bb = float(b @ b)
            if bb > 0:
                y3 = y.copy()
                y3[-1] = 0.0
                du = y3[:-1] + (c1 - b @ y3[:-1]) / bb * b
                cands.append(np.concatenate([du, [0.0]]))
        cands = [c for c in cands if feasible(c)]
        if not cands:
            return None
        return min(cands, key=lambda c: float((c - y) @ (c - y)))

    y = project(np.zeros(m + 1))
    if y is None:
        return None
    lipschitz = max(1.0, p)
    step = 1.0 / lipschitz
    for _ in range(iters):
        grad = np.concatenate([y[:-1], [p * y[-1]]])
        y_next = project(y - step * grad)
        if y_next is None:
            return None
        if np.max(np.abs(y_next - y)) < tol:
            y = y_next
            break
        y = y_next
    return terms["k_d"] + y[:-1], terms["theta_d"] + y[-1]


class TestQpOracle:
    def test_nominal_feasible_inactive(self):
        sol = qp_oracle(5.0, np.array([1.0]), np.zeros(1), 0.5, 1.0, 1.0, 1.0, np.array([0.3]))
        assert sol.feasible and sol.case == "inactive"
        assert np.allclose(sol.u, [0.3])
        assert sol.omega == 1.0

    def test_matches_closed_form_lambda_one(self):
        sol = qp_oracle(-3.0, np.array([1.0]), np.zeros(1), 1.0, 1.0, 1.0, 1.0, np.zeros(1))
        assert np.allclose(sol.u, [1.0])
        assert sol.omega == pytest.approx(2.0)

    def test_omega_bound_active_when_alpha_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            terms = random_raw_terms(rng, force_zeta_nonpos=True, force_ups_neg=True)
            sol = qp_oracle(
                terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
                terms["epsilon"], terms["theta_d"], terms["p"], terms["k_d"],
            )
            if sol.feasible:
                assert sol.omega == pytest.approx(terms["theta_d"], abs=1e-12)

    def test_ranks_two_feasible_candidates_beyond_the_overflow(self):
        # alpha(h) = 0: the barrier-active and the both-active candidates are both feasible, and the
        # second ranks lower. Scaling the instance by 2^600 scales every step exactly, and puts both
        # objectives beyond the overflow (|du| > 1.3e154), where min used to keep the first inf.
        lg, lf = np.array([-0.8028369359828766, 0.2428499070790021]), -2.156345427042233
        small = qp_oracle(lf, lg, np.zeros(1), 0.0, 1.0, 1.0, 1.0, np.zeros(2))
        with np.errstate(over="ignore"):
            big = qp_oracle(lf * 2.0**600, lg, np.zeros(1), 0.0, 1.0, 1.0, 1.0, np.zeros(2))
        assert small.case == big.case == "both"
        assert np.max(np.abs(big.u)) > 1.3e154 and big.objective == math.inf
        assert np.array_equal(big.u, small.u * 2.0**600)

    def test_infeasible_verdict(self):
        sol = qp_oracle(-3.0, np.zeros(1), np.zeros(1), -0.5, 1.0, 1.0, 1.0, np.zeros(1))
        assert not sol.feasible
        assert sol.case == "infeasible"

    def test_cross_validated_against_projected_gradient(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            terms = random_raw_terms(rng, force_ups_neg=(checked % 2 == 0), force_zeta_nonpos=(checked % 3 == 0))
            sol = qp_oracle(
                terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
                terms["epsilon"], terms["theta_d"], terms["p"], terms["k_d"],
            )
            pgd = projected_gradient_qp(terms)
            if not sol.feasible:
                assert pgd is None
                continue
            u_pgd, omega_pgd = pgd
            assert np.allclose(sol.u, u_pgd, atol=1e-8)
            assert sol.omega == pytest.approx(omega_pgd, abs=1e-8)
            checked += 1


class TestSamplers:
    def test_exterior_sampler_respects_region(self):
        scn = build_pendulum()
        sampler = scn.exterior_sampler()
        pts = sampler.draw(np.random.default_rng(0), 200)
        assert len(pts) == 200
        for x in pts:
            assert scn.bar.h(x) <= 0

    def test_sampler_exhaustion(self):
        sampler = BoxRegionSampler(np.zeros(1), np.ones(1), lambda x: False)
        with pytest.raises(SamplerError):
            sampler.draw(np.random.default_rng(0), 10)


class TestCheckOdIssf:
    def test_pendulum_layer1_vacuous(self):
        # L_g h1 = -2q never vanishes outside Int(S1): no seed starts on the zero
        # set, so the implication holds vacuously. Layer 1 is a plain barrier, so
        # check_od_issf refuses to refine it; Proposition 1 (check_prop1) covers it
        scn = build_pendulum()
        sampler = exterior_sampler(scn.h1, scn.cfg.box_lo[:1], scn.cfg.box_hi[:1])
        seeds = sampler.draw(np.random.default_rng(1), 100)
        lg_norms = [np.linalg.norm(eval_lie(scn.top_sys, scn.h1, x).lg_h) for x in seeds]
        assert min(lg_norms) > verify.RANK_TOL
        report = SampleReport(samples_checked=len(seeds)).finalize()
        assert report.verdict == "vacuous-pass" and report.zero_set_hits == 0
        with pytest.raises(ParameterError, match="ref_jac"):
            check_od_issf(scn.top_sys, scn.h1, sampler, n_seeds=100, seed=1)

    def test_no_zero_set_hit_is_a_vacuous_pass(self):
        report = SampleReport(samples_checked=100).finalize()
        assert report.verdict == "vacuous-pass" and report.zero_set_hits == 0

    def test_backstepped_pendulum_passes_with_hits(self):
        scn = build_pendulum()
        report = check_od_issf(scn.sys, scn.bar, scn.exterior_sampler(), n_seeds=300, seed=2)
        assert report.verdict == "pass"
        assert report.zero_set_hits >= 100
        assert report.min_margin > 0

    def test_broken_barrier_fails_with_negative_margins(self):
        scn = build_pendulum()
        broken = dataclasses.replace(scn.bar, epsilon=1e-6)
        report = check_od_issf(scn.sys, broken, scn.exterior_sampler(), n_seeds=150, seed=3)
        assert report.verdict == "fail"
        assert report.min_margin < 0
        assert report.violations[0][1] == report.min_margin  # worst-first

    def test_reports_deterministic_given_seed(self):
        scn = build_pendulum()
        r1 = check_od_issf(scn.sys, scn.bar, scn.exterior_sampler(), n_seeds=60, seed=5)
        r2 = check_od_issf(scn.sys, scn.bar, scn.exterior_sampler(), n_seeds=60, seed=5)
        assert r1.zero_set_hits == r2.zero_set_hits
        assert r1.min_margin == r2.min_margin


class TestZeroSetSearch:
    @pytest.mark.parametrize("build", [build_pendulum, build_quadrotor])
    def test_closed_form_lg_jacobian_matches_fd(self, build):
        scn = build()
        sys = scn.filter_law.sys  # the closed loop that odcbf verify checks
        for x in scn.exterior_sampler().draw(np.random.default_rng(7), 200):
            jac = lg_jacobian(eval_lie(sys, scn.bar, x))
            fd = fd_jacobian(lambda y: eval_lie(sys, scn.bar, y).lg_h, x)
            assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("build, per_seed", [(build_pendulum, 6), (build_quadrotor, 5)])
    def test_one_evaluation_per_gauss_newton_iterate(self, monkeypatch, build, per_seed):
        scn = build()
        sys = scn.filter_law.sys
        calls = []
        original = verify.eval_lie

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(verify, "eval_lie", counted)
        report = check_od_issf(sys, scn.bar, scn.exterior_sampler(), seed=0)
        assert report.zero_set_hits >= 100
        assert len(calls) <= per_seed * report.samples_checked

    def test_plain_barrier_is_refused(self):
        # the composite's h and grad h without its pass: no reference jacobian to refine with
        scn = build_pendulum()
        plain = BarrierSpec(
            h=scn.bar.h, grad_h=scn.bar.grad_h, alpha=scn.bar.alpha, epsilon=scn.bar.epsilon,
            theta_d=scn.bar.theta_d, p_weight=scn.bar.p_weight, n=2,
        )
        assert lg_jacobian(eval_lie(scn.sys, plain, np.array([0.5, 1.0]))) is None
        with pytest.raises(ParameterError, match="ref_jac"):
            check_od_issf(scn.sys, plain, scn.exterior_sampler(), n_seeds=60, seed=4)


def _bisect(f, a, b, width=1e-14):
    a, b = min(a, b), max(a, b)
    fa = f(a)
    while b - a > width:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


class TestBracketRoot:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0, 1.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
            (lambda x: (x - 0.3) * math.exp(x), 0.0, 1.0),
            (lambda x: 1.0 - x * x - 0.5 * math.sin(3.0 * x), 0.0, 2.0),
            (lambda x: math.log(x) + x - 2.0, 0.5, 4.0),
            (lambda x: x**3 - 2.0, 2.0, 1.0),  # the high end first
        ],
    )
    def test_matches_bisection_on_smooth_functions(self, f, a, b):
        assert abs(bracket_root(f, a, b, f(a), f(b)) - _bisect(f, a, b)) <= 1e-12

    def test_root_at_an_endpoint_is_returned_as_is(self):
        def unused(t):
            raise AssertionError("an endpoint root needs no evaluation")

        assert bracket_root(unused, 0.5, 2.0, 0.0, 3.0) == 0.5
        assert bracket_root(unused, 0.5, 2.0, -1.0, 0.0) == 2.0

    def test_non_bracket_raises(self):
        with pytest.raises(ValueError, match="do not bracket"):
            bracket_root(math.sin, 0.5, 2.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="do not bracket"):
            bracket_root(math.sin, 0.5, 2.0, -1.0, -3.0)

    def test_step_discontinuity_ends_within_the_iteration_cap(self):
        evals = []

        def step(x):
            evals.append(x)
            return -1.0 if x < 0.3 else 2.0

        root = bracket_root(step, 0.0, 1.0, -1.0, 2.0)
        assert abs(root - 0.3) <= 1e-12
        assert len(evals) <= ROOT_MAXITER


class TestCheckProp1:
    def test_pendulum_layer1_passes(self):
        scn = build_pendulum()
        sampler = exterior_sampler(scn.h1, scn.cfg.box_lo[:1], scn.cfg.box_hi[:1])
        report = check_prop1(scn.top_sys, scn.h1, sampler, n_samples=500, seed=1)
        assert report.verdict == "pass"
        assert report.min_margin > 0

    def test_constant_barrier_fails(self):
        sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)))
        flat = BarrierSpec(h=lambda x: 0.0, grad_h=lambda x: np.zeros(1), alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1)
        sampler = BoxRegionSampler(np.array([-1.0]), np.array([1.0]), lambda x: True)
        report = check_prop1(sys, flat, sampler, n_samples=50, seed=0)
        assert report.verdict == "fail"

    def test_quadrotor_off_manifold_passes(self):
        scn = build_quadrotor()

        def pred(x):
            # off the attitude manifold, where L_g h cannot vanish
            return scn.bar.h(x) <= 0 and abs(x[4] - scn.eta_d_of_state(x)) > 0.05

        sampler = BoxRegionSampler(np.asarray(scn.cfg.box_lo), np.asarray(scn.cfg.box_hi), pred)
        report = check_prop1(scn.sys, scn.bar, sampler, n_samples=300, seed=2)
        assert report.verdict == "pass"


class TestRegularValues:
    def make_bar(self):
        return BarrierSpec(
            h=lambda x: 1.0 - float(x @ x),
            grad_h=lambda x: -2.0 * np.asarray(x),
            alpha=linear_class_k(),
            epsilon=1.0, theta_d=1.0, p_weight=1.0, n=2,
        )

    def test_unit_disc_level_sets(self):
        bar = self.make_bar()
        report = check_regular_values(bar, [0.0, -0.5], center=np.zeros(2), seed=1)
        assert report.verdict == "pass"
        assert report.zero_set_hits > 100
        # smallest gradient norm: 2 at the kappa=0 circle (|x|=1)
        assert report.min_margin == pytest.approx(2.0 - 1e-8, abs=1e-6)

    def test_critical_level_detected(self):
        # h = -x^3 crosses its kappa = 0 level exactly at the critical point x = 0
        bar = BarrierSpec(
            h=lambda x: -float(x[0] ** 3),
            grad_h=lambda x: np.array([-3.0 * x[0] ** 2]),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
        )
        report = check_regular_values(bar, [0.0], center=np.array([-2.0]), seed=0)
        assert report.verdict == "fail"

    def test_kappa_outside_interval_rejected(self):
        bar = dataclasses.replace(self.make_bar(), domain_b=1.0)
        with pytest.raises(ValueError):
            check_regular_values(bar, [-2.0], center=np.zeros(2))

    @pytest.mark.parametrize("domain_b, kappa", [(math.inf, 0.5), (math.inf, math.nan), (1.0, 0.5), (1.0, -2.0)])
    def test_kappa_interval_is_checked_for_every_b(self, domain_b, kappa):
        # kappa must lie in (-b, 0] for an infinite b too; the refusal is a build failure, not a traceback
        bar = dataclasses.replace(self.make_bar(), domain_b=domain_b)
        with pytest.raises(ParameterError, match="outside"):
            check_regular_values(bar, [kappa], center=np.zeros(2))

    def test_center_is_evaluated_once_per_level(self):
        # every ray starts at the center, so h is taken there once per kappa, not once per ray
        scn = build_pendulum()
        calls = []
        bar = dataclasses.replace(scn.bar, h=lambda x: calls.append(np.array(x)) or scn.bar.h(x))
        report = check_regular_values(bar, [0.0, -0.5], center=np.zeros(2), seed=0)
        assert report.samples_checked == 400
        assert sum(np.array_equal(x, np.zeros(2)) for x in calls) == 2
        assert len(calls) == 3824  # with h per ray start: 4222

    def test_pendulum_composite_zero_level(self):
        scn = build_pendulum()
        report = check_regular_values(scn.bar, [0.0], center=np.zeros(2), seed=4)
        assert report.verdict == "pass"
        assert report.zero_set_hits > 50


class TestCheckMatched:
    def test_pendulum_layer1_matched(self):
        scn = build_pendulum()
        rng = np.random.default_rng(0)
        out = check_matched(scn.top_sys, rng.uniform(-2, 2, size=(100, 1)))
        assert out["matched"]

    def test_full_pendulum_unmatched(self):
        scn = build_pendulum()
        rng = np.random.default_rng(0)
        out = check_matched(scn.sys, rng.uniform(-2, 2, size=(100, 2)))
        assert not out["matched"]

    def test_zero_disturbance_matrix_trivially_matched(self):
        sys = DisturbedSystem(n=2, m=1, p=2, f=lambda x: np.zeros(2), g=lambda x: np.ones((2, 1)), w=lambda x: np.zeros((2, 2)))
        out = check_matched(sys, np.random.default_rng(1).normal(size=(20, 2)))
        assert out["matched"]
        assert out["max_residual"] == 0.0

    def test_matched_implication_on_synthetic_system(self):
        # w = g phi with L_g h = 0 on the manifold {x1 = 0} by construction
        phi = np.array([[0.7, -1.2]])
        sys = DisturbedSystem(
            n=2, m=1, p=2,
            f=lambda x: np.zeros(2),
            g=lambda x: np.array([[x[0]], [1.0]]),
            w=lambda x: np.array([[x[0]], [1.0]]) @ phi,
        )
        bar = BarrierSpec(
            h=lambda x: x[0], grad_h=lambda x: np.array([1.0, 0.0]),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=2,
        )
        rng = np.random.default_rng(2)
        samples = np.column_stack([np.zeros(1000), rng.normal(size=1000)])
        out = check_matched(sys, samples, bar=bar)
        assert out["matched"]
        assert out["implication_failures"] == []


class TestSampleReport:
    def test_verdict_violation_consistency(self):
        r = SampleReport(samples_checked=10)
        r.zero_set_hits = 3
        r.finalize()
        assert r.verdict == "pass"
        r2 = SampleReport(samples_checked=10)
        r2.zero_set_hits = 3
        r2.violations.append((np.zeros(2), -1.0))
        r2.finalize()
        assert r2.verdict == "fail"

    def test_json_schema(self, tmp_path):
        r = SampleReport(samples_checked=5)
        r.zero_set_hits = 2
        r.min_margin = 0.5
        path = tmp_path / "report.json"
        r.finalize().to_json(path)
        payload = json.loads(path.read_text())
        assert payload["verdict"] == "pass"
        assert payload["min_margin"] == 0.5
        assert payload["counterexamples"] == []
        assert "numerical evidence" in payload["note"]

"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import dataclasses
import time

import numpy as np
import pytest

from odcbf.barrier import BarrierSpec, gamma_margin, linear_class_k
from odcbf.drd import check_attitude_alignment
from odcbf.dynamics import DisturbedSystem
from odcbf.errors import InfeasiblePointError
from odcbf.odfilter import solve_decay_filter
from odcbf.scenarios import (
    PendulumConfig,
    QuadrotorConfig,
    build_pendulum,
    build_quadrotor,
    make_disturbance,
    zero_disturbance,
)
from odcbf.sim import RolloutConfig, rollout
from odcbf.verify import check_matched, check_od_issf, qp_oracle
from tests.finite_differences import fd_gradient
from tests.test_odfilter import random_raw_terms


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    n_total = 10_000
    t0 = time.time()
    max_du, max_domega = 0.0, 0.0
    infeasible_agreements = 0
    for i in range(n_total):
        terms = random_raw_terms(
            rng,
            force_xi_zero=bool((i >> 0) & 1),
            force_zeta_nonpos=bool((i >> 1) & 1),
            force_ups_neg=bool((i >> 2) & 1),
        )
        sol = qp_oracle(
            terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
            terms["epsilon"], terms["theta_d"], terms["p"], terms["k_d"],
        )
        if not sol.feasible:
            with pytest.raises(InfeasiblePointError):
                solve_decay_filter(
                    terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
                    terms["k_d"], terms["epsilon"], terms["theta_d"], terms["p"],
                )
            infeasible_agreements += 1
            continue
        res = solve_decay_filter(
            terms["lf_h"], terms["lg_h"], terms["lw_h"], terms["alpha_h"],
            terms["k_d"], terms["epsilon"], terms["theta_d"], terms["p"],
        )
        assert res.theta_x >= terms["theta_d"], "decay-scale floor violated"
        max_du = max(max_du, float(np.max(np.abs(res.u - sol.u))))
        max_domega = max(max_domega, abs(res.theta_x - sol.omega))
    elapsed = time.time() - t0
    ok = max_du <= 1e-8 and max_domega <= 1e-8 and elapsed < 10.0
    report(1, ok, f"{n_total} instances, max|du|={max_du:.2e}, max|domega|={max_domega:.2e}, "
                  f"{infeasible_agreements} infeasible cells agreed, {elapsed:.1f}s (<10s)")


def test_criterion_2_gradient_suite():
    t0 = time.time()
    pend = build_pendulum()
    quad = build_quadrotor()
    rng = np.random.default_rng(7)
    suites = [
        ("pendulum layer-1", pend.h1, lambda: rng.uniform(-1.8, 1.8, size=(1000, 1))),
        ("pendulum composite", pend.bar, lambda: rng.uniform([-1.8, -3.5], [1.8, 3.5], size=(1000, 2))),
        ("quadrotor h_z", quad.h_z, lambda: rng.uniform([-1, -1, -2, -2], [3, 1, 3, 2], size=(1000, 4))),
        ("quadrotor DRD composite", quad.bar,
         lambda: rng.uniform([-1, -1, -2, -2, -1], [3, 1, 3, 2, 1], size=(1000, 5))),
    ]
    worst = {}
    for name, bar, draw in suites:
        errs = []
        for x in draw():
            analytic = np.asarray(bar.grad_h(x), dtype=float)
            fd = fd_gradient(bar.h, x)
            errs.append(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd))))
        worst[name] = max(errs)
    elapsed = time.time() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    report(2, ok, f"worst rel err {detail}; {elapsed:.1f}s (<30s)")


def test_criterion_3_composite_barrier_evidence():
    t0 = time.time()
    scn = build_pendulum()
    rep = check_od_issf(scn.sys, scn.bar, scn.exterior_sampler(), n_seeds=400, seed=3)
    elapsed = time.time() - t0
    ok = (
        rep.verdict == "pass"
        and rep.zero_set_hits >= 100
        and rep.min_margin > 1e-10
        and elapsed < 60.0
    )
    report(3, ok, f"verdict={rep.verdict}, zero-set hits={rep.zero_set_hits} (>=100), "
                  f"min margin={rep.min_margin:.4g} (>0), {elapsed:.1f}s (<60s)")


def test_criterion_4_drd_barrier_evidence():
    t0 = time.time()
    scn = build_quadrotor()
    rep = check_od_issf(scn.sys, scn.bar, scn.exterior_sampler(), n_seeds=300, seed=4)
    rng = np.random.default_rng(4)
    zs = rng.uniform([-1.0, -1.0, -2.0, -2.0], [3.0, 1.0, 3.0, 2.0], size=(1000, 4))
    align = check_attitude_alignment(scn.dsys, scn.dbar, zs, tol=1e-9)
    elapsed = time.time() - t0
    ok = (
        rep.verdict == "pass"
        and rep.zero_set_hits >= 100
        and rep.min_margin > 1e-10
        and align["ok"]
        and elapsed < 60.0
    )
    report(4, ok, f"verdict={rep.verdict}, hits={rep.zero_set_hits} (>=100), "
                  f"min margin={rep.min_margin:.4g}, alignment residual={align['max_residual']:.2e} (<=1e-9), "
                  f"{elapsed:.1f}s (<60s)")


def test_criterion_5_pendulum_epsilon_study():
    cfg = RolloutConfig(dt=1e-3, t_final=10.0)
    results = {}
    per_rollout_ok = True
    for eps in (0.1, 1.0, 10.0):
        scn = build_pendulum(PendulumConfig(epsilon=eps))
        t0 = time.time()
        _, metrics = rollout(scn, cfg)
        per_rollout_ok &= (time.time() - t0) < 60.0
        results[eps] = metrics
    gamma_1 = 10.0 * 1.0 / (2.0 * 1.0)  # eps=10, linear alpha, theta_d=1
    cond_a = results[0.1].min_layer_h >= 0.0
    cond_b = results[10.0].min_layer_h < 0.0 and results[10.0].min_h >= -gamma_1 - 1e-3

    scn10 = build_pendulum(PendulumConfig(epsilon=10.0))
    cfg_half = RolloutConfig(dt=5e-4, t_final=10.0)
    _, metrics_half = rollout(scn10, cfg_half)
    halving_change = abs(metrics_half.min_h - results[10.0].min_h)
    ok = cond_a and cond_b and halving_change < 1e-4 and per_rollout_ok
    report(5, ok, f"eps=0.1 min h1={results[0.1].min_layer_h:.4f} (>=0); "
                  f"eps=10 min h1={results[10.0].min_layer_h:.4f} (<0), "
                  f"min h={results[10.0].min_h:.4f} (>= -{gamma_1 + 1e-3}); "
                  f"dt-halving delta={halving_change:.2e} (<1e-4); each rollout <60s: {per_rollout_ok}")


def test_criterion_6_inflated_boundary_level_sets():
    scn = build_pendulum(PendulumConfig(epsilon=1.0))
    deltas = [0.25, 0.5, 1.0]
    gammas = [gamma_margin(scn.bar, d) for d in deltas]
    worst_level_err = 0.0
    nested = all(g1 < g2 for g1, g2 in zip(gammas, gammas[1:]))
    for delta, gamma in zip(deltas, gammas):
        q, upper, lower = scn.delta_boundary(delta, n_grid=201)
        for arr in (upper, lower):
            for qi, qd in zip(q, arr):
                worst_level_err = max(worst_level_err, abs(scn.bar.h(np.array([qi, qd])) + gamma))
        # every boundary point of the smaller set lies strictly inside larger sets
        for g_big in gammas:
            if g_big <= gamma:
                continue
            for qi, qd in zip(q, upper):
                nested &= scn.bar.h(np.array([qi, qd])) + g_big > 0
    ok = nested and worst_level_err <= 1e-9
    report(6, ok, f"boundaries at gammas {['%.3f' % g for g in gammas]} strictly nested={nested}, "
                  f"worst |h + gamma| on emitted curves = {worst_level_err:.2e} (<=1e-9)")


def test_criterion_7_quadrotor_wall_study():
    cfg = RolloutConfig(dt=1e-3, t_final=10.0)
    # (a) eps = 1 keeps the wall constraint satisfied throughout
    scn1 = build_quadrotor(QuadrotorConfig(epsilon=1.0))
    traj1, _ = rollout(scn1, cfg)
    x_max = scn1.cfg.x_max
    overshoot_1 = float(np.max(traj1.states[:, 0]) - x_max)
    cond_a = overshoot_1 <= 1e-9

    # (b) a large-eps cell exhibits a wall violation
    scn50 = build_quadrotor(QuadrotorConfig(epsilon=50.0))
    traj50, _ = rollout(scn50, cfg)
    cond_b = float(np.max(traj50.states[:, 0])) > x_max

    # (c) eight gust directions at eps = 1: no violations (wall and barrier)
    cfg_sweep = RolloutConfig(dt=5e-3, t_final=10.0)
    worst_dir_overshoot = -np.inf
    worst_dir_min_h = np.inf
    for k in range(8):
        scn_k = build_quadrotor(QuadrotorConfig(epsilon=1.0, disturbance=f"dir:{k * np.pi / 4}"))
        traj_k, m_k = rollout(scn_k, cfg_sweep)
        worst_dir_overshoot = max(worst_dir_overshoot, float(np.max(traj_k.states[:, 0]) - x_max))
        worst_dir_min_h = min(worst_dir_min_h, m_k.min_h)
    cond_c = worst_dir_overshoot <= 1e-9 and worst_dir_min_h >= 0.0

    # (d) attitude aligns with the thrust-away-from-wall command near the wall
    terminal = traj1.states[-1]
    near_wall = x_max - terminal[0] < 0.1
    gap = abs(terminal[4] - scn1.eta_d_of_state(terminal))
    cond_d = near_wall and gap < 0.1

    ok = cond_a and cond_b and cond_c and cond_d
    report(7, ok, f"eps=1 overshoot={overshoot_1:.2e} (<=1e-9); eps=50 max x={np.max(traj50.states[:, 0]):.3f} (>{x_max}); "
                  f"8-direction worst overshoot={worst_dir_overshoot:.2e} (<=1e-9), worst min h={worst_dir_min_h:.3f} (>=0); "
                  f"terminal wall distance={x_max - terminal[0]:.3f} (<0.1) with |theta-eta_d|={gap:.2e} (<0.1)")


def test_criterion_8_matched_classification():
    scn = build_pendulum()
    rng = np.random.default_rng(8)
    layer1 = check_matched(scn.top_sys, rng.uniform(-2, 2, size=(200, 1)))
    full = check_matched(scn.sys, rng.uniform(-2, 2, size=(200, 2)))

    # synthetic matched system w = g phi; L_g h vanishes on {x1 = 0} by construction
    phi = np.array([[0.7, -1.2]])
    sys = DisturbedSystem(
        n=2, m=1, p=2,
        f=lambda x: np.zeros(2),
        g=lambda x: np.array([[x[0]], [1.0]]),
        w=lambda x: np.array([[x[0]], [1.0]]) @ phi,
    )
    bar = BarrierSpec(h=lambda x: x[0], grad_h=lambda x: np.array([1.0, 0.0]),
                      alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=2)
    samples = np.column_stack([np.zeros(1000), rng.normal(size=1000)])
    synthetic = check_matched(sys, samples, bar=bar)
    ok = (
        layer1["matched"]
        and not full["matched"]
        and synthetic["matched"]
        and synthetic["implication_failures"] == []
        and synthetic["samples_checked"] == 1000
    )
    report(8, ok, f"layer-1 matched={layer1['matched']}, full unmatched={not full['matched']}, "
                  f"synthetic w=g*phi implication failures={len(synthetic['implication_failures'])}/1000")


def test_criterion_9_zero_disturbance_invariance():
    cfg = RolloutConfig(dt=2e-3, t_final=10.0)
    pend = build_pendulum(PendulumConfig(disturbance="zero", delta=0.0))
    _, m_p = rollout(dataclasses.replace(pend, disturbance=zero_disturbance(1)), cfg)
    quad = build_quadrotor(QuadrotorConfig(disturbance="zero", delta=0.0))
    _, m_q = rollout(dataclasses.replace(quad, disturbance=zero_disturbance(2)), cfg)
    ok = m_p.min_h >= -1e-6 and m_q.min_h >= -1e-6
    report(9, ok, f"pendulum min h={m_p.min_h:.3e}, quadrotor min h={m_q.min_h:.3e} (both >= -1e-6, x0 in Int(S))")

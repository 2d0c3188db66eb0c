"""Command-line interface: run / sweep / verify / plotdata.

Exit codes: 0 success, 1 verification fail verdict, 2 usage error (argparse),
3 scenario build failure, 4 runtime abort (a rollout or check stopped on a
state it could not handle). All stochastic sampling is controlled by --seed;
output files are written atomically (temp + rename).

Config files are INI-style key=value with one section per scenario, e.g.

    [pendulum]
    epsilon = 0.5
    mu = 0.5

CLI flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys

import numpy as np

from . import scenarios as sc
from .barrier import gamma_margin
from .errors import (
    AlignmentError,
    DomainError,
    InfeasiblePointError,
    IntegrationError,
    NonFiniteError,
    OdcbfError,
    SimulationAbort,
    ThrustDomainError,
)
from .sim import RolloutConfig, RolloutSetup, rollout, sweep, sweep_table_to_dict
from .verify import (
    check_matched,
    check_od_issf,
    check_prop1,
    check_regular_values,
    write_json_atomic,
)

BUILD_FAILURE = 3
VERIFY_FAILURE = 1
RUNTIME_FAILURE = 4
# raised while a built scenario runs, at a state the run reached
RUNTIME_ERRORS = (
    SimulationAbort,
    IntegrationError,
    InfeasiblePointError,
    NonFiniteError,
    DomainError,
    ThrustDomainError,
    AlignmentError,
)


def _load_config_section(path, section):
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return dict(parser[section]) if parser.has_section(section) else {}


def _coerce(value, target):
    if isinstance(target, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(target, tuple):
        return tuple(float(v) for v in value.split(","))
    if isinstance(target, float):
        return float(value)
    if isinstance(target, int):
        return int(value)
    return value


def _scenario_config(args):
    cls = {"pendulum": sc.PendulumConfig, "quadrotor": sc.QuadrotorConfig, "quadrotor-full": sc.QuadrotorConfig}[
        args.scenario
    ]
    cfg = cls()
    overrides = {}
    if args.config:
        section = "quadrotor" if args.scenario == "quadrotor-full" else args.scenario
        raw = _load_config_section(args.config, section)
        defaults = dataclasses.asdict(cfg)
        for key, val in raw.items():
            if key not in defaults:
                raise OdcbfError(f"unknown config key {key!r} in section [{section}]")
            overrides[key] = _coerce(val, defaults[key])
    if getattr(args, "epsilon", None) is not None:
        overrides["epsilon"] = args.epsilon
    if getattr(args, "delta", None) is not None:
        overrides["delta"] = args.delta
    if getattr(args, "disturbance", None) is not None:
        overrides["disturbance"] = args.disturbance
    return dataclasses.replace(cfg, **overrides)


def _build(args):
    cfg = _scenario_config(args)
    if args.scenario == "pendulum":
        scn = sc.build_pendulum(cfg)
        return dict(
            sys=scn.sys, law=scn.filter_law, bar=scn.bar, x0=scn.x0,
            disturbance=scn.disturbance, layer_h=scn.layer_h, geometry=scn.geometry,
            scenario=scn, cfg=cfg,
        )
    if args.scenario == "quadrotor":
        scn = sc.build_quadrotor(cfg)
        return dict(
            sys=scn.psys, law=scn.filter_law, bar=scn.bar, x0=scn.x0,
            disturbance=scn.disturbance, layer_h=scn.layer_h, geometry=scn.geometry,
            scenario=scn, cfg=cfg,
        )
    if args.scenario == "quadrotor-full":
        parts = sc.build_quadrotor_full(cfg)
        return dict(
            sys=parts["sys"], law=parts["filter_law"], bar=parts["bar"], x0=parts["x0"],
            disturbance=parts["disturbance"], layer_h=parts["layer_h"],
            geometry=parts["geometry"], scenario=parts["base"], cfg=cfg,
        )
    raise OdcbfError(f"unknown scenario {args.scenario!r}")


def _rollout_config(args):
    kw = {}
    if args.dt is not None:
        kw["dt"] = args.dt
    if args.t_final is not None:
        kw["t_final"] = args.t_final
    return RolloutConfig(**kw)


def _out_path(args, name):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def cmd_run(args):
    parts = _build(args)
    cfg = _rollout_config(args)
    traj, metrics = rollout(
        parts["sys"], parts["law"], parts["disturbance"], parts["x0"], cfg, parts["bar"],
        layer_h=parts["layer_h"], geometry=parts["geometry"],
    )
    traj.to_csv(_out_path(args, f"{args.scenario}_trajectory.csv"))
    traj.to_json(_out_path(args, f"{args.scenario}_trajectory.json"))
    write_json_atomic(_out_path(args, f"{args.scenario}_metrics.json"), metrics.to_dict())
    print(f"scenario={args.scenario} steps={len(traj.times)} min_h={metrics.min_h:.6g} "
          f"min_layer_h={metrics.min_layer_h:.6g} max_violation={metrics.max_violation:.6g} "
          f"issf_bound_satisfied={metrics.issf_bound_satisfied} theta_floor_ok={metrics.theta_floor_ok}")
    return 0


def cmd_sweep(args):
    cfg = _rollout_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    cells = {}
    for v in values:
        cell_args = argparse.Namespace(**vars(args))
        if args.param == "epsilon":
            cell_args.epsilon = float(v)
        elif args.param == "delta":
            cell_args.delta = float(v)
        elif args.param == "direction":
            cell_args.disturbance = f"dir:{float(v)}"
        else:
            raise OdcbfError(f"unknown sweep parameter {args.param!r}")
        parts = _build(cell_args)
        cells[v] = RolloutSetup(
            sys=parts["sys"], law=parts["law"], disturbance=parts["disturbance"],
            x0=parts["x0"], bar=parts["bar"], layer_h=parts["layer_h"],
            geometry=parts["geometry"],
        )
    table = sweep(cells, cfg)
    payload = {"scenario": args.scenario, "param": args.param, "cells": sweep_table_to_dict(table)}
    path = _out_path(args, f"{args.scenario}_sweep_{args.param}.json")
    write_json_atomic(path, payload)
    for label, entry in payload["cells"].items():
        print(f"{args.param}={label}: {entry}")
    return 0


def cmd_verify(args):
    parts = _build(args)
    scn = parts["scenario"]
    report = {"scenario": args.scenario, "checks": {}}
    ok = True

    if args.scenario == "pendulum":
        layer_sampler = scn.layer_exterior_sampler()
        prop1 = check_prop1(scn.top_sys, scn.h1, scn.layer_geometry, layer_sampler, seed=args.seed)
        report["checks"]["layer1_prop1"] = prop1.to_dict()
        ok &= prop1.verdict == "pass"

        od = check_od_issf(scn.sys, scn.bar, scn.geometry, scn.exterior_sampler(), seed=args.seed)
        report["checks"]["composite_od_issf"] = od.to_dict()
        ok &= od.verdict == "pass"

        reg = check_regular_values(scn.bar, scn.geometry, [0.0, -0.5], center=np.zeros(2), seed=args.seed)
        report["checks"]["regular_values"] = reg.to_dict()
        ok &= reg.verdict in ("pass", "vacuous-pass")

        rng = np.random.default_rng(args.seed)
        pts1 = [rng.uniform(-2, 2, size=1) for _ in range(100)]
        matched_top = check_matched(scn.top_sys, pts1)
        report["checks"]["layer1_matched"] = {
            "matched": matched_top["matched"], "max_residual": matched_top["max_residual"],
        }
        ok &= matched_top["matched"]

        pts2 = [rng.uniform(-2, 2, size=2) for _ in range(100)]
        matched_full = check_matched(scn.sys, pts2)
        report["checks"]["full_matched"] = {
            "matched": matched_full["matched"], "max_residual": matched_full["max_residual"],
        }
        ok &= not matched_full["matched"]  # expected unmatched

    else:
        od = check_od_issf(scn.psys, scn.bar, scn.geometry, scn.exterior_sampler(), seed=args.seed)
        report["checks"]["drd_od_issf"] = od.to_dict()
        ok &= od.verdict == "pass"

        reg = check_regular_values(scn.bar, scn.geometry, [0.0, -0.5], center=scn.x0, seed=args.seed)
        report["checks"]["regular_values"] = reg.to_dict()
        ok &= reg.verdict in ("pass", "vacuous-pass")

        rng = np.random.default_rng(args.seed)
        from .drd import check_attitude_alignment

        z_samples = [rng.uniform(scn.cfg.box_lo[:4], scn.cfg.box_hi[:4]) for _ in range(200)]
        align = check_attitude_alignment(scn.dsys, scn.k_v, scn.attitude, z_samples)
        report["checks"]["alignment"] = {"max_residual": align["max_residual"], "ok": align["ok"]}
        ok &= align["ok"]

        from .backstepping import check_full_row_rank

        eta_samples = [rng.uniform(-1.2, 1.2, size=1) for _ in range(100)]
        rank = check_full_row_rank(scn.dsys.g_bot, eta_samples)
        report["checks"]["g_bot_row_rank"] = {
            "min_singular_value": rank.min_singular_value, "ok": rank.ok,
        }
        ok &= rank.ok

        pts = [rng.uniform(scn.cfg.box_lo, scn.cfg.box_hi) for _ in range(100)]
        matched = check_matched(scn.psys, pts)
        report["checks"]["partial_loop_matched"] = {
            "matched": matched["matched"], "max_residual": matched["max_residual"],
        }
        ok &= not matched["matched"]  # wind gusts are unmatched w.r.t. the rate input

    report["verdict"] = "pass" if ok else "fail"
    path = _out_path(args, f"{args.scenario}_verify.json")
    write_json_atomic(path, report)
    print(f"verification verdict: {report['verdict']} (report: {path})")
    return 0 if ok else VERIFY_FAILURE


def cmd_plotdata(args):
    parts = _build(args)
    scn = parts["scenario"]
    cfg = _rollout_config(args)
    payload = {"scenario": args.scenario}

    if args.scenario == "pendulum":
        epsilons = [float(v) for v in args.epsilons.split(",")] if args.epsilons else [0.1, 1.0, 10.0]
        series = {}
        for eps in epsilons:
            cell_args = argparse.Namespace(**vars(args))
            cell_args.epsilon = eps
            cparts = _build(cell_args)
            traj, _ = rollout(
                cparts["sys"], cparts["law"], cparts["disturbance"], cparts["x0"], cfg,
                cparts["bar"], layer_h=cparts["layer_h"], geometry=cparts["geometry"],
            )
            series[str(eps)] = {"t": traj.times.tolist(), "q": traj.states[:, 0].tolist()}
        payload["q_of_t_per_epsilon"] = series

        deltas = [float(v) for v in args.deltas.split(",")] if args.deltas else [0.25, 0.5, 1.0]
        boundaries = {"safe_set": None, "inflated": {}}
        q0, up0, lo0 = scn.delta_boundary(0.0)
        boundaries["safe_set"] = {"q": q0.tolist(), "qdot_upper": up0.tolist(), "qdot_lower": lo0.tolist()}
        for delta in deltas:
            q, up, lo = scn.delta_boundary(delta)
            boundaries["inflated"][str(delta)] = {
                "q": q.tolist(), "qdot_upper": up.tolist(), "qdot_lower": lo.tolist(),
                "gamma": gamma_margin(scn.bar, delta),
            }
        payload["delta_boundaries"] = boundaries

    else:
        directions = (
            [float(v) for v in args.directions.split(",")]
            if args.directions
            else [k * math.pi / 4 for k in range(8)]
        )
        traj, _ = rollout(
            parts["sys"], parts["law"], parts["disturbance"], parts["x0"], cfg,
            parts["bar"], layer_h=parts["layer_h"], geometry=parts["geometry"],
        )
        eta_d_series = [scn.eta_d_of_state(x) for x in traj.states]
        payload["x_of_t"] = {"t": traj.times.tolist(), "x": traj.states[:, 0].tolist()}
        payload["theta_of_t"] = {
            "t": traj.times.tolist(),
            "theta": traj.states[:, 4].tolist(),
            "eta_d": eta_d_series,
        }
        xy = {}
        for ang in directions:
            cell_args = argparse.Namespace(**vars(args))
            cell_args.disturbance = f"dir:{ang}"
            cparts = _build(cell_args)
            t2, _ = rollout(
                cparts["sys"], cparts["law"], cparts["disturbance"], cparts["x0"], cfg,
                cparts["bar"], layer_h=cparts["layer_h"], geometry=cparts["geometry"],
            )
            xy[str(ang)] = {"x": t2.states[:, 0].tolist(), "y": t2.states[:, 1].tolist()}
        payload["xy_per_direction"] = xy

    path = _out_path(args, f"{args.scenario}_plotdata.json")
    write_json_atomic(path, payload)
    print(f"plot data written: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="odcbf", description="Optimal-decay safety filter toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, choices=["pendulum", "quadrotor", "quadrotor-full"])
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--disturbance", default=None, help='name: sin | zero | dir:<angle> | const:<v1,v2>')
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-final", dest="t_final", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="INI-style key=value config file")

    p_run = sub.add_parser("run", help="single rollout -> CSV/JSON + metrics")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of rollouts -> metrics table")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=["epsilon", "delta", "direction"])
    p_sweep.add_argument("--values", required=True, help="comma-separated grid values")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="barrier certification checks -> JSON report")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_plot = sub.add_parser("plotdata", help="emit the series behind the standard figures")
    common(p_plot)
    p_plot.add_argument("--epsilons", default=None, help="comma-separated filter gains")
    p_plot.add_argument("--deltas", default=None, help="comma-separated disturbance bounds")
    p_plot.add_argument("--directions", default=None, help="comma-separated gust angles (rad)")
    p_plot.set_defaults(fn=cmd_plotdata)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OdcbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_FAILURE if isinstance(exc, RUNTIME_ERRORS) else BUILD_FAILURE


if __name__ == "__main__":
    sys.exit(main())

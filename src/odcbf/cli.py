"""Command-line interface: run / sweep / verify / plotdata.

Exit codes: 0 success, 1 verification fail verdict, 2 usage error (argparse,
also a negative --seed), 3 scenario build failure or unusable input (a
malformed config file, an --out that cannot be a directory, a sweep with no
values), 4 runtime abort (a rollout or check stopped on a state it could not
handle, or a sweep cell did; run still writes the trajectory up to the abort,
and sweep its table). All stochastic sampling is controlled by --seed; output
files are written atomically (temp + rename).

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
import os
import sys

import numpy as np

from . import scenarios as sc
from .errors import (STAGE_ERRORS, DomainError, InfeasiblePointError, IntegrationError, OdcbfError, ParameterError,
                     SimulationAbort)
from .io import write_json_atomic
from .sim import RolloutConfig, rollout, sweep
from .verify import check_matched, check_od_issf, check_prop1, check_regular_values, exterior_sampler

BUILD_FAILURE = 3
VERIFY_FAILURE = 1
RUNTIME_FAILURE = 4
# raised while a built scenario runs, at a state the run reached
RUNTIME_ERRORS = (SimulationAbort, IntegrationError, InfeasiblePointError, DomainError, *STAGE_ERRORS)


def _load_config_section(path, section):
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        return dict(parser[section]) if parser.has_section(section) else {}  # values interpolate as they are read
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ParameterError(f"malformed config file {path!r}: {exc.message}") from None


def _coerce(value, target):
    if isinstance(target, tuple):
        return tuple(float(v) for v in value.split(","))
    if isinstance(target, float):
        return float(value)
    return value


# name (and config-file section): (config class, builder in odcbf.scenarios).
# The builder is looked up when a scenario is built, so a wrapper installed
# on odcbf.scenarios sees every build.
SCENARIOS = {
    "pendulum": (sc.PendulumConfig, "build_pendulum"),
    "quadrotor": (sc.QuadrotorConfig, "build_quadrotor"),
}


def _scenario_config(args):
    cfg = SCENARIOS[args.scenario][0]()
    overrides = {}
    if args.config:
        raw = _load_config_section(args.config, args.scenario)
        defaults = dataclasses.asdict(cfg)
        for key, val in raw.items():
            if key not in defaults:
                raise OdcbfError(f"unknown config key {key!r} in section [{args.scenario}]")
            try:
                overrides[key] = _coerce(val, defaults[key])
            except ValueError:
                raise ParameterError(f"malformed value {val!r} for config key {key!r}") from None
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.disturbance is not None:
        overrides["disturbance"] = args.disturbance
    return dataclasses.replace(cfg, **overrides)


def _build(args, **changes):
    """The scenario of ``args``, its config further changed by ``changes``."""
    cfg = dataclasses.replace(_scenario_config(args), **changes)
    return getattr(sc, SCENARIOS[args.scenario][1])(cfg)


def _rollout_config(args):
    kw = {}
    if args.dt is not None:
        kw["dt"] = args.dt
    if args.t_final is not None:
        kw["t_final"] = args.t_final
    return RolloutConfig(**kw)


def _out_path(args, name):
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out!r}: {exc.strerror}") from None
    return os.path.join(out, name)


def _write_trajectory(args, traj):
    traj.to_csv(_out_path(args, f"{args.scenario}_trajectory.csv"))
    traj.to_json(_out_path(args, f"{args.scenario}_trajectory.json"))


def cmd_run(args):
    """One rollout; an aborted one still writes the rows before the abort, but no metrics."""
    scn, cfg = _build(args), _rollout_config(args)
    try:
        traj, metrics = rollout(scn, cfg)
    except (SimulationAbort, IntegrationError) as exc:
        _write_trajectory(args, exc.trajectory)
        raise
    _write_trajectory(args, traj)
    write_json_atomic(_out_path(args, f"{args.scenario}_metrics.json"), metrics.to_dict())
    print(f"scenario={args.scenario} steps={len(traj.times)} min_h={metrics.min_h:.6g} "
          f"min_layer_h={metrics.min_layer_h:.6g} max_violation={metrics.max_violation:.6g} "
          f"issf_bound_satisfied={metrics.issf_bound_satisfied} theta_floor_ok={metrics.theta_floor_ok}")
    return 0


def _sweep_change(param, value):
    """The config change of the sweep cell at ``value``."""
    number = _floats(value)[0]
    if param == "direction":
        return {"disturbance": f"dir:{number}"}
    return {param: number}


def cmd_sweep(args):
    """A table of one rollout per value; exits RUNTIME_FAILURE, after writing it, if any cell aborted."""
    cfg = _rollout_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ParameterError(f"--values {args.values!r} names no value")
    cells = {v: _build(args, **_sweep_change(args.param, v)) for v in values}
    payload = {"scenario": args.scenario, "param": args.param, "cells": sweep(cells, cfg)}
    path = _out_path(args, f"{args.scenario}_sweep_{args.param}.json")
    write_json_atomic(path, payload)
    for label, entry in payload["cells"].items():
        print(f"{args.param}={label}: {entry}")
    aborted = [label for label, entry in payload["cells"].items() if "error" in entry]
    if aborted:
        print(f"error: {len(aborted)} of {len(cells)} sweep cells aborted ({args.param}={', '.join(aborted)}); "
              f"table: {path}", file=sys.stderr)
        return RUNTIME_FAILURE
    return 0


def _run_check(check, seed, rng):
    """Run one scenario check; returns (report entry, passed).

    The sampling checks seed their own generator with ``seed``; the checks
    on drawn states take them from ``rng``, in the order they are run.
    """
    kind = check.kind
    if kind in ("od_issf", "prop1"):
        fn = check_od_issf if kind == "od_issf" else check_prop1
        sampler = exterior_sampler(check.bar, *check.box)
        rep = fn(check.sys, check.bar, sampler, seed=seed, **check.options)
        return rep.to_dict(), rep.verdict == "pass"
    if kind == "regular_values":
        rep = check_regular_values(check.bar, seed=seed, **check.options)
        return rep.to_dict(), rep.verdict in ("pass", "vacuous-pass")
    states = [rng.uniform(*check.box) for _ in range(check.count)]
    if kind == "matched":
        res = check_matched(check.sys, states)
        return {"matched": res["matched"], "max_residual": res["max_residual"]}, res["matched"] == check.expect_matched
    if kind == "probe":
        entry = check.probe(states)
        return entry, entry["ok"]
    raise OdcbfError(f"unknown check kind {kind!r}")


def cmd_verify(args):
    scn = _build(args)
    rng = np.random.default_rng(args.seed)
    report = {"scenario": args.scenario, "checks": {}}
    ok = True
    for check in scn.checks:
        entry, passed = _run_check(check, args.seed, rng)
        box = None if check.box is None else {"lo": list(map(float, check.box[0])), "hi": list(map(float, check.box[1]))}
        barrier = None if check.bar is None else {"n": check.bar.n, "layers": check.bar.layers}
        entry["checked"] = {
            "scenario": scn.name, "n": check.sys.n, "m": check.sys.m, "p": check.sys.p, "box": box, "barrier": barrier,
        }
        report["checks"][check.key] = entry
        ok &= passed
    report["verdict"] = "pass" if ok else "fail"
    path = _out_path(args, f"{args.scenario}_verify.json")
    write_json_atomic(path, report)
    print(f"verification verdict: {report['verdict']} (report: {path})")
    return 0 if ok else VERIFY_FAILURE


def _floats(text):
    """The comma-separated numbers of a flag's value (None if it is not given)."""
    try:
        return [float(v) for v in text.split(",")] if text else None
    except ValueError:
        raise ParameterError(f"malformed number in {text!r}") from None


def cmd_plotdata(args):
    scn = _build(args)
    cfg = _rollout_config(args)

    def rollout_of(**changes):
        return rollout(_build(args, **changes) if changes else scn, cfg)[0]

    options = {name: _floats(getattr(args, name)) for name in ("epsilons", "deltas", "directions")}
    payload = {"scenario": args.scenario, **scn.plot_series(rollout_of, options)}
    path = _out_path(args, f"{args.scenario}_plotdata.json")
    write_json_atomic(path, payload)
    print(f"plot data written: {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="odcbf", description="Optimal-decay safety filter toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
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
    if args.seed < 0:  # numpy's default_rng refuses it
        parser.error(f"argument --seed: negative seed {args.seed}")
    try:
        return args.fn(args)
    except OdcbfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_FAILURE if isinstance(exc, RUNTIME_ERRORS) else BUILD_FAILURE


if __name__ == "__main__":
    sys.exit(main())

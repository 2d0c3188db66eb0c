"""Span tracing of odcbf's module boundaries, installed from outside the package.

The tracer replaces module attributes and class methods that odcbf looks up
at call time with thin wrappers. A span wrapper records (name, start, end,
parent) for every call; a counter wrapper only counts. Every wrapper also
counts the calls made while a rollout is stepping, so evaluation counts can
be given per RK4 step. Spans stay in memory until ``dump`` writes them.

Wrappers must be installed before any scenario is built: the barrier
builders bind ``value_and_grad`` and ``h`` into a ``BarrierSpec`` at build
time, so a scenario built earlier keeps the unwrapped methods.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import os
from collections import Counter
from time import perf_counter_ns

import odcbf.autodiff
import odcbf.backstepping
import odcbf.cli
import odcbf.drd
import odcbf.dynamics
import odcbf.odfilter
import odcbf.scenarios
import odcbf.sim
import odcbf.synthesis
import odcbf.verify
from odcbf.errors import InfeasiblePointError

# (owner, attribute, span name). Owners are modules or classes; a name that
# odcbf imports into several modules is wrapped in each of them.
SPAN_TARGETS = (
    (odcbf.cli, "main", "cli.main"),
    (odcbf.scenarios, "build_pendulum", "scenarios.build"),
    (odcbf.scenarios, "build_quadrotor", "scenarios.build"),
    (odcbf.cli, "rollout", "sim.rollout"),
    (odcbf.sim, "rollout", "sim.rollout"),
    (odcbf.sim, "rk4_step", "sim.rk4_step"),
    (odcbf.sim, "compute_metrics", "sim.compute_metrics"),
    (odcbf.sim.Trajectory, "to_csv", "sim.write"),
    (odcbf.sim.Trajectory, "to_json", "sim.write"),
    (odcbf.cli, "write_json_atomic", "sim.write"),
    (odcbf.dynamics, "eval_dynamics", "dynamics.eval_dynamics"),
    (odcbf.odfilter, "eval_lie", "barrier.eval_lie"),
    (odcbf.verify, "eval_lie", "barrier.eval_lie"),
    (odcbf.odfilter, "solve_decay_filter", "odfilter.solve"),
    (odcbf.backstepping.CompositeBarrier, "value_and_grad", "backstepping.value_and_grad"),
    (odcbf.backstepping.CompositeBarrier, "h", "backstepping.h"),
    (odcbf.drd.DrdBarrier, "value_and_grad", "drd.value_and_grad"),
    (odcbf.drd, "pinv_apply", "drd.pinv_apply"),
    (odcbf.synthesis.SmoothVirtualController, "with_jacobian", "synthesis.with_jacobian"),
    (odcbf.synthesis, "half_sontag", "synthesis.half_sontag"),
    (odcbf.autodiff, "jacobian", "autodiff.jacobian"),
    (odcbf.cli, "check_od_issf", "verify.check_od_issf"),
    (odcbf.cli, "check_prop1", "verify.check_prop1"),
    (odcbf.cli, "check_regular_values", "verify.check_regular_values"),
    (odcbf.cli, "check_matched", "verify.check_matched"),
    (odcbf.verify, "qp_oracle", "verify.qp_oracle"),
    (odcbf.verify.BoxRegionSampler, "draw", "verify.sampler_draw"),
)

# (owner, attribute, counter name): hot constructors, counted without a span.
COUNT_TARGETS = ((odcbf.autodiff.Dual, "__init__", "autodiff.dual_new"),)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("autodiff.dual_new_per_step", "count/step"),
    ("autodiff.jacobian.calls", "count"),
    ("autodiff.jacobian.self_ms", "ms"),
    ("synthesis.k_evals_per_step", "count/step"),
    ("synthesis.with_jacobian.calls", "count"),
    ("backstepping.value_and_grad.calls", "count"),
    ("backstepping.value_and_grad.self_ms", "ms"),
    ("backstepping.h.calls", "count"),
    ("drd.value_and_grad.calls", "count"),
    ("drd.value_and_grad.self_ms", "ms"),
    ("drd.pinv_apply.calls", "count"),
    ("drd.drift_evals_per_step", "count/step"),
    ("barrier.eval_lie.calls", "count"),
    ("barrier.eval_lie.self_ms", "ms"),
    ("barrier.grad_evals_per_step", "count/step"),
    ("dynamics.eval_dynamics.calls", "count"),
    ("dynamics.eval_dynamics.self_ms", "ms"),
    ("odfilter.solve.calls", "count"),
    ("odfilter.solve.self_ms", "ms"),
    ("odfilter.active_frac", "frac"),
    ("odfilter.infeasible", "count"),
    ("sim.rk4_step.calls", "count"),
    ("sim.rk4_step.self_ms", "ms"),
    ("sim.write_ms", "ms"),
    ("sim.write_bytes", "B"),
    ("sim.compute_metrics.self_ms", "ms"),
    ("verify.check_od_issf.self_ms", "ms"),
    ("verify.check_prop1.self_ms", "ms"),
    ("verify.check_regular_values.self_ms", "ms"),
    ("verify.check_matched.self_ms", "ms"),
    ("verify.qp_oracle.self_ms", "ms"),
    ("verify.sampler_accept_frac", "frac"),
    ("verify.zero_set_hit_frac", "frac"),
    ("scenarios.build_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def self_times(spans):
    """Self time of each span: its duration minus the union its children cover.

    ``spans`` is a list of (name, start, end, parent_index) with parent -1 for
    a root. Children are clipped to their parent's interval before the union
    is taken, so overlapping or overhanging children are not counted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


class Tracer:
    """Spans and counts of one traced operation; ``trace_id`` tags its spans."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self.counts = Counter()
        self.step_counts = Counter()
        self.extra = Counter()
        self._stack = []
        self._stepping = False
        self._patches = []
        self.missing = []

    # -- wrappers ----------------------------------------------------------

    def _tick(self, name):
        self.counts[name] += 1
        if self._stepping:
            self.step_counts[name] += 1

    def _span(self, name, fn, after=None):
        spans, stack, tick = self.spans, self._stack, self._tick

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick(name)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        tick = self._tick

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick(name)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_rk4(self, fn):
        inner = self._span("sim.rk4_step", fn)

        def wrapper(*args, **kwargs):
            self._stepping = True
            self.extra["rk4_steps"] += 1
            return inner(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _wrap_rollout(self, fn):
        inner = self._span("sim.rollout", fn)

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self._stepping = False

        return functools.wraps(fn)(wrapper)

    def _wrap_solve(self, fn):
        extra = self.extra

        def solve(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except InfeasiblePointError:
                extra["infeasible"] += 1
                raise
            extra["active"] += bool(res.constraint_active)
            return res

        return self._span("odfilter.solve", functools.wraps(fn)(solve))

    def _wrap_draw(self, fn):
        extra = self.extra

        def draw(sampler, rng, count):
            pred = sampler.predicate

            def counted(x):
                extra["sampler_tries"] += 1
                return pred(x)

            out = fn(dataclasses.replace(sampler, predicate=counted), rng, count)
            extra["sampler_accepts"] += len(out)
            return out

        return self._span("verify.sampler_draw", functools.wraps(fn)(draw))

    def _after_write(self, result, args, kwargs):
        # Trajectory.to_csv(self, path) / to_json(self, path) / write_json_atomic(path, payload)
        path = args[1] if isinstance(args[0], odcbf.sim.Trajectory) else args[0]
        self.extra["write_bytes"] += os.path.getsize(path)

    def _after_od_issf(self, report, args, kwargs):
        self.extra["zero_set_hits"] += report.zero_set_hits
        self.extra["zero_set_seeds"] += report.samples_checked

    # -- install / remove ---------------------------------------------------

    def _make(self, name, fn):
        if name == "sim.rk4_step":
            return self._wrap_rk4(fn)
        if name == "sim.rollout":
            return self._wrap_rollout(fn)
        if name == "odfilter.solve":
            return self._wrap_solve(fn)
        if name == "verify.sampler_draw":
            return self._wrap_draw(fn)
        if name == "sim.write":
            return self._span(name, fn, after=self._after_write)
        if name == "verify.check_od_issf":
            return self._span(name, fn, after=self._after_od_issf)
        return self._span(name, fn)

    def install(self):
        """Wrap every target that exists; missing ones are listed in ``missing``.

        A target renamed or deleted by a later commit only leaves its metrics
        at 0, so the traced run keeps working on any commit.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [(o, a, self._make(n, o.__dict__[a]) if a in o.__dict__ else None) for o, a, n in SPAN_TARGETS]
        targets += [(o, a, self._counter(n, o.__dict__[a]) if a in o.__dict__ else None) for o, a, n in COUNT_TARGETS]
        for owner, attr, wrapper in targets:
            if wrapper is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of this trace (all but trace.overhead_frac)."""
        self_ns, total_ns = Counter(), Counter()
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            self_ns[name] += own
            total_ns[name] += end - start
        calls, per_step, ex = self.counts, self.step_counts, self.extra
        steps = ex["rk4_steps"]

        def ms(ns):
            return ns / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "autodiff.dual_new_per_step": ratio(per_step["autodiff.dual_new"], steps),
            "autodiff.jacobian.calls": calls["autodiff.jacobian"],
            "autodiff.jacobian.self_ms": ms(self_ns["autodiff.jacobian"]),
            "synthesis.k_evals_per_step": ratio(per_step["synthesis.half_sontag"], steps),
            "synthesis.with_jacobian.calls": calls["synthesis.with_jacobian"],
            "backstepping.value_and_grad.calls": calls["backstepping.value_and_grad"],
            "backstepping.value_and_grad.self_ms": ms(self_ns["backstepping.value_and_grad"]),
            "backstepping.h.calls": calls["backstepping.h"],
            "drd.value_and_grad.calls": calls["drd.value_and_grad"],
            "drd.value_and_grad.self_ms": ms(self_ns["drd.value_and_grad"]),
            "drd.pinv_apply.calls": calls["drd.pinv_apply"],
            "drd.drift_evals_per_step": ratio(per_step["drd.pinv_apply"], steps),
            "barrier.eval_lie.calls": calls["barrier.eval_lie"],
            "barrier.eval_lie.self_ms": ms(self_ns["barrier.eval_lie"]),
            "barrier.grad_evals_per_step": ratio(
                per_step["backstepping.value_and_grad"] + per_step["drd.value_and_grad"], steps
            ),
            "dynamics.eval_dynamics.calls": calls["dynamics.eval_dynamics"],
            "dynamics.eval_dynamics.self_ms": ms(self_ns["dynamics.eval_dynamics"]),
            "odfilter.solve.calls": calls["odfilter.solve"],
            "odfilter.solve.self_ms": ms(self_ns["odfilter.solve"]),
            "odfilter.active_frac": ratio(ex["active"], calls["odfilter.solve"]),
            "odfilter.infeasible": ex["infeasible"],
            "sim.rk4_step.calls": calls["sim.rk4_step"],
            "sim.rk4_step.self_ms": ms(self_ns["sim.rk4_step"]),
            "sim.write_ms": ms(total_ns["sim.write"]),
            "sim.write_bytes": ex["write_bytes"],
            "sim.compute_metrics.self_ms": ms(self_ns["sim.compute_metrics"]),
            "verify.check_od_issf.self_ms": ms(self_ns["verify.check_od_issf"]),
            "verify.check_prop1.self_ms": ms(self_ns["verify.check_prop1"]),
            "verify.check_regular_values.self_ms": ms(self_ns["verify.check_regular_values"]),
            "verify.check_matched.self_ms": ms(self_ns["verify.check_matched"]),
            "verify.qp_oracle.self_ms": ms(self_ns["verify.qp_oracle"]),
            "verify.sampler_accept_frac": ratio(ex["sampler_accepts"], ex["sampler_tries"]),
            "verify.zero_set_hit_frac": ratio(ex["zero_set_hits"], ex["zero_set_seeds"]),
            "scenarios.build_ms": ms(total_ns["scenarios.build"]),
            "cli.self_ms": ms(self_ns["cli.main"]),
        }

    def dump(self, fh):
        """Write this trace's spans, one tab-separated line each."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{self.trace_id}\t{i}\t{name}\t{start}\t{end}\t{parent}\n")


def dump_traces(tracers, path):
    """Write every trace of a run to one gzip file when the run ends."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("trace_id\tspan\tname\tstart_ns\tend_ns\tparent\n")
        for tracer in tracers:
            tracer.dump(fh)

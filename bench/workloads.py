"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. An operation goes through ``odcbf.cli.main``
(or, for ``filter-qp``, through ``solve_decay_filter``) and its outputs are
checked against references; a decision probe then replays filter decisions
at the workload's states and checks them against the KKT oracle.

An iteration keeps the raw ``perf_counter_ns`` interval of every timed
operation and decision; the runner scales them to the reference speed
afterwards. While it measures, it sets ``Workload.tick`` to its speed
sampler's ``tick``, and decision loops call it every ``TICK_EVERY_NS`` (see
calibration.py).

Module attributes are looked up at call time (``odfilter.solve_decay_filter``
rather than a name bound at import), so a tracer installed around an
operation sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import odcbf.barrier
import odcbf.cli
import odcbf.dynamics
import odcbf.odfilter
import odcbf.scenarios
import odcbf.verify
from calibration import TICK_EVERY_NS
from odcbf.errors import InfeasiblePointError

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Rollout reference tolerance on min_h and min_layer_h. The acceptance suite's
# tightest rollout tolerance is 1e-6 (criterion 9); this is tighter.
MIN_H_TOL = 1e-9
# Closed form versus KKT oracle, as in acceptance criterion 1.
ORACLE_TOL = 1e-8
# The decision-probe states of quadrotor-gust-sweep and verify are the same in
# every run and every operation, like the pendulum's recorded states: their
# p99 then compares the program across runs, not two draws of rare states.
PROBE_SEED = 0

GUST_ANGLES = tuple(k * math.pi / 4 for k in range(8))
PENDULUM_ARGS = ("--scenario", "pendulum", "--epsilon", "10", "--disturbance", "sin", "--t-final", "2")
SWEEP_ARGS = (
    "--scenario", "quadrotor", "--param", "direction",
    "--values", ",".join(repr(a) for a in GUST_ANGLES), "--dt", "1e-2", "--t-final", "2",
)


@dataclass
class Iteration:
    """One operation plus its decision probe.

    ``units_ns`` holds the (start, end) of each timed part of the operation
    (two CLI calls for ``verify``, one elsewhere) and ``decisions_ns`` that
    of each timed decision, both in ``perf_counter_ns`` nanoseconds.
    """

    units_ns: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    decisions_ns: list = field(default_factory=list)
    fingerprint: str = ""

    @property
    def wall_s(self):
        """Raw wall time of the operation; NaN if it did not complete."""
        return sum(t1 - t0 for t0, t1 in self.units_ns) / 1e9 if self.units_ns else float("nan")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def reference(workload):
    """Seed-commit outputs of a deterministic workload (see reference.py)."""
    return json.loads(REFERENCE_PATH.read_text())[workload]


def _cli(argv):
    """Run one CLI command quietly; returns (exit code, (start ns, end ns))."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter_ns()
        code = odcbf.cli.main(list(argv))
        return code, (t0, perf_counter_ns())


def _fingerprint(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _close(a, b, tol):
    return abs(a - b) <= tol


def oracle_agrees(law, x, t, u):
    """True if the filtered input u matches the KKT oracle at (x, t)."""
    bar = law.bar
    lie = odcbf.barrier.eval_lie(law.sys, bar, x)
    u_nom = odcbf.dynamics.call_law(law.nominal, x, t)
    sol = odcbf.verify.qp_oracle(
        lie.lf_h, lie.lg_h, lie.lw_h, float(bar.alpha(lie.h_val)),
        bar.epsilon, bar.theta_d, bar.p_weight, u_nom,
    )
    return sol.feasible and float(np.max(np.abs(np.asarray(u) - sol.u))) <= ORACLE_TOL


def probe_decisions(it, law, states, times, tick, expected=None):
    """Time ``law.control`` at each state; check each input.

    With ``expected`` inputs the check is exact equality (a replay of recorded
    decisions); otherwise the input must match the KKT oracle. ``tick``, if
    set, is called every ``TICK_EVERY_NS`` between decisions.
    """
    last_tick = perf_counter_ns()
    for i, (x, t) in enumerate(zip(states, times)):
        try:
            t0 = perf_counter_ns()
            u = law.control(x, t)
            it.decisions_ns.append((t0, perf_counter_ns()))
        except Exception as exc:  # noqa: BLE001 - a raising decision is a failed operation
            it.check(False, f"decision at x={list(x)} raised {type(exc).__name__}: {exc}")
            continue
        if expected is not None:
            it.check(np.array_equal(u, expected[i]), f"replayed decision differs from recorded at t={t}")
        else:
            it.check(oracle_agrees(law, x, t, u), f"decision off the KKT oracle at x={list(x)}")
        if tick is not None and perf_counter_ns() - last_tick >= TICK_EVERY_NS:
            tick()
            last_tick = perf_counter_ns()


class Workload:
    name = ""
    rollout_steps = 0  # RK4 steps per operation, 0 when the workload runs none
    tick = None  # set by the runner while it measures speed

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def build(self):
        """Set-up: build the scenarios the workload's probe uses."""

    def iteration(self, i, probe=True) -> Iteration:
        raise NotImplementedError

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class PendulumRun(Workload):
    name = "pendulum-run"
    rollout_steps = 2000

    def build(self):
        cfg = odcbf.scenarios.PendulumConfig(epsilon=10.0, disturbance="sin")
        self.law = odcbf.scenarios.build_pendulum(cfg).filter_law

    def iteration(self, i, probe=True):
        code, unit = _cli(("run",) + PENDULUM_ARGS + ("--out", str(self.workdir)))
        it = Iteration(units_ns=[unit])
        csv_path = self.workdir / "pendulum_trajectory.csv"
        json_path = self.workdir / "pendulum_trajectory.json"
        metrics_path = self.workdir / "pendulum_metrics.json"
        if code != 0:
            it.check(False, f"odcbf run exited {code}")
            return it
        traj = json.loads(json_path.read_text())
        metrics = json.loads(metrics_path.read_text())
        ref = reference(self.name)
        it.check(
            not traj["truncated"] and len(traj["times"]) == self.rollout_steps + 1,
            f"rollout truncated or short: {traj['exit_reason']}",
        )
        it.check(_close(metrics["min_h"], ref["min_h"], MIN_H_TOL), f"min_h {metrics['min_h']} != {ref['min_h']}")
        it.check(
            _close(metrics["min_layer_h"], ref["min_layer_h"], MIN_H_TOL),
            f"min_layer_h {metrics['min_layer_h']} != {ref['min_layer_h']}",
        )
        it.fingerprint = _fingerprint([csv_path, json_path, metrics_path])
        if probe:
            rows = slice(1, None)  # every recorded state after t = 0
            probe_decisions(
                it, self.law, np.asarray(traj["states"])[rows], traj["times"][rows], self.tick,
                expected=np.asarray(traj["inputs"])[rows],
            )
        return it


class QuadrotorGustSweep(Workload):
    name = "quadrotor-gust-sweep"
    rollout_steps = 8 * 200
    probe_states = 1000
    states = None

    def build(self):
        cfgs = [odcbf.scenarios.QuadrotorConfig(disturbance=f"dir:{a!r}") for a in GUST_ANGLES]
        scns = [odcbf.scenarios.build_quadrotor(cfg) for cfg in cfgs]
        self.scn = scns[0]

    def iteration(self, i, probe=True):
        code, unit = _cli(("sweep",) + SWEEP_ARGS + ("--out", str(self.workdir)))
        it = Iteration(units_ns=[unit])
        path = self.workdir / "quadrotor_sweep_direction.json"
        if code != 0:
            it.check(False, f"odcbf sweep exited {code}")
            return it
        cells = json.loads(path.read_text())["cells"]
        for label, ref in reference(self.name)["cells"].items():
            cell = cells.get(label, {"error": "missing cell"})
            if "error" in cell:
                it.check(False, f"cell {label}: {cell['error']}")
                continue
            it.check(
                _close(cell["min_h"], ref["min_h"], MIN_H_TOL)
                and _close(cell["min_layer_h"], ref["min_layer_h"], MIN_H_TOL),
                f"cell {label}: min_h {cell['min_h']}, min_layer_h {cell['min_layer_h']} off reference",
            )
        it.fingerprint = _fingerprint([path])
        if probe:
            if self.states is None:
                cfg = self.scn.cfg
                rng = np.random.default_rng(PROBE_SEED)
                self.states = rng.uniform(cfg.box_lo, cfg.box_hi, size=(self.probe_states, len(cfg.box_lo)))
            probe_decisions(it, self.scn.filter_law, self.states, np.zeros(len(self.states)), self.tick)
        return it


class Verify(Workload):
    name = "verify"
    probe_states = 1000  # after each of the two verify calls
    states = None

    def build(self):
        self.pendulum = odcbf.scenarios.build_pendulum()
        self.quadrotor = odcbf.scenarios.build_quadrotor()

    def iteration(self, i, probe=True):
        seed = self.seed * 1000 + i  # each operation samples afresh, so a run spans several seeds
        it = Iteration()
        paths = []
        for scn in ("pendulum", "quadrotor"):
            code, unit = _cli(("verify", "--scenario", scn, "--seed", str(seed), "--out", str(self.workdir)))
            it.units_ns.append(unit)
            it.check(code == 0, f"odcbf verify --scenario {scn} --seed {seed} exited {code}")
            path = self.workdir / f"{scn}_verify.json"
            paths.append(path)
            if code in (0, odcbf.cli.VERIFY_FAILURE):
                self._check_report(it, scn, json.loads(path.read_text()))
            if probe:
                # Quadrotor decisions only: a pooled two-scenario sample would put
                # p50 between the two latency modes, where it is unstable. Probing
                # after each call samples the machine at two points per operation.
                if self.states is None:
                    rng = np.random.default_rng(PROBE_SEED)
                    self.states = self.quadrotor.exterior_sampler().draw(rng, self.probe_states)
                probe_decisions(it, self.quadrotor.filter_law, self.states, np.zeros(len(self.states)), self.tick)
        if not it.failures:
            it.fingerprint = _fingerprint(paths)
        return it

    @staticmethod
    def _check_report(it, scn, report):
        for name, check in report["checks"].items():
            what = f"{scn} check {name}: {check}"
            if "verdict" in check:
                ok = check["verdict"] == "pass"
                if name.endswith("od_issf"):
                    ok = ok and check["zero_set_hits"] >= 100 and check["min_margin"] > 1e-10
            elif "matched" in check:
                ok = check["matched"] == (name == "layer1_matched")  # only layer 1 is matched
            else:
                ok = bool(check["ok"])
            it.check(ok, what[:300])


def raw_terms(rng, xi_zero, zeta_nonpos, ups_neg):
    """One raw-term instance of the KKT case grid (the criterion-1 mix)."""
    m = int(rng.integers(1, 4))
    p_dist = int(rng.integers(1, 4))
    lg = np.zeros(m) if xi_zero else rng.normal(size=m)
    lw = rng.normal(size=p_dist)
    eps = float(rng.uniform(0.2, 5.0))
    theta_d = float(rng.uniform(0.1, 3.0))
    p = float(rng.uniform(0.2, 5.0))
    k_d = rng.normal(size=m)
    alpha_h = -abs(rng.normal()) if zeta_nonpos else rng.normal()
    lf = rng.normal() * 3.0
    if ups_neg:
        lf = -abs(rng.normal()) - 0.5 - float(lg @ k_d + theta_d * alpha_h - (lw @ lw) / eps)
    return (lf, lg, lw, alpha_h, k_d, eps, theta_d, p)


class FilterQP(Workload):
    name = "filter-qp"
    batch = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rng = np.random.default_rng([seed, 7])

    def iteration(self, i, probe=True):
        rng = self.rng
        batch = [raw_terms(rng, bool(k & 1), bool(k & 2), bool(k & 4)) for k in range(self.batch)]
        results, decisions = [], []
        solve = odcbf.odfilter.solve_decay_filter
        t_batch = last_tick = perf_counter_ns()
        for lf, lg, lw, alpha_h, k_d, eps, theta_d, p in batch:
            t0 = perf_counter_ns()
            try:
                res = solve(lf, lg, lw, alpha_h, k_d, eps, theta_d, p)
            except InfeasiblePointError:
                res = None
            decisions.append((t0, perf_counter_ns()))
            results.append(res)
            if self.tick is not None and perf_counter_ns() - last_tick >= TICK_EVERY_NS:
                self.tick()  # its time is taken out of the batch's wall time
                last_tick = perf_counter_ns()
        it = Iteration(units_ns=[(t_batch, perf_counter_ns())], decisions_ns=decisions)
        digest = hashlib.sha256()
        for (lf, lg, lw, alpha_h, k_d, eps, theta_d, p), res in zip(batch, results):
            sol = odcbf.verify.qp_oracle(lf, lg, lw, alpha_h, eps, theta_d, p, k_d)
            if not sol.feasible:
                it.check(res is None, "oracle-infeasible instance did not raise InfeasiblePointError")
                continue
            it.check(
                res is not None
                and float(np.max(np.abs(res.u - sol.u))) <= ORACLE_TOL
                and abs(res.theta_x - sol.omega) <= ORACLE_TOL,
                f"instance off the oracle: lf={lf}, lg={list(lg)}, alpha_h={alpha_h}",
            )
            digest.update(res.u.tobytes() + np.float64(res.theta_x).tobytes())
        it.fingerprint = digest.hexdigest()
        return it


WORKLOADS = {w.name: w for w in (PendulumRun, QuadrotorGustSweep, Verify, FilterQP)}

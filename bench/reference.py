"""Regenerate reference.json: the outputs later commits are checked against.

    python3 bench/reference.py

Runs the two deterministic rollout workloads once, untraced, and once more
traced, and records min_h / min_layer_h per rollout plus the per-step
evaluation counts of the traced runs. Only rerun this on purpose: the
recorded values are the seed commit's, and the benchmark fails any commit
whose rollouts leave them by more than MIN_H_TOL.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import git_commit  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import PENDULUM_ARGS, SWEEP_ARGS, _cli  # noqa: E402

COUNTS = (
    "synthesis.k_evals_per_step", "barrier.grad_evals_per_step",
    "drd.drift_evals_per_step", "autodiff.dual_new_per_step",
)


def main():
    out = BENCH.parent / ".bench_out" / "reference"
    ref = {"commit": git_commit()}
    code, _ = _cli(("run",) + PENDULUM_ARGS + ("--out", str(out)))
    assert code == 0, code
    metrics = json.loads((out / "pendulum_metrics.json").read_text())
    ref["pendulum-run"] = {k: metrics[k] for k in ("min_h", "min_layer_h")}
    code, _ = _cli(("sweep",) + SWEEP_ARGS + ("--out", str(out)))
    assert code == 0, code
    cells = json.loads((out / "quadrotor_sweep_direction.json").read_text())["cells"]
    ref["quadrotor-gust-sweep"] = {"cells": {k: {m: v[m] for m in ("min_h", "min_layer_h")} for k, v in cells.items()}}
    ref["seed_counts"] = {}
    for name, argv in (("pendulum-run", ("run",) + PENDULUM_ARGS), ("quadrotor-gust-sweep", ("sweep",) + SWEEP_ARGS)):
        with Tracer("reference") as tracer:
            _cli(argv + ("--out", str(out)))
        layer = tracer.layer_metrics()
        ref["seed_counts"][name] = {k: layer[k] for k in COUNTS}
    shutil.rmtree(out)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref, indent=1))


if __name__ == "__main__":
    main()

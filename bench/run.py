"""odcbf benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or a copy of it). The odcbf package is
imported from ``src/`` next to this directory; nothing is installed.
``--trace 0`` reports the end-to-end metrics with tracing off, every time
taken at a reference machine speed (see calibration.py); ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Run records and span dumps go to ``.bench_out/``. The exit code is 0 only
if every reference check passed.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads: every array here is
# at most 6x6, and the benchmark process must not start helper threads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pendulum-run", "quadrotor-gust-sweep", "verify", "filter-qp")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Decisions per latency chunk. Each chunk of an operation gives one p50 and
# one p99; the run reports the median over every chunk of every operation.
DECISION_CHUNK = 500


def measure_setup(workload):
    """Seconds from process start until odcbf is imported and built.

    Each sample is a fresh interpreter running setup_probe.py, which prints
    the monotonic clock (shared across processes) once it is ready, then the
    calibration kernel's time right after. Returns the samples at the
    reference speed and the raw ones. The speed sampler is off meanwhile: its
    samples would time this process and the probe contending for the CPUs.
    """
    from calibration import REF_KERNEL_S

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready, kernel_s = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(ready - t0)
        scaled.append(raw[-1] * REF_KERNEL_S / kernel_s)
    return scaled, raw


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(load_start):
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "os_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def run_loop(step, seconds, min_iterations):
    """Call step(i) until one more call would overrun ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        n = len(results)
        elapsed = time.perf_counter() - start
        if n >= min_iterations and elapsed * (n + 1) / n > seconds:
            return results


def guarded(wl, i, probe):
    """One iteration; an unexpected exception becomes a failed operation."""
    from workloads import Iteration

    try:
        return wl.iteration(i, probe=probe)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the run
        it = Iteration()
        it.check(False, f"iteration {i} raised {type(exc).__name__}: {exc}")
        return it


def median_or_nan(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def scale_iteration(it, sampler):
    """One iteration's wall time and decision percentiles at the reference speed.

    Handler time inside an operation is taken out of it; a decision with a
    speed sample inside it is dropped, and every other one is scaled by the
    nearest sample on either side. The decisions are split into consecutive
    chunks of about DECISION_CHUNK, each giving a p50 and a p99. Returns
    (wall_s, [(p50_us, p99_us), ...], number of decisions dropped).
    """
    import numpy as np

    units = np.asarray(it.units_ns, dtype=np.int64).reshape(-1, 2)
    _, busy = sampler.inside(units[:, 0], units[:, 1])
    own = units[:, 1] - units[:, 0] - busy
    wall = float(np.sum(own * sampler.factors(units[:, 0], units[:, 1]))) / 1e9 if len(units) else float("nan")
    dec = np.asarray(it.decisions_ns, dtype=np.int64).reshape(-1, 2)
    hits, _ = sampler.inside(dec[:, 0], dec[:, 1])
    clean = dec[hits == 0]
    latency_us = (clean[:, 1] - clean[:, 0]) * sampler.factors(clean[:, 0], clean[:, 1], pad_ns=0) / 1e3
    chunks = [
        tuple(float(v) for v in np.percentile(chunk, (50, 99)))
        for chunk in np.array_split(latency_us, max(round(len(latency_us) / DECISION_CHUNK), 1))
        if len(chunk)
    ]
    return wall, chunks, len(dec) - len(clean)


def end_to_end(wl, seconds, record):
    """Set-up probes, then operations with decision probes; tracing off.

    Every time is taken at the reference speed (see calibration.py). Each
    metric is a median over set-ups, operations or decision chunks. A chunk
    lasts a fraction of a second, so a burst of host stalls spoils a few
    chunks' p99 rather than the run's.
    """
    import numpy as np
    from calibration import REF_KERNEL_S, SpeedSampler

    walls, percentiles, raw_p50s = [], [], []
    dropped = 0

    def step(i):
        nonlocal dropped
        it = guarded(wl, i, probe=True)
        sampler.tick()  # a sample right after the last interval
        wall, chunks, n_dropped = scale_iteration(it, sampler)
        if it.decisions_ns:
            raw_p50s.append(float(np.median([t1 - t0 for t0, t1 in it.decisions_ns])) / 1e3)
        it.decisions_ns = []  # keep memory flat: peak_rss_mb must not grow with the operation count
        walls.append(wall)
        percentiles.extend(chunks)
        dropped += n_dropped
        return it

    setup_samples, setup_raw = measure_setup(wl.name)
    setup_s = statistics.median(setup_samples)
    wl.build()
    with SpeedSampler() as sampler:
        wl.tick = sampler.tick
        try:
            its = run_loop(step, seconds, 1)
        finally:
            wl.tick = None
    wall_s = median_or_nan(w for w in walls if w == w)
    p50 = median_or_nan(p[0] for p in percentiles)
    p99 = median_or_nan(p[1] for p in percentiles)
    raw_wall = median_or_nan(it.wall_s for it in its if it.units_ns)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "decision_us_p50": {"value": p50, "unit": "us"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    attempted = sum(it.attempted for it in its)
    failed_frac = sum(len(it.failures) for it in its) / max(attempted, 1)
    slowness = sampler.median_kernel_s() / REF_KERNEL_S
    lines = [
        f"  times at the reference speed; this run's machine took {slowness:.2f}x the reference kernel time"
        f" (median of {len(sampler.durations)} speed samples)",
        f"  setup_s          {setup_s:.4f} s    median of {len(setup_samples)} fresh processes"
        f" (raw {statistics.median(setup_raw):.4f} s)",
        f"  wall_s           {wall_s:.4f} s    median of {len(walls)} operations (raw {raw_wall:.4f} s)",
    ]
    if wl.rollout_steps:
        record["sim_steps_per_s"] = wl.rollout_steps / wall_s
        lines.append(f"  sim_steps_per_s  {wl.rollout_steps / wall_s:.1f} 1/s  {wl.rollout_steps} RK4 steps per operation")
    lines += [
        f"  decision_us_p50  {p50:.2f} us  median over {len(percentiles)} chunks of ~{DECISION_CHUNK} decisions"
        f" (raw {median_or_nan(raw_p50s):.2f} us, median over operations)",
        f"  decision_us_p99  {p99:.2f} us  median over the same chunks (printed only; see RATIONALE.md);"
        f" {dropped} decisions with a speed sample inside dropped",
        f"  failed_frac      {failed_frac:.6g}  of {attempted} operations",
        f"  peak_rss_mb      {rss_mb:.1f} MB",
    ]
    record.update(
        decision_us_p99=p99, setup_samples_s=setup_samples, setup_raw_s=setup_raw, wall_samples_s=walls,
        wall_raw_s=[it.wall_s for it in its], decision_chunks_us=percentiles, decision_p50_raw_us=raw_p50s, decisions_dropped=dropped,
        speed_samples=[sampler.starts, sampler.durations], kernel_median_s=sampler.median_kernel_s(), failed_frac=failed_frac,
    )
    return its, metrics, lines


def traced(wl, seconds, run_id, dump_path):
    """Alternate untraced and traced operations; per-layer medians."""
    from tracing import LAYER_METRICS, Tracer, dump_traces

    tracers = []

    def step(i):
        if i % 2 == 0:
            return guarded(wl, i, probe=False)
        tracer = Tracer(f"{run_id}/op{i}")
        with tracer:
            it = guarded(wl, i, probe=False)
        tracers.append(tracer)
        return it

    its = run_loop(step, seconds, 2)
    per_op = [t.layer_metrics() for t in tracers]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    untraced_wall = statistics.median(it.wall_s for it in its[::2])
    values["trace.overhead_frac"] = statistics.median(it.wall_s for it in its[1::2]) / untraced_wall - 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    dump_traces(tracers, str(dump_path))
    lines = [f"  spans: {sum(len(t.spans) for t in tracers)} in {len(tracers)} traced operations -> {dump_path}"]
    if tracers[0].missing:
        lines.append(f"  not traced (absent at this commit): {', '.join(tracers[0].missing)}")
    lines += [f"  {name:38s} {metrics[name]['value']:.6g} {unit}" for name, unit in LAYER_METRICS]
    return its, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odcbf" / "__init__.py").is_file():
        print(f"error: odcbf sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    wl = WORKLOADS[args.workload](args.seed, OUT / f"work-{run_id}")
    try:
        if args.trace:
            its, metrics, lines = traced(wl, args.seconds, run_id, OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            its, metrics, lines = end_to_end(wl, args.seconds, record)
    finally:
        wl.close()
    attempted = sum(it.attempted for it in its)
    failures = [f for it in its for f in it.failures]
    lines.insert(0, f"workload={args.workload} seed={args.seed} trace={args.trace} operations={len(its)}")
    lines += [f"  FAILED: {failure}" for failure in failures[:20]]
    result = {"correct": not failures and attempted > 0, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record.update(result, manifest=manifest(load_start), failures=failures[:200])
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print("manifest " + json.dumps(record["manifest"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, each in its own process; nonzero if any fails."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())

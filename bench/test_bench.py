"""Self-tests of the benchmark: span arithmetic, wrapper removal, and that
tracing leaves every workload's outputs bit-identical.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import COUNT_TARGETS, SPAN_TARGETS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_times_on_nested_tree():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.inner", 15, 25, 1),
        ("b", 50, 70, 0),
        ("c", 60, 80, 0),  # overlaps b: the union, not the sum, is covered
        ("d", 95, 120, 0),  # overhangs root: clipped at root's end
        ("other_root", 200, 210, -1),
    ]
    assert self_times(spans) == [100 - (30 + 30 + 5), 20, 10, 20, 20, 25, 10]


def _sampler(starts_ms, kernel_refs):
    """A speed sampler holding synthetic samples: start (ms), kernel time (in REF_KERNEL_S)."""
    from calibration import REF_KERNEL_S, SpeedSampler

    sampler = SpeedSampler()
    sampler.starts = [int(t * 1e6) for t in starts_ms]
    sampler.durations = [int(k * REF_KERNEL_S * 1e9) for k in kernel_refs]
    sampler.busy = list(sampler.durations)
    return sampler


def test_speed_factors_use_samples_near_the_interval():
    from calibration import PAD_NS

    assert PAD_NS < 400_000_000  # the sample times below assume it
    sampler = _sampler([0, 1000, 1100, 3000], [1, 2, 4, 8])
    ms = 1_000_000
    # within PAD_NS of the interval: the samples at 1000 and 1100 ms
    assert sampler.factors(1050 * ms, 1051 * ms) == pytest.approx(1 / 3)
    # none within PAD_NS: the nearest sample on each side
    assert sampler.factors(500 * ms, 600 * ms) == pytest.approx(1 / 1.5)
    assert sampler.factors(5000 * ms, 5100 * ms) == pytest.approx(1 / 8)
    count, busy = sampler.inside(900 * ms, 1200 * ms)
    assert count == 2 and busy == sampler.busy[1] + sampler.busy[2]


def test_scale_iteration_removes_sampler_time_and_hit_decisions():
    from run import scale_iteration
    from workloads import Iteration

    ms = 1_000_000
    sampler = _sampler([100, 200, 300], [2, 2, 2])  # the machine at half speed
    it = Iteration(units_ns=[(0, 400 * ms)], decisions_ns=[(150 * ms, 150 * ms + 500_000), (int(199.9 * ms), int(200.1 * ms))])
    wall, chunks, dropped = scale_iteration(it, sampler)
    assert wall == pytest.approx((0.4 - 3 * sampler.busy[0] / 1e9) * 0.5)
    assert dropped == 1  # the sample at 200 ms fell inside the second decision
    assert chunks == [pytest.approx((250.0, 250.0))]


def test_speed_sampler_restores_signal_state_and_leaves_outputs_alone(tmp_path):
    import signal

    from calibration import SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    plain = WORKLOADS["filter-qp"](5, tmp_path / "plain").iteration(0)
    with SpeedSampler() as sampler:
        for _ in range(4):  # long enough for the timer to fire
            sampled = WORKLOADS["filter-qp"](5, tmp_path / "sampled").iteration(0)
    assert sampler.durations  # the handler ran during the batches
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert not sampled.failures and sampled.fingerprint == plain.fingerprint


def _originals():
    return [owner.__dict__[attr] for owner, attr, _ in SPAN_TARGETS + COUNT_TARGETS]


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _originals()
    wl = WORKLOADS["filter-qp"](0, tmp_path)
    tracer = Tracer("test")
    with tracer:
        assert all(now is not orig for now, orig in zip(_originals(), before))
        wl.iteration(0, probe=False)
    assert all(now is orig for now, orig in zip(_originals(), before))
    assert tracer.counts["odfilter.solve"] == WORKLOADS["filter-qp"].batch


def test_wrappers_removed_when_traced_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer("test"):
            raise RuntimeError("boom")
    assert all(now is orig for now, orig in zip(_originals(), before))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    plain = WORKLOADS[name](3, tmp_path / "plain")
    plain.build()
    it_plain = plain.iteration(0, probe=False)
    traced = WORKLOADS[name](3, tmp_path / "traced")
    tracer = Tracer("test")
    with tracer:
        it_traced = traced.iteration(0, probe=False)
    assert not it_plain.failures and not it_traced.failures
    assert it_plain.fingerprint and it_plain.fingerprint == it_traced.fingerprint
    assert tracer.spans


def test_step_counts_repeat_exactly(tmp_path):
    counts = []
    for k in range(2):
        wl = WORKLOADS["pendulum-run"](0, tmp_path / str(k))
        with Tracer("test") as tracer:
            wl.iteration(0, probe=False)
        counts.append((dict(tracer.counts), dict(tracer.step_counts)))
    assert counts[0] == counts[1]
    steps = WORKLOADS["pendulum-run"].rollout_steps
    assert counts[0][1]["synthesis.half_sontag"] == 6 * steps
    assert counts[0][1]["backstepping.value_and_grad"] == 5 * steps


def test_absent_target_is_skipped(monkeypatch):
    import odcbf.sim
    import tracing

    monkeypatch.setattr(tracing, "SPAN_TARGETS", SPAN_TARGETS + ((odcbf.sim, "no_such_function", "sim.none"),))
    before = _originals()
    with Tracer("test") as tracer:
        assert tracer.missing == ["odcbf.sim.no_such_function"]
    assert all(now is orig for now, orig in zip(_originals(), before))
    assert "no_such_function" not in vars(odcbf.sim)

"""The benchmark's contract with the program, read from ``bench/`` without
changing it.

Every workload builds, runs one iteration with its decision probe and
checks the outputs against ``bench/reference.json``; every name that the
tracer wraps exists where it looks for it. A rename that would make the
benchmark report a failed run or incorrect outputs fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import COUNT_TARGETS, SPAN_TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_iteration_passes_its_checks(tmp_path, name):
    workload = WORKLOADS[name](0, tmp_path / "work")
    try:
        workload.build()
        it = workload.iteration(0, probe=True)
    finally:
        workload.close()
    assert it.attempted > 0
    assert not it.failures, it.failures[:5]


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in SPAN_TARGETS + COUNT_TARGETS],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in SPAN_TARGETS + COUNT_TARGETS],
)
def test_traced_name_exists(owner, attr):
    assert attr in owner.__dict__

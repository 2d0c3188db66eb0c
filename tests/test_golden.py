"""Golden numerics: rollouts, the gust sweep and the seed-0 verify reports,
compared against ``tests/data/golden.json``.

``golden_payload`` computes every figure the fixture holds through the CLI,
as a user runs it. Rollout states, inputs, h, h_layer and theta must agree
within 1e-12 (relative to 1 + |value|), as must the sweep's min_h; verify
verdicts and zero-set hit counts must agree exactly, and min margins within
1e-9. A change that moves the fixture states the largest difference and its
reason; the fixture is never regenerated to hide a regression.

    PYTHONPATH=src python tests/test_golden.py   # rewrite the fixture
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from odcbf import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
ROW_STRIDE = 20
ROLLOUT_TOL = 1e-12
MARGIN_TOL = 1e-9
RUN_KEYS = ("times", "states", "inputs", "h", "h_layer", "omegas")
VERIFY_KEYS = ("verdict", "zero_set_hits", "min_margin")
GUST_VALUES = ",".join(repr(k * math.pi / 4) for k in range(8))


def _cli(*argv):
    code = cli.main(list(argv))
    assert code == 0, f"odcbf {' '.join(argv)} exited {code}"


def golden_payload():
    """Every figure the fixture pins, computed by the program as it is."""
    payload = {"runs": {}, "verify": {}}
    with tempfile.TemporaryDirectory() as out:
        for scn in ("pendulum", "quadrotor"):
            _cli("run", "--scenario", scn, "--t-final", "2", "--dt", "1e-3", "--out", out)
            traj = json.loads(Path(out, f"{scn}_trajectory.json").read_text())
            payload["runs"][scn] = {key: traj[key][::ROW_STRIDE] for key in RUN_KEYS}
            _cli("verify", "--scenario", scn, "--seed", "0", "--out", out)
            report = json.loads(Path(out, f"{scn}_verify.json").read_text())
            payload["verify"][scn] = {
                "verdict": report["verdict"],
                "checks": {
                    name: {key: check[key] for key in VERIFY_KEYS}
                    for name, check in report["checks"].items()
                    if "zero_set_hits" in check
                },
            }
        _cli("sweep", "--scenario", "quadrotor", "--param", "direction", "--values", GUST_VALUES,
             "--dt", "1e-2", "--t-final", "2", "--out", out)
        cells = json.loads(Path(out, "quadrotor_sweep_direction.json").read_text())["cells"]
        payload["gust_sweep_min_h"] = {label: cell["min_h"] for label, cell in cells.items()}
    return payload


def _worst(got, want):
    """Largest |got - want| / (1 + |want|); inf if the shapes or NaN positions differ."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or np.any(np.isnan(got) != np.isnan(want)):
        return math.inf
    diff = np.abs(got - want) / (1.0 + np.abs(want))
    return float(np.max(np.where(np.isnan(want), 0.0, diff), initial=0.0))


def test_numerics_match_golden_fixture():
    want = json.loads(GOLDEN.read_text())
    got = golden_payload()

    for scn, run in want["runs"].items():
        for key, values in run.items():
            worst = _worst(got["runs"][scn][key], values)
            assert worst <= ROLLOUT_TOL, f"{scn} run {key}: relative difference {worst:.3e}"

    assert got["gust_sweep_min_h"].keys() == want["gust_sweep_min_h"].keys()
    for label, min_h in want["gust_sweep_min_h"].items():
        worst = _worst(got["gust_sweep_min_h"][label], min_h)
        assert worst <= ROLLOUT_TOL, f"gust sweep cell {label}: min_h relative difference {worst:.3e}"

    for scn, report in want["verify"].items():
        mine = got["verify"][scn]
        assert mine["verdict"] == report["verdict"], scn
        assert mine["checks"].keys() == report["checks"].keys(), scn
        for name, check in report["checks"].items():
            assert mine["checks"][name]["verdict"] == check["verdict"], (scn, name)
            assert mine["checks"][name]["zero_set_hits"] == check["zero_set_hits"], (scn, name)
            moved = abs(mine["checks"][name]["min_margin"] - check["min_margin"])
            assert moved <= MARGIN_TOL, f"{scn} {name}: min margin moved by {moved:.3e}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")

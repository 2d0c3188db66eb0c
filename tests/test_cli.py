import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import odcbf
from odcbf import scenarios
from odcbf.cli import BUILD_FAILURE, RUNTIME_FAILURE, SCENARIOS, _scenario_config, build_parser, main
from odcbf.scenarios import PendulumConfig, QuadrotorConfig


def test_run_writes_artifacts(tmp_path):
    code = main([
        "run", "--scenario", "pendulum", "--epsilon", "1.0",
        "--dt", "0.005", "--t-final", "0.5", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "pendulum_trajectory.csv").exists()
    assert (tmp_path / "pendulum_trajectory.json").exists()
    metrics = json.loads((tmp_path / "pendulum_metrics.json").read_text())
    assert "min_h" in metrics and "issf_bound_satisfied" in metrics


def test_run_quadrotor(tmp_path):
    code = main([
        "run", "--scenario", "quadrotor", "--disturbance", "dir:0.0",
        "--dt", "0.005", "--t-final", "0.5", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "quadrotor_metrics.json").exists()


def test_sweep_epsilon_grid(tmp_path):
    code = main([
        "sweep", "--scenario", "pendulum", "--param", "epsilon", "--values", "0.5,2.0",
        "--dt", "0.005", "--t-final", "0.5", "--out", str(tmp_path),
    ])
    assert code == 0
    table = json.loads((tmp_path / "pendulum_sweep_epsilon.json").read_text())
    assert set(table["cells"]) == {"0.5", "2.0"}
    for cell in table["cells"].values():
        assert "min_h" in cell


def test_verify_pendulum_passes(tmp_path):
    code = main(["verify", "--scenario", "pendulum", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "pendulum_verify.json").read_text())
    assert report["verdict"] == "pass"
    assert report["checks"]["layer1_prop1"]["verdict"] == "pass"
    assert report["checks"]["composite_od_issf"]["verdict"] == "pass"
    assert report["checks"]["layer1_matched"]["matched"] is True
    assert report["checks"]["full_matched"]["matched"] is False


def test_verify_quadrotor_passes(tmp_path):
    code = main(["verify", "--scenario", "quadrotor", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "quadrotor_verify.json").read_text())
    assert report["verdict"] == "pass"
    assert report["checks"]["drd_od_issf"]["verdict"] == "pass"
    assert report["checks"]["alignment"]["ok"] is True


def _verify_report(tmp_path, scenario):
    code = main(["verify", "--scenario", scenario, "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    return json.loads((tmp_path / f"{scenario}_verify.json").read_text())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_verify_reports_what_each_check_checked(tmp_path, scenario):
    cls, builder = SCENARIOS[scenario]
    scn = getattr(scenarios, builder)(cls())
    x0 = scn.x0
    # the layer count comes from the barrier's own construction
    assert scn.bar.n == x0.size and scn.bar.layers == 2
    report = _verify_report(tmp_path, scenario)
    zero_set = [check for key, check in report["checks"].items() if key.endswith("od_issf")]
    assert len(zero_set) == 1 and zero_set[0]["checked"]["n"] == x0.size
    assert zero_set[0]["checked"]["barrier"] == {"n": x0.size, "layers": 2}
    for check in report["checks"].values():
        checked = check["checked"]
        assert checked["scenario"] == scenario
        assert checked["n"] <= x0.size and checked["m"] >= 1 and checked["p"] >= 1
        if checked["box"] is not None:
            assert len(checked["box"]["lo"]) == len(checked["box"]["hi"]) == checked["n"]
        if checked["barrier"] is not None:
            # a check samples its barrier on its own system's states
            assert checked["barrier"]["n"] == checked["n"] and 1 <= checked["barrier"]["layers"] <= 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_with_aborted_cells_is_a_runtime_failure(tmp_path, capsys):
    code = main([
        "sweep", "--scenario", "pendulum", "--param", "epsilon", "--values", "1e-3,2e-3",
        "--dt", "0.3", "--t-final", "3", "--out", str(tmp_path),
    ])
    assert code == RUNTIME_FAILURE
    # the table is still written, with each aborted cell's error
    cells = json.loads((tmp_path / "pendulum_sweep_epsilon.json").read_text())["cells"]
    assert set(cells) == {"1e-3", "2e-3"} and all("error" in cell for cell in cells.values())
    assert "2 of 2 sweep cells aborted (epsilon=1e-3, 2e-3)" in capsys.readouterr().err


def test_plotdata_pendulum(tmp_path):
    code = main([
        "plotdata", "--scenario", "pendulum", "--epsilons", "1.0",
        "--deltas", "0.25,0.5", "--dt", "0.01", "--t-final", "0.3", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "pendulum_plotdata.json").read_text())
    assert "q_of_t_per_epsilon" in payload
    assert set(payload["delta_boundaries"]["inflated"]) == {"0.25", "0.5"}


def test_plotdata_quadrotor(tmp_path):
    code = main([
        "plotdata", "--scenario", "quadrotor", "--directions", "0.0,3.14159",
        "--dt", "0.01", "--t-final", "0.3", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "quadrotor_plotdata.json").read_text())
    assert set(payload["xy_per_direction"]) == {"0.0", "3.14159"}
    assert "theta_of_t" in payload


def test_unknown_scenario_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "rocket"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "pendulum", "--warp", "9"])
    assert exc.value.code == 2


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[pendulum]\nepsilon = 7.0\nmu = 0.25\n")
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", "pendulum", "--config", str(cfg),
        "--dt", "0.01", "--t-final", "0.2", "--out", str(out),
    ])
    assert code == 0
    # flag overrides file
    code = main([
        "run", "--scenario", "pendulum", "--config", str(cfg), "--epsilon", "1.0",
        "--dt", "0.01", "--t-final", "0.2", "--out", str(out),
    ])
    assert code == 0


def test_config_file_section_is_the_scenario_name(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[pendulum]\nmu = 0.25\n\n[quadrotor]\nx_max = 3.0\nk_att = 2.0\n")
    for scenario, expected in (("quadrotor", QuadrotorConfig(x_max=3.0, k_att=2.0)), ("pendulum", PendulumConfig(mu=0.25))):
        args = build_parser().parse_args(["run", "--scenario", scenario, "--config", str(cfg)])
        assert _scenario_config(args) == expected


def test_config_file_unknown_key_is_build_failure(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[pendulum]\nwarp_factor = 9\n")
    code = main([
        "run", "--scenario", "pendulum", "--config", str(cfg), "--out", str(tmp_path),
    ])
    assert code == 3


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("bound", ["nan", "-0.5"])
def test_bad_domain_bound_is_build_failure(tmp_path, capsys, scenario, command, bound):
    # NaN would switch the domain test off; b <= 0 would leave verify's sampler nothing to draw
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[{scenario}]\ndomain_b = {bound}\n")
    code = main([command, "--scenario", scenario, "--config", str(cfg), "--t-final", "0.1", "--out", str(tmp_path)])
    assert code == BUILD_FAILURE
    assert "domain_b must be positive" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{scenario}_*"))


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # numbers that do not parse
        (["run", "--scenario", "quadrotor", "--disturbance", "dir:abc"], None, "malformed number in disturbance"),
        (["run", "--scenario", "quadrotor", "--disturbance", "const:1,x"], None, "malformed number in disturbance"),
        (["run", "--scenario", "pendulum"], "[pendulum]\nepsilon = abc\n", "malformed value 'abc' for config key"),
        (["sweep", "--scenario", "pendulum", "--param", "epsilon", "--values", "1,abc"], None, "malformed number"),
        (["plotdata", "--scenario", "pendulum", "--epsilons", "1,abc"], None, "malformed number"),
        (["run", "--scenario", "pendulum", "--config", "no_such_file.ini"], None, "cannot read config file"),
        # non-finite settings: NaN fails every positivity test, and a NaN or infinite delta, dt or t_final is refused
        (["run", "--scenario", "pendulum", "--epsilon", "nan"], None, "epsilon must be positive"),
        (["run", "--scenario", "quadrotor", "--delta", "nan"], None, "delta must be finite"),
        (["run", "--scenario", "pendulum", "--delta", "inf"], None, "delta must be finite"),
        (["run", "--scenario", "quadrotor", "--disturbance", "dir:nan"], None, "non-finite number in disturbance"),
        (["run", "--scenario", "pendulum", "--dt", "nan"], None, "dt must be positive and finite"),
        (["run", "--scenario", "pendulum", "--t-final", "inf"], None, "t_final must be finite"),
        (["sweep", "--scenario", "quadrotor", "--param", "delta", "--values", "1,nan"], None, "delta must be finite"),
    ],
    ids=["dir-abc", "const-x", "config-abc", "sweep-values", "plotdata-list", "missing-config",
         "epsilon-nan", "delta-nan", "delta-inf", "dir-nan", "dt-nan", "t-final-inf", "sweep-delta-nan"],
)
def test_malformed_or_non_finite_setting_is_build_failure(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "exp.ini").write_text(config)
        argv = [*argv, "--config", "exp.ini"]
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == BUILD_FAILURE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing is run or written


@pytest.mark.parametrize(
    "config, flags",
    [
        # the initial state lies outside the barrier domain: DomainError at t = 0
        ("[pendulum]\ndomain_b = 0.5\nx0 = 2.0,0.0\n", ["--t-final", "0.1"]),
        # a 1 s step diverges until the filter data overflow: NonFiniteError
        ("[pendulum]\n", ["--dt", "1.0", "--t-final", "200"]),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runtime_abort_has_its_own_exit_code(tmp_path, capsys, config, flags):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    code = main(["run", "--scenario", "pendulum", "--config", str(cfg), *flags, "--out", str(tmp_path)])
    assert code == RUNTIME_FAILURE != BUILD_FAILURE
    err = capsys.readouterr().err
    assert "error:" in err
    if "--dt" in flags:
        # the NonFiniteError abort names the step and the stage time where the run stopped
        assert re.search(r"rollout aborted at step \d+ \(t=[0-9.e+-]+\): NonFiniteError", err), err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aborted_run_writes_its_trajectory_up_to_the_abort(tmp_path, capsys):
    code = main([
        "run", "--scenario", "pendulum", "--epsilon", "1e-3", "--dt", "0.3", "--t-final", "3", "--out", str(tmp_path),
    ])
    assert code == RUNTIME_FAILURE
    reason = "rollout aborted at step 3 (t=1.05): NonFiniteError"
    assert reason in capsys.readouterr().err
    traj = json.loads((tmp_path / "pendulum_trajectory.json").read_text())
    assert traj["truncated"] is True and traj["exit_reason"].startswith(reason)
    # the rows up to the last completed step, t = 0.9
    assert traj["times"] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    rows = (tmp_path / "pendulum_trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 and rows[0].startswith("t,x_1,x_2")
    assert not (tmp_path / "pendulum_metrics.json").exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test and benchmark extra
    src = str(Path(odcbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, odcbf.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

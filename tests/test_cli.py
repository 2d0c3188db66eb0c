import json

import pytest

from odcbf.cli import BUILD_FAILURE, RUNTIME_FAILURE, main


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


def test_config_file_unknown_key_is_build_failure(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[pendulum]\nwarp_factor = 9\n")
    code = main([
        "run", "--scenario", "pendulum", "--config", str(cfg), "--out", str(tmp_path),
    ])
    assert code == 3


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
    assert "error:" in capsys.readouterr().err


def test_stretch_scenario_behind_flag(tmp_path):
    code = main([
        "run", "--scenario", "quadrotor-full", "--dt", "0.005", "--t-final", "0.2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "quadrotor-full_metrics.json").exists()

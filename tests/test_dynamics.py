import numpy as np
import pytest

from odcbf.dynamics import DisturbanceSignal, DisturbedSystem, eval_dynamics
from odcbf.errors import ShapeError


def close_loop(sys, control, dist):
    """Reference closed-loop field (t, x) -> eval_dynamics(x, control(x, t), d(t))."""

    def field(t, x):
        x = np.asarray(x, dtype=float)
        return eval_dynamics(sys, x, control(x, t), dist.at(t))

    return field


def identity_system(n=2):
    return DisturbedSystem(
        n=n, m=n, p=n,
        f=lambda x: np.zeros(n),
        g=lambda x: np.eye(n),
        w=lambda x: np.eye(n),
    )


def pendulum_system(m=1.0, l=1.0, grav=9.81, beta=0.1, nu=0.5):
    ml2 = m * l * l
    return DisturbedSystem(
        n=2, m=1, p=1,
        f=lambda x: np.array([x[1], (grav / l) * np.sin(x[0]) - beta * x[1]]),
        g=lambda x: np.array([[0.0], [1.0 / ml2]]),
        w=lambda x: np.array([[nu], [1.0 / ml2]]),
    )


def test_identity_system_superposition():
    sys = identity_system()
    out = eval_dynamics(sys, np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(out, [1.0, 1.0])


def test_pendulum_equilibrium():
    sys = pendulum_system()
    out = eval_dynamics(sys, np.zeros(2), np.zeros(1), np.zeros(1))
    assert np.allclose(out, [0.0, 0.0])


def test_pendulum_hand_evaluated_point():
    # x=(0,1), u=0, d=1 with m=l=1, beta=0.1, nu=0.5:
    # qdot-row: 1 + 0.5*1 = 1.5 ; qddot-row: 9.81*sin(0) - 0.1*1 + 1*1 = 0.9
    sys = pendulum_system()
    out = eval_dynamics(sys, np.array([0.0, 1.0]), np.zeros(1), np.ones(1))
    assert out[0] == pytest.approx(1.5)
    assert out[1] == pytest.approx(0.9)


def test_shape_errors_name_offender():
    sys = identity_system()
    with pytest.raises(ShapeError, match="^u"):
        eval_dynamics(sys, np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ShapeError, match="^d"):
        eval_dynamics(sys, np.zeros(2), np.zeros(2), np.zeros(1))
    with pytest.raises(ShapeError, match="^x"):
        eval_dynamics(sys, np.zeros(1), np.zeros(2), np.zeros(2))


def test_linearity_in_input_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m, p = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        c = rng.normal(size=(n, p))
        sys = DisturbedSystem(n=n, m=m, p=p, f=lambda x, a=a: a @ x, g=lambda x, b=b: b, w=lambda x, c=c: c)
        x = rng.normal(size=n)
        u1, u2, d = rng.normal(size=m), rng.normal(size=m), rng.normal(size=p)
        lhs = eval_dynamics(sys, x, u1 + u2, d) - eval_dynamics(sys, x, u2, d)
        assert np.allclose(lhs, b @ u1, atol=1e-12)
        assert np.allclose(eval_dynamics(sys, x, np.zeros(m), np.zeros(p)), a @ x, atol=1e-12)


def test_close_loop_zero_law_reduces_to_drift():
    sys = pendulum_system()
    field = close_loop(sys, lambda x, t: np.zeros(1), DisturbanceSignal(value=lambda t: np.zeros(1), sup_norm=0.0))
    x = np.array([0.4, -0.2])
    assert np.allclose(field(1.23, x), sys.f(x))


def test_close_loop_scalar_integrator():
    sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)))
    field = close_loop(sys, lambda x, t: -x, DisturbanceSignal(value=lambda t: np.zeros(1), sup_norm=0.0))
    assert np.allclose(field(0.0, np.array([2.0])), [-2.0])


def test_close_loop_sinusoidal_disturbance_spot_check():
    sys = pendulum_system()
    dist = DisturbanceSignal(value=lambda t: np.array([np.sin(t)]), sup_norm=1.0)
    field = close_loop(sys, lambda x, t: np.zeros(1), dist)
    x = np.array([0.1, 0.0])
    # at t = pi/2 the disturbance is exactly 1
    expected = eval_dynamics(sys, x, np.zeros(1), np.ones(1))
    assert np.allclose(field(np.pi / 2, x), expected, atol=1e-12)


def test_close_loop_with_safety_filter_spot_check():
    from odcbf.scenarios import build_pendulum

    scn = build_pendulum()
    field = close_loop(scn.sys, scn.filter_law.control, scn.disturbance)
    x = np.array([0.3, 0.5])
    u = scn.filter_law.control(x, np.pi / 2)
    expected = eval_dynamics(scn.sys, x, u, np.ones(1))  # sin(pi/2) = 1
    assert np.allclose(field(np.pi / 2, x), expected, atol=1e-12)

"""The shipped experiments as declarative scenarios.

Physical parameters and nominal controllers are configuration, not ground
truth: the pendulum uses m = 1 kg, l = 1 m, g = 9.81, beta = 0.1, nu = 0.5
with a deliberately unsafe tracking reference 1.2 sin(0.5 t) so the filter
has work to do; the quadrotor rides a wind gust toward a wall at
x_max = 2 m with the wall constraint reduced to relative degree one via
h_z = a1 (x_max - x) - xdot. Both default to a unit linear decay function,
which makes the inflation gamma(delta) = eps delta^2 / (2 theta_d) analytic.

Every builder returns a :class:`Scenario`, so that the CLI runs, sweeps,
verifies and plots any scenario the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .backstepping import CompositeBarrier, Layer, StrictFeedbackSystem, check_full_row_rank
from .barrier import BarrierSpec, gamma_margin, linear_class_k
from .drd import DrdBarrier, DrdSystem, check_attitude_alignment, partial_closed_loop, quadrotor_eta_d
from .dynamics import DisturbanceSignal, DisturbedSystem
from .errors import ParameterError
from .odfilter import OdIssfController
from .synthesis import SmoothVirtualController, synth_virtual
from .verify import BoxRegionSampler, exterior_sampler


def _constant(values):
    """A read-only float array, built once for a closure to return on every call."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr

# -- disturbance catalog ---------------------------------------------------


def sin_disturbance(p=1, amplitude=1.0):
    """d(t) = amplitude * sin(t) on the first channel."""

    def value(t):
        d = np.zeros(p)
        d[0] = amplitude * math.sin(t)
        return d

    return DisturbanceSignal(value=value, sup_norm=abs(amplitude))


def zero_disturbance(p=1):
    return DisturbanceSignal(value=lambda t: np.zeros(p), sup_norm=0.0)


def constant_disturbance(vec):
    vec = np.asarray(vec, dtype=float)
    return DisturbanceSignal(value=lambda t: vec, sup_norm=float(np.linalg.norm(vec)))


def direction_disturbance(angle, magnitude=1.0):
    """Constant planar gust of the given magnitude at the given angle."""
    vec = magnitude * np.array([math.cos(angle), math.sin(angle)])
    return DisturbanceSignal(value=lambda t: vec, sup_norm=abs(magnitude))


def make_disturbance(name: str, p: int, delta: float = 1.0) -> DisturbanceSignal:
    """Parse a disturbance spec: "sin", "zero", "dir:<angle_rad>", "const:<v1,..>".

    A malformed or non-finite number in the spec, and a non-finite ``delta``
    (a NaN bound would turn the rollout's bound check off), raise ParameterError.
    """
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta!r}")
    if name == "sin":
        return sin_disturbance(p, amplitude=delta)
    if name == "zero":
        return zero_disturbance(p)
    kind, _, numbers = name.partition(":")
    if kind not in ("dir", "const"):
        raise ParameterError(f"unknown disturbance {name!r}")
    try:
        values = [float(v) for v in numbers.split(",")]
    except ValueError:
        raise ParameterError(f"malformed number in disturbance {name!r}") from None
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"non-finite number in disturbance {name!r}")
    if kind == "const":
        if len(values) != p:
            raise ParameterError(f"const disturbance needs {p} components")
        return constant_disturbance(values)
    if p != 2 or len(values) != 1:
        raise ParameterError("directional disturbances need a 2-D channel and one angle")
    return direction_disturbance(values[0], magnitude=delta)


# -- the scenario shape -----------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One verify check of a scenario, reported under ``key``; its report
    records the (n, m, p) of ``sys`` and the (lo, hi) corners of ``box``.

    ``kind`` is "od_issf" (``check_od_issf``) or "prop1" (``check_prop1``)
    on exterior states of ``bar``, in its domain, drawn from ``box``;
    "regular_values" (``check_regular_values``, rays from a center, no
    box); "matched": the disturbance channel of ``sys`` is matched at
    ``count`` states drawn from ``box`` iff ``expect_matched``; or "probe":
    ``probe(states)`` on ``count`` drawn states gives the report entry, with
    the verdict in "ok".
    ``options`` are keyword arguments of the check function.
    """

    key: str
    kind: str
    sys: DisturbedSystem
    box: Optional[tuple]
    bar: Optional[BarrierSpec] = None
    options: dict = field(default_factory=dict)
    count: int = 100
    expect_matched: bool = True
    probe: Optional[Callable] = None


@dataclass
class Scenario:
    """A built experiment: everything that run, sweep, verify and plotdata read.

    ``sys`` and ``bar`` (with its domain) are read from ``filter_law``, so a
    rollout runs what verify samples. ``layer_h(x)`` is the top layer's
    barrier at x, ``box`` the (lo, hi) corners of the state box that
    samplers draw from, and ``checks`` the verify checks of this
    construction. Subclasses add its pieces.
    """

    name: str
    cfg: object
    filter_law: OdIssfController
    x0: np.ndarray
    disturbance: DisturbanceSignal
    layer_h: Callable
    box: tuple
    checks: tuple

    @property
    def sys(self) -> DisturbedSystem:
        return self.filter_law.sys

    @property
    def bar(self) -> BarrierSpec:
        return self.filter_law.bar

    def exterior_sampler(self) -> BoxRegionSampler:
        return exterior_sampler(self.bar, *self.box)

    def plot_series(self, rollout_of, options) -> dict:
        """The series behind the scenario's figures.

        ``rollout_of(**changes)`` is the trajectory of this scenario rebuilt
        with its config changed by ``changes`` (as built, without any);
        ``options`` maps "epsilons", "deltas" and "directions" to lists of
        floats, or to None for the defaults.
        """
        raise NotImplementedError(f"scenario {self.name!r} has no figures")


# -- pendulum ---------------------------------------------------------------


@dataclass(frozen=True)
class PendulumConfig:
    mass: float = 1.0
    length: float = 1.0
    gravity: float = 9.81
    damping: float = 0.1  # beta
    nu: float = 0.5  # disturbance gain on the angle channel
    epsilon: float = 1.0
    theta_d: float = 1.0
    p_weight: float = 1.0
    mu: float = 0.5
    sigma: float = 1.0
    alpha_gain: float = 1.0
    ref_amplitude: float = 1.2  # deliberately unsafe tracking reference
    ref_freq: float = 0.5
    kp: float = 4.0
    kd: float = 4.0
    disturbance: str = "sin"
    delta: float = 1.0
    x0: tuple = (0.0, 0.0)
    box_lo: tuple = (-2.0, -4.0)
    box_hi: tuple = (2.0, 4.0)
    domain_b: float = math.inf  # composite barrier is unbounded below


@dataclass
class PendulumScenario(Scenario):
    top_sys: DisturbedSystem
    h1: BarrierSpec
    k1: SmoothVirtualController
    composite: CompositeBarrier
    sfs: StrictFeedbackSystem

    def delta_boundary(self, delta, n_grid=201):
        """Closed-form level set {h = -gamma(delta)} in the (q, qdot) plane.

        h = h1(q) - (1/2mu)(qdot - k1(q))^2 = -gamma resolves to two branches
        qdot = k1(q) +/- sqrt(2 mu (h1(q) + gamma)) wherever h1(q) + gamma >= 0.
        Returns (q, qdot_upper, qdot_lower) arrays.
        """
        gamma = gamma_margin(self.bar, delta)
        q_max = math.sqrt(1.0 + gamma)  # h1 = 1 - q^2
        q = np.linspace(-q_max, q_max, n_grid)
        # the reference k1(q) of the full state (q, 0): the barrier's kernel serves that shape
        k1_vals = np.array([self.composite.reference(np.array([qi, 0.0]))[0] for qi in q])
        pad = np.sqrt(np.maximum(2.0 * self.cfg.mu * (1.0 - q**2 + gamma), 0.0))
        return q, k1_vals + pad, k1_vals - pad

    def plot_series(self, rollout_of, options):
        """q(t) per filter gain epsilon, and the safe set with its inflations per delta."""
        series = {}
        for eps in options["epsilons"] or [0.1, 1.0, 10.0]:
            traj = rollout_of(epsilon=eps)
            series[str(eps)] = {"t": traj.times.tolist(), "q": traj.states[:, 0].tolist()}

        def level_set(delta):
            q, upper, lower = self.delta_boundary(delta)
            return {"q": q.tolist(), "qdot_upper": upper.tolist(), "qdot_lower": lower.tolist()}

        inflated = {}
        for delta in options["deltas"] or [0.25, 0.5, 1.0]:
            inflated[str(delta)] = {**level_set(delta), "gamma": gamma_margin(self.bar, delta)}
        return {
            "q_of_t_per_epsilon": series,
            "delta_boundaries": {"safe_set": level_set(0.0), "inflated": inflated},
        }


def build_pendulum(cfg: PendulumConfig = PendulumConfig()) -> PendulumScenario:
    """Assemble the pendulum: layer-1 synthesis, composite barrier, QP filter."""
    for name in ("mass", "length", "gravity", "epsilon", "theta_d", "p_weight", "mu", "sigma"):
        if not getattr(cfg, name) > 0:  # NaN too
            raise ParameterError(f"{name} must be positive")
    m, l, grav, beta, nu = cfg.mass, cfg.length, cfg.gravity, cfg.damping, cfg.nu
    ml2 = m * l * l
    alpha = linear_class_k(cfg.alpha_gain)

    # layer 1: qdot = x2 + nu d; layer 2: x2dot = (g/l) sin q - beta x2 + u/ml2 + d/ml2
    h1 = BarrierSpec(
        h=lambda x1: 1.0 - x1[0] * x1[0],
        grad_h=lambda x1: ad.stack([-2.0 * x1[0]]),
        alpha=alpha,
        epsilon=cfg.epsilon,
        theta_d=cfg.theta_d,
        p_weight=cfg.p_weight,
        n=1,
    )
    zero, one, w1, inv_ml2 = _constant([0.0]), _constant([[1.0]]), _constant([[nu]]), _constant([[1.0 / ml2]])
    layers = (
        Layer(f=lambda x1: zero, g=lambda x1: one, w=lambda x1: w1, dim=1),
        Layer(
            f=lambda x: ad.stack([(grav / l) * ad.sin(x[0]) - beta * x[1]]),
            g=lambda x: inv_ml2,
            w=lambda x: inv_ml2,
            dim=1,
        ),
    )
    sfs = StrictFeedbackSystem(layers=layers, m=1, p=1)
    top_sys = sfs.virtual_top()
    k1 = synth_virtual(top_sys, h1, cfg.sigma)
    composite = CompositeBarrier(h_top=h1, k=k1, mu=cfg.mu, n_top=1, n_bot=1)
    bar = composite.to_spec(domain_b=cfg.domain_b)
    sys = sfs.assemble()

    amp, om = cfg.ref_amplitude, cfg.ref_freq

    def nominal_torque(x, t, be):
        q, qd = x.tolist()
        q_ref = amp * math.sin(om * t)
        qd_ref = amp * om * math.cos(om * t)
        qdd_ref = -amp * om * om * math.sin(om * t)
        qdd_des = qdd_ref + cfg.kd * (qd_ref - qd) + cfg.kp * (q_ref - q)
        # feedback linearization of ml^2 qddot = ml^2 ((g/l) sin q - beta qdot) + u
        return np.array([ml2 * (qdd_des - (grav / l) * math.sin(q) + beta * qd)])

    box = (cfg.box_lo, cfg.box_hi)
    checks = (
        Check("layer1_prop1", "prop1", top_sys, (cfg.box_lo[:1], cfg.box_hi[:1]), h1),
        Check("composite_od_issf", "od_issf", sys, box, bar),
        Check("regular_values", "regular_values", sys, None, bar,
              options={"kappas": [0.0, -0.5], "center": np.zeros(2)}),
        Check("layer1_matched", "matched", top_sys, ((-2.0,), (2.0,))),
        # the angle channel's disturbance does not enter through the torque
        Check("full_matched", "matched", sys, ((-2.0, -2.0), (2.0, 2.0)), expect_matched=False),
    )
    return PendulumScenario(
        name="pendulum",
        cfg=cfg,
        filter_law=OdIssfController(sys, bar, nominal_torque),
        x0=np.asarray(cfg.x0, dtype=float),
        disturbance=make_disturbance(cfg.disturbance, p=1, delta=cfg.delta),
        layer_h=lambda x: float(h1.h(np.atleast_1d(x)[:1])),
        box=box,
        checks=checks,
        top_sys=top_sys,
        h1=h1,
        k1=k1,
        composite=composite,
        sfs=sfs,
    )


# -- planar quadrotor --------------------------------------------------------


@dataclass(frozen=True)
class QuadrotorConfig:
    mass: float = 1.0
    gravity: float = 9.81
    x_max: float = 2.0
    # a1 in h_z = a1 (x_max - x) - xdot. With the unit gust the closed loop
    # settles at wall distance 1/(4 a1); 3.0 puts it inside the 0.1 m band
    # where the attitude-alignment behavior is observable.
    hocbf_gain: float = 3.0
    epsilon: float = 1.0
    theta_d: float = 1.0
    p_weight: float = 1.0
    mu: float = 0.5
    sigma: float = 1.0
    alpha_gain: float = 1.0
    v_min_frac: float = 0.1  # thrust guard: v2 >= v_min_frac * m * g
    k_att: float = 5.0  # nominal attitude-tracking gain
    disturbance: str = "dir:0.0"
    delta: float = 1.0
    z0: tuple = (0.0, 0.0, 0.0, 0.0)
    eta0: tuple = (0.0,)
    box_lo: tuple = (0.0, -1.0, -1.0, -2.0, -1.2)
    box_hi: tuple = (3.5, 1.0, 3.0, 2.0, 1.2)
    domain_b: float = math.inf


@dataclass
class QuadrotorScenario(Scenario):
    """``sys`` is the partial closed loop on (z, eta) with input u_eta."""

    dsys: DrdSystem
    top_sys: DisturbedSystem
    h_z: BarrierSpec
    k_v: SmoothVirtualController
    attitude: Callable  # eta_d: virtual input -> aligning pitch
    dbar: DrdBarrier

    def eta_d_of_state(self, x):
        return float(self.dbar.reference(np.asarray(x, dtype=float))[0])

    def plot_series(self, rollout_of, options):
        """x(t) and theta(t) against eta_d along the run, and the (x, y) path per gust direction."""
        traj = rollout_of()
        payload = {
            "x_of_t": {"t": traj.times.tolist(), "x": traj.states[:, 0].tolist()},
            "theta_of_t": {
                "t": traj.times.tolist(),
                "theta": traj.states[:, 4].tolist(),
                "eta_d": [self.eta_d_of_state(x) for x in traj.states],
            },
        }
        xy = {}
        for ang in options["directions"] or [k * math.pi / 4 for k in range(8)]:
            states = rollout_of(disturbance=f"dir:{ang}").states
            xy[str(ang)] = {"x": states[:, 0].tolist(), "y": states[:, 1].tolist()}
        payload["xy_per_direction"] = xy
        return payload


def build_quadrotor(cfg: QuadrotorConfig = QuadrotorConfig()) -> QuadrotorScenario:
    """Assemble the simplified planar quadrotor (angular rate as input).

    z = (x, y, xdot, ydot), eta = theta; the thrust direction is
    psi(theta) = (-sin theta, cos theta) and the wind enters through the
    same channels as the thrust (w_z = g_z). The virtual controller carries
    a gravity feedforward so its second component stays at m*g > v_min,
    keeping the attitude map away from its v2 = 0 singularity.
    """
    for name in ("mass", "gravity", "x_max", "hocbf_gain", "epsilon", "theta_d", "p_weight", "mu", "sigma"):
        if not getattr(cfg, name) > 0:  # NaN too
            raise ParameterError(f"{name} must be positive")
    m, grav, a1, x_max = cfg.mass, cfg.gravity, cfg.hocbf_gain, cfg.x_max
    alpha = linear_class_k(cfg.alpha_gain)

    g_z = _constant(np.vstack([np.zeros((2, 2)), np.eye(2) / m]))
    zero, one, no_wind = _constant([0.0]), _constant([[1.0]]), _constant(np.zeros((1, 2)))

    dsys = DrdSystem(
        n_top=4,
        n_bot=1,
        m_bot=1,
        p=2,
        f_top=lambda z: ad.stack([z[2], z[3], 0.0, -grav]),
        g_top=lambda z: g_z,
        w_top=lambda z: g_z,  # wind gusts act on the center of mass
        f_bot=lambda eta: zero,
        g_bot=lambda eta: one,
        w_bot=lambda eta: no_wind,
        psi=lambda eta: ad.stack([-ad.sin(eta[0]), ad.cos(eta[0])])[:, None],
    )

    grad_h_z = _constant([-a1, 0.0, -1.0, 0.0])
    h_z = BarrierSpec(
        h=lambda z: a1 * (x_max - z[0]) - z[2],
        grad_h=lambda z: grad_h_z,
        alpha=alpha,
        epsilon=cfg.epsilon,
        theta_d=cfg.theta_d,
        p_weight=cfg.p_weight,
        n=4,
    )

    top_sys = DisturbedSystem(n=4, m=2, p=2, f=dsys.f_top, g=dsys.g_top, w=dsys.w_top)
    v_ff = _constant([0.0, m * grav])
    k_v = synth_virtual(top_sys, h_z, cfg.sigma, nominal=lambda z: v_ff)
    attitude = partial(quadrotor_eta_d, v_min=cfg.v_min_frac * m * grav)
    # a CompositeBarrier under the class name that tracers count apart
    dbar = DrdBarrier(h_top=h_z, k=k_v, mu=cfg.mu, n_top=4, n_bot=1, ref_map=attitude)
    bar = dbar.to_spec(domain_b=cfg.domain_b)
    sys = partial_closed_loop(dsys, k_v)

    k_att = cfg.k_att

    def nominal(x, t, be):
        # track the barrier's reference eta_d(k_v(z)); a barrier pass carries it already
        return -k_att * (x[4:] - (dbar.reference(x) if be is None else be.ref))

    x0 = np.concatenate([np.asarray(cfg.z0, dtype=float), np.asarray(cfg.eta0, dtype=float)])
    box = (cfg.box_lo, cfg.box_hi)

    def g_bot_row_rank(etas):
        report = check_full_row_rank(dsys.g_bot, etas)
        return {"min_singular_value": report.min_singular_value, "ok": report.ok}

    bottom = DisturbedSystem(n=1, m=1, p=2, f=dsys.f_bot, g=dsys.g_bot, w=dsys.w_bot)
    checks = (
        Check("drd_od_issf", "od_issf", sys, box, bar),
        Check("regular_values", "regular_values", sys, None, bar,
              options={"kappas": [0.0, -0.5], "center": x0}),
        Check("alignment", "probe", top_sys, (cfg.box_lo[:4], cfg.box_hi[:4]), count=200,
              probe=lambda zs: check_attitude_alignment(dsys, dbar, zs)),
        Check("g_bot_row_rank", "probe", bottom, ((-1.2,), (1.2,)), probe=g_bot_row_rank),
        # wind gusts are unmatched with respect to the rate input
        Check("partial_loop_matched", "matched", sys, box, expect_matched=False),
    )
    return QuadrotorScenario(
        name="quadrotor",
        cfg=cfg,
        filter_law=OdIssfController(sys, bar, nominal),
        x0=x0,
        disturbance=make_disturbance(cfg.disturbance, p=2, delta=cfg.delta),
        layer_h=lambda x: float(h_z.h(np.asarray(x, dtype=float)[:4])),
        box=box,
        checks=checks,
        dsys=dsys,
        top_sys=top_sys,
        h_z=h_z,
        k_v=k_v,
        attitude=attitude,
        dbar=dbar,
    )

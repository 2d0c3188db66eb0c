"""The lowered passes: the value-and-jacobian pass of the virtual controllers
and the state kernel of an evaluation are equal to their reference passes bit
for bit, traced once per branch combination, and defer to the reference
wherever a guard fails, raising its errors."""

import dataclasses
import math
import operator

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf import lower
from odcbf.backstepping import compose_barrier
from odcbf.barrier import BarrierEval, BarrierSpec, eval_lie, lie_kernel, lie_pass, linear_class_k
from odcbf.drd import partial_closed_loop
from odcbf.dynamics import DisturbedSystem, call_law
from odcbf.errors import (
    AlignmentError,
    InfeasiblePointError,
    NonFiniteError,
    SynthesisInfeasibleError,
    ThrustDomainError,
    TraceError,
)
from odcbf.odfilter import OdIssfController, solve_decay_filter
from odcbf.scenarios import PendulumConfig, QuadrotorConfig, build_pendulum, build_quadrotor
from odcbf.synthesis import synth_virtual


def controller_and_states(name, count, seed=0):
    """The scenario's virtual controller and ``count`` seeded states of its top block's box."""
    scn = build_pendulum() if name == "pendulum" else build_quadrotor()
    k = scn.k1 if name == "pendulum" else scn.k_v
    n = k.value_and_jacobian.n
    lo, hi = (np.asarray(c, dtype=float)[:n] for c in scn.box)
    return k, np.random.default_rng(seed).uniform(lo, hi, size=(count, n))


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_lowered_pass_equals_the_dual_pass(name):
    k, states = controller_and_states(name, 1000)
    for x in states:
        val, jac = k.with_jacobian(x)
        ref_val, ref_jac = ad.jacobian(k.k1, x)
        assert np.array_equal(val, ref_val) and np.array_equal(jac, ref_jac)
        assert val.shape == ref_val.shape and jac.shape == ref_jac.shape
    # both sides of a = 0 were met: one variant per branch of half-Sontag
    sources = k.value_and_jacobian.sources
    assert len(sources) == 2
    sides = [lower.trace(k.k1, x)[1] for x in states[:200]]
    assert sides.count(sources[0]) >= 10 and sides.count(sources[1]) >= 10


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_source_depends_only_on_the_branch_combination(name):
    k, states = controller_and_states(name, 200, seed=1)
    for x in states:
        k.with_jacobian(x)
    by_source = {}
    for x in states:
        _, source = lower.trace(k.k1, x)
        by_source.setdefault(source, []).append(x)
    assert sorted(by_source) == sorted(k.value_and_jacobian.sources)
    for source in by_source:
        assert "x0" in source and not any(repr(float(v)) in source for v in states.ravel())


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_non_finite_state_raises_the_reference_error(name):
    k, states = controller_and_states(name, 50)
    for x in states:
        k.with_jacobian(x)  # warm: the lowered variants exist
    x = states[0].copy()
    x[0] = math.nan
    with pytest.raises(NonFiniteError) as ref:
        ad.jacobian(k.k1, x)
    with pytest.raises(NonFiniteError) as got:
        k.with_jacobian(x)
    assert str(got.value) == str(ref.value)


def tiny_controller(nominal=None):
    """h = 1 - x^2 with b = L_g h = 0: feasible (a > 0) only for |x| < 1."""
    zero, no_input = np.zeros(1), np.zeros((1, 1))
    top = DisturbedSystem(n=1, m=1, p=1, f=lambda x: zero, g=lambda x: no_input, w=lambda x: no_input)
    bar = BarrierSpec(
        h=lambda x: 1.0 - x[0] * x[0],
        grad_h=lambda x: ad.stack([-2.0 * x[0]]),
        alpha=linear_class_k(),
        epsilon=1.0,
        theta_d=1.0,
        p_weight=1.0,
        n=1,
    )
    return synth_virtual(top, bar, sigma=1.0, nominal=nominal, layer=7)


def test_infeasible_state_raises_the_reference_error():
    k = tiny_controller()
    val, jac = k.with_jacobian(np.array([0.5]))  # a = 0.75 > 0: traced
    assert np.array_equal(val, [0.0]) and len(k.value_and_jacobian.sources) == 1
    x = np.array([2.0])  # a = -3 with b = 0: the a > 0 guard fails, the reference raises
    with pytest.raises(SynthesisInfeasibleError) as ref:
        ad.jacobian(k.k1, x)
    with pytest.raises(SynthesisInfeasibleError) as got:
        k.with_jacobian(x)
    assert str(got.value) == str(ref.value)
    assert np.array_equal(got.value.x, x) and got.value.a == ref.value.a == -3.0 and got.value.layer == 7
    assert len(k.value_and_jacobian.sources) == 1  # a failing state is never traced


@pytest.mark.parametrize(
    "nominal",
    [
        lambda x: np.array([0.0 * float(ad.value(x[0]))]),  # a float coercion
        lambda x: np.array([1.0 if ad.value(x[0]) > 0.0 else 0.0]),  # a decision outside ad.branch
    ],
)
def test_traced_value_used_as_a_number_fails_the_trace(nominal):
    k = tiny_controller(nominal)
    x = np.array([0.5])
    ad.jacobian(k.k1, x)  # the Dual pass takes the values and runs
    with pytest.raises(TraceError):
        k.with_jacobian(x)


@pytest.mark.parametrize(
    "fn, operation",
    [
        (lambda x: ad.stack([x[0] ** 2]), r"\*\*"),
        (lambda x: ad.stack([ad._unary(x[0], np.exp, np.exp)]), "exp"),  # an elementwise op with no lowering
    ],
    ids=["pow", "exp"],
)
def test_operation_without_a_lowering_fails_the_trace(fn, operation):
    lowered = lower.LoweredJacobian(fn, 1)
    x = np.array([0.5])
    ad.jacobian(fn, x)  # the Dual pass runs
    with pytest.raises(TraceError, match=operation):
        lowered(x)
    assert not lowered.sources


def test_sqrt_sin_and_cos_lower_exactly():
    fn = lambda x: ad.stack([ad.sin(x[0]) * ad.cos(x[1]), ad.sqrt(x[0] * x[0] + x[1] * x[1]), x[1]])
    lowered = lower.LoweredJacobian(fn, 2)
    for x in np.random.default_rng(2).uniform(-4.0, 4.0, size=(1000, 2)):
        val, jac = lowered(x)
        ref_val, ref_jac = ad.jacobian(fn, x)
        assert np.array_equal(val, ref_val) and np.array_equal(jac, ref_jac)
    assert len(lowered.sources) == 1 and "_sin(x0)" in lowered.sources[0]


def test_float_arithmetic_fault_defers_to_the_reference():
    # Python's float division raises where numpy returns inf: that state takes the Dual pass
    lowered = lower.LoweredJacobian(lambda x: ad.stack([1.0 / x[0]]), 1)
    assert np.array_equal(lowered(np.array([2.0]))[1], [[-0.25]])
    with np.errstate(divide="ignore"):
        val, jac = lowered(np.array([0.0]))
    assert val[0] == math.inf and len(lowered.sources) == 1


# -- the state kernel: the barrier pass, f, g, w and the Lie derivatives as one lowered pass


def build(name, **changes):
    return build_pendulum(PendulumConfig(**changes)) if name == "pendulum" else build_quadrotor(QuadrotorConfig(**changes))


def reference_evaluation(scn, x, t):
    """h, grad h, k, ref, ref_jac, f, g, w, L_f h, L_g h, L_w h, u and theta from the reference path:
    lie_pass on floats, the nominal on its barrier pass, then the filter."""
    h, grad, f, g, w, lf, lg, lw, k, ref, ref_jac, mu = lie_pass(scn.sys, scn.bar, x)
    u_nom = call_law(scn.filter_law.nominal, x, t, BarrierEval(h, grad, k, ref, ref_jac, mu))
    bar = scn.bar
    res = solve_decay_filter(lf, lg, lw, float(bar.alpha(h)), u_nom, bar.epsilon, bar.theta_d, bar.p_weight, x=x)
    return h, grad, k, ref, ref_jac, f, g, w, lf, lg, lw, res.u, res.theta_x


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_state_kernel_equals_the_reference_path(name):
    scn = build(name)
    rng = np.random.default_rng(11)
    for x in rng.uniform(*scn.box, size=(1000, scn.x0.size)):
        t = float(rng.uniform(0.0, 10.0))
        ev = scn.filter_law.evaluate(x, t)
        lie, be = ev.lie, ev.lie.bar_eval
        got = (lie.h_val, be.grad, be.k, be.ref, be.ref_jac, lie.f, lie.g, lie.w, lie.lf_h, lie.lg_h, lie.lw_h,
               ev.result.u, ev.result.theta_x)
        for mine, ref in zip(got, reference_evaluation(scn, x, t)):
            assert np.shape(mine) == np.shape(ref) and np.array_equal(mine, ref)
    kernel = lie_kernel(scn.sys, scn.bar)
    assert kernel.refusal is None and len(kernel.sources) == 2  # both branches of the virtual controller


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_state_kernel_traces_each_branch_combination_once(name):
    scn = build(name)
    k = scn.k1 if name == "pendulum" else scn.k_v
    kernel = lie_kernel(scn.sys, scn.bar)
    states = np.random.default_rng(12).uniform(*scn.box, size=(300, scn.x0.size))
    seen = set()
    for x in states:
        seen.add(lower.trace(k.k1, x[: k.value_and_jacobian.n])[1])  # the virtual controller's branches at x
        eval_lie(scn.sys, scn.bar, x)
        # a guard miss at a state of new branches retraces once; known branches reuse their variant
        assert len(kernel.sources) == len(seen)
    assert len(seen) == 2


def expect_reference_error(scn, x, error):
    """The evaluation at x raises what the reference path raises there, with its message."""
    with pytest.raises(error) as ref:
        reference_evaluation(scn, x, 0.0)
    with pytest.raises(error) as got:
        scn.filter_law.evaluate(x, 0.0)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_state_kernel_raises_the_reference_non_finite_error(name):
    scn = build(name)
    x = scn.x0.copy()
    scn.filter_law.evaluate(x)  # warm: traced
    x[0] = math.nan
    expect_reference_error(scn, x, NonFiniteError)
    assert len(lie_kernel(scn.sys, scn.bar).sources) == 1  # a failing state is never traced


def test_state_kernel_raises_the_reference_thrust_error():
    # with the guard above the thrust that k_v commands, every state fails the attitude map
    scn = build("quadrotor", v_min_frac=1.5)
    expect_reference_error(scn, scn.x0, ThrustDomainError)
    assert not lie_kernel(scn.sys, scn.bar).sources


def test_state_kernel_guard_miss_raises_the_reference_error():
    # a reference map defined for positive virtual inputs only: a guard of the kernel
    def positive(v):
        if ad.branch(operator.le, v[0], 0.0):
            raise ThrustDomainError(f"virtual input {float(ad.value(v[0]))!r} <= 0")
        return ad.stack([v[0]])

    scn = build("pendulum")
    bar = compose_barrier(scn.h1, scn.k1, scn.cfg.mu, 1, 1, ref_map=positive).to_spec()
    x_ok, x_bad = np.array([-0.5, 0.0]), np.array([0.5, 0.0])  # k1 > 0 and k1 < 0
    assert eval_lie(scn.sys, bar, x_ok).bar_eval.ref[0] > 0.0
    with pytest.raises(ThrustDomainError) as ref:
        lie_pass(scn.sys, bar, x_bad)
    with pytest.raises(ThrustDomainError) as got:
        eval_lie(scn.sys, bar, x_bad)
    assert str(got.value) == str(ref.value)
    assert len(lie_kernel(scn.sys, bar).sources) == 1


def test_state_kernel_raises_the_reference_alignment_error():
    # a thrust direction that vanishes at pitch 0: the one-column alignment's floor is a kernel guard
    scn = build("quadrotor")
    dsys = dataclasses.replace(scn.dsys, psi=lambda eta: eta[0] * ad.stack([-ad.sin(eta[0]), ad.cos(eta[0])])[:, None])
    sys = partial_closed_loop(dsys, scn.k_v)
    eval_lie(sys, scn.bar, np.array([0.0, 0.0, 0.0, 0.0, 0.5]))
    x = np.zeros(5)
    with pytest.raises(AlignmentError) as ref:
        lie_pass(sys, scn.bar, x)
    with pytest.raises(AlignmentError) as got:
        eval_lie(sys, scn.bar, x)
    assert str(got.value) == str(ref.value)
    assert len(lie_kernel(sys, scn.bar).sources) == 1


def test_infeasible_state_raises_the_reference_filter_error():
    # no input authority (g = 0) and a drift out of the safe set: the filter's degenerate branch at x = 2
    zero = np.zeros((1, 1))
    sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: ad.stack([x[0]]), g=lambda x: zero, w=lambda x: zero)
    bar = BarrierSpec(
        h=lambda x: 1.0 - x[0] * x[0], grad_h=lambda x: ad.stack([-2.0 * x[0]]), alpha=linear_class_k(),
        epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
    )
    law = OdIssfController(sys, bar, lambda x, t, be: np.zeros(1))
    law.evaluate(np.array([0.5]))
    x = np.array([2.0])
    lf, lg, lw = (lie_pass(sys, bar, x)[i] for i in (5, 6, 7))
    with pytest.raises(InfeasiblePointError) as ref:
        solve_decay_filter(lf, lg, lw, float(bar.alpha(-3.0)), np.zeros(1), 1.0, 1.0, 1.0, x=x)
    with pytest.raises(InfeasiblePointError) as got:
        law.evaluate(x)
    assert str(got.value) == str(ref.value)
    assert len(lie_kernel(sys, bar).sources) == 1  # no branch here: one variant serves both states


def test_untraceable_pair_runs_the_reference():
    # float conversions cannot be traced: the pair keeps its reference path and says why
    sys = DisturbedSystem(n=1, m=1, p=1, f=lambda x: np.array([float(x[0])]), g=lambda x: np.eye(1),
                          w=lambda x: np.eye(1))
    bar = BarrierSpec(h=lambda x: 1.0 - x[0] * x[0], grad_h=lambda x: ad.stack([-2.0 * x[0]]),
                      alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1)
    for x in (np.array([0.5]), np.array([-0.25])):
        lie = eval_lie(sys, bar, x)
        assert lie.lf_h == -2.0 * x[0] * x[0]
    kernel = lie_kernel(sys, bar)
    assert isinstance(kernel.refusal, TraceError) and not kernel.sources

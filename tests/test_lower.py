"""The lowered value-and-jacobian pass of the virtual controllers: equal to the
Dual pass bit for bit, traced once per branch combination, and deferring to
the Dual pass wherever a guard fails."""

import math

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf import lower
from odcbf.barrier import BarrierSpec, linear_class_k
from odcbf.dynamics import DisturbedSystem
from odcbf.errors import NonFiniteError, SynthesisInfeasibleError, TraceError
from odcbf.scenarios import build_pendulum, build_quadrotor
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

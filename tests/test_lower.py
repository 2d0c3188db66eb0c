"""The lowered passes: the kernel of a backstepped barrier and the state
kernel of an evaluation are equal to their reference passes bit for bit,
traced once per branch combination, and defer to the reference wherever a
guard fails, raising its errors; a pass that cannot be lowered runs its
reference and says why."""

import dataclasses
import io
import math
import operator
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf import lower
from odcbf.backstepping import CompositeBarrier, barrier_pass
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


def barrier_and_states(name, count, seed=0):
    """The scenario's backstepped barrier and ``count`` seeded states of its box."""
    scn = build_pendulum() if name == "pendulum" else build_quadrotor()
    barrier = scn.composite if name == "pendulum" else scn.dbar
    return barrier, np.random.default_rng(seed).uniform(*scn.box, size=(count, scn.x0.size))


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_lowered_pass_equals_the_dual_pass(name):
    # h, grad h, k, r and dr/dx_top of the barrier's kernel against its reference: the Dual passes of k and r
    barrier, states = barrier_and_states(name, 1000)
    for x in states:
        got, ref = barrier.kernel(x), barrier_pass(barrier, x)
        for mine, theirs in zip(got, ref):
            assert np.shape(mine) == np.shape(theirs) and np.array_equal(mine, theirs)
        be = barrier.value_and_grad(x)
        assert barrier.h(x) == be.h and np.array_equal(barrier.grad_h(x), be.grad)
        assert np.array_equal(barrier.reference(x), be.ref)
    # both sides of a = 0 were met: one variant per branch of half-Sontag
    sources = barrier.kernel.sources
    assert len(sources) == 2 and barrier.kernel.refusal is None
    sides = [lower.lower(barrier.kernel.fn, x)[1] for x in states[:200]]
    assert sides.count(sources[0]) >= 10 and sides.count(sources[1]) >= 10


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_source_depends_only_on_the_branch_combination(name):
    barrier, states = barrier_and_states(name, 200, seed=1)
    for x in states:
        barrier.h(x)
    by_source = {}
    for x in states:
        _, source = lower.lower(barrier.kernel.fn, x)
        by_source.setdefault(source, []).append(x)
    assert sorted(by_source) == sorted(barrier.kernel.sources)
    for source in by_source:
        assert "x0" in source and not any(repr(float(v)) in source for v in states.ravel())


@pytest.mark.parametrize("name", ["pendulum", "quadrotor"])
def test_non_finite_state_raises_the_reference_error(name):
    barrier, states = barrier_and_states(name, 50)
    for x in states:
        barrier.h(x)  # warm: the lowered variants exist
    traced = len(barrier.kernel.sources)
    x = states[0].copy()
    x[0] = math.nan
    with pytest.raises(NonFiniteError) as ref:
        barrier_pass(barrier, x)
    for read in (barrier.value_and_grad, barrier.h, barrier.reference):
        with pytest.raises(NonFiniteError) as got:
            read(x)
        assert str(got.value) == str(ref.value)
    assert len(barrier.kernel.sources) == traced  # a failing state is never traced


def tiny_barrier(nominal=None, ref_map=None):
    """A two-layer barrier over h = 1 - x^2 with b = L_g h = 0: k is feasible (a > 0) only for |x| < 1."""
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
    k = synth_virtual(top, bar, sigma=1.0, nominal=nominal)
    return CompositeBarrier(bar, k, 1.0, 1, 1, ref_map=ref_map)


def test_infeasible_state_raises_the_reference_error():
    barrier = tiny_barrier()
    be = barrier.value_and_grad(np.array([0.5, 0.25]))  # a = 0.75 > 0: traced
    assert np.array_equal(be.k, [0.0]) and len(barrier.kernel.sources) == 1
    x = np.array([2.0, 0.0])  # a = -3 with b = 0: the a > 0 guard fails, the reference raises
    with pytest.raises(SynthesisInfeasibleError) as ref:
        barrier_pass(barrier, x)
    with pytest.raises(SynthesisInfeasibleError) as got:
        barrier.h(x)
    assert str(got.value) == str(ref.value)
    assert np.array_equal(got.value.x, x[:1]) and got.value.a == ref.value.a == -3.0 and got.value.layer == 1
    assert len(barrier.kernel.sources) == 1  # a failing state is never traced


def expect_refusal(barrier, x, match):
    """The barrier's pass cannot be lowered: its kernel keeps the TraceError and returns the Dual pass."""
    for mine, theirs in zip(barrier.kernel(x), barrier_pass(barrier, x)):
        assert np.array_equal(mine, theirs)
    assert isinstance(barrier.kernel.refusal, TraceError) and not barrier.kernel.sources
    assert re.search(match, str(barrier.kernel.refusal))
    assert barrier.h(x * 0.5) == barrier_pass(barrier, x * 0.5)[0]  # later states run the reference too


@pytest.mark.parametrize(
    "nominal",
    [
        lambda x: np.array([0.0 * float(ad.value(x[0]))]),  # a float coercion
        lambda x: np.array([1.0 if ad.value(x[0]) > 0.0 else 0.0]),  # a decision outside ad.branch
    ],
)
def test_traced_value_used_as_a_number_fails_the_trace(nominal):
    expect_refusal(tiny_barrier(nominal), np.array([0.5, 0.25]), "used as a number or a truth value")


@pytest.mark.parametrize(
    "ref_map, operation",
    [
        (lambda v: ad.stack([v[0] ** 2]), r"\*\*"),
        (lambda v: ad.stack([ad._unary(v[0], np.exp, np.exp)]), "exp"),  # an elementwise op with no lowering
    ],
    ids=["pow", "exp"],
)
def test_operation_without_a_lowering_fails_the_trace(ref_map, operation):
    expect_refusal(tiny_barrier(ref_map=ref_map), np.array([0.5, 0.25]), operation)


def test_sqrt_sin_and_cos_lower_exactly():
    # a reference map of sqrt, sin and cos over the quadrotor's virtual input (v1, v2)
    scn = build_quadrotor()
    fn = lambda v: ad.stack([ad.sin(v[0]) * ad.cos(v[1]), ad.sqrt(v[0] * v[0] + v[1] * v[1]), v[1]])
    barrier = CompositeBarrier(scn.h_z, scn.k_v, scn.cfg.mu, 4, 3, ref_map=fn)
    lo, hi = np.array([-1.0, -1.0, -2.0, -2.0, -4.0, -4.0, -4.0]), np.array([3.0, 1.0, 3.0, 2.0, 4.0, 4.0, 4.0])
    for x in np.random.default_rng(2).uniform(lo, hi, size=(1000, 7)):
        for mine, theirs in zip(barrier.kernel(x), barrier_pass(barrier, x)):
            assert np.array_equal(mine, theirs)
    assert len(barrier.kernel.sources) == 2 and all("_sin(" in s and "_sqrt(" in s for s in barrier.kernel.sources)


def test_float_arithmetic_fault_defers_to_the_reference():
    # Python's float division raises where numpy returns inf: at k = 0 that state takes the Dual pass
    scn = build_pendulum()
    barrier = CompositeBarrier(scn.h1, scn.k1, scn.cfg.mu, 1, 1, ref_map=lambda v: ad.stack([1.0 / v[0]]))
    assert barrier.reference(np.array([0.5, 0.0]))[0] == 1.0 / float(ad.value(scn.k1.k1(np.array([0.5])))[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = barrier.reference(np.array([0.0, 0.0]))  # k1(0) = 0
    assert ref[0] == math.inf and len(barrier.kernel.sources) == 1


SRC = Path(__file__).resolve().parents[1] / "src" / "odcbf"


def lowering_sites(source):
    """The enclosing definitions (dotted) of every ``Lowered(`` call in the source; a statement
    belongs to the definitions above it that start at a smaller column."""
    sites, scopes, prev, col = [], [], [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            col = None  # the next token starts a statement
            continue
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        col = tok.start[1] if col is None else col
        if tok.type == tokenize.NAME and prev and prev[-1].string in ("def", "class"):
            scopes = [s for s in scopes if s[0] < col] + [(col, tok.string)]
        if tok.string == "(" and prev and prev[-1].string == "Lowered" and not (len(prev) > 1 and prev[-2].string == "class"):
            sites.append(".".join(name for c, name in scopes if c < col) or "<module>")
        prev = (prev + [tok])[-2:]
    return sites


def test_barrier_and_state_passes_are_the_only_lowering_sites():
    sites = {f"{path.stem}.{site}" for path in SRC.glob("*.py") for site in lowering_sites(path.read_text())}
    assert sites == {"barrier.lie_kernel", "backstepping.CompositeBarrier.__post_init__"}
    assert not lower.Lowered.__subclasses__()  # which would be constructed under another name


def test_lowering_lint_finds_what_it_looks_for():
    planted = (
        "class Lowered(Base):\n    pass\n\nk = Lowered(f, 1)\n\n"
        "class A:\n    def m(self):\n        def inner():\n            return lower.Lowered(g, 2)\n"
        "        return Lowered(h, 3)\n\ndef b():\n    return Lowered (h, 3)  # Lowered(\n"
    )
    assert lowering_sites(planted) == ["<module>", "A.m.inner", "A.m", "b"]


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
    barrier = scn.composite if name == "pendulum" else scn.dbar
    kernel = lie_kernel(scn.sys, scn.bar)
    states = np.random.default_rng(12).uniform(*scn.box, size=(300, scn.x0.size))
    seen = set()
    for x in states:
        seen.add(lower.lower(barrier.kernel.fn, x)[1])  # the barrier pass's branches at x
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
    bar = CompositeBarrier(scn.h1, scn.k1, scn.cfg.mu, 1, 1, ref_map=positive).to_spec()
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

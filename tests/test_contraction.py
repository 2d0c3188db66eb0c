"""One contraction rule: every product the program sums is multiplied
elementwise and then summed from 0.0 in order, so its rounding does not depend
on the host's BLAS kernel or on whether the CPU fuses a multiply and an add."""

import io
import math
import tokenize
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.barrier import eval_lie
from odcbf.odfilter import solve_decay_filter
from odcbf.scenarios import build_pendulum

SRC = Path(__file__).resolve().parents[1] / "src" / "odcbf"
# the modules of the evaluation path; autodiff.contract and autodiff.fdot hold the rule
STEP_MODULES = ("autodiff", "barrier", "backstepping", "drd", "odfilter", "sim")
# calls that contract through BLAS (or round like it)
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "norm"}


def blas_contractions(source):
    """(line, text) of every matrix-multiply operator and numpy contraction call in the source."""
    found, prev = [], []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        if tok.type == tokenize.OP and tok.string in ("@", "@="):
            # a decorator's @ starts its logical line
            if prev and prev[-1].type not in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                found.append((tok.start[0], tok.line.strip()))
        if tok.type == tokenize.NAME and tok.string in BLAS_CALLS and len(prev) >= 2:
            if prev[-1].string == "." and prev[-2].string in ("np", "numpy", "linalg"):
                found.append((tok.start[0], tok.line.strip()))
        prev = (prev + [tok])[-2:]
    return found


@pytest.mark.parametrize("module", STEP_MODULES)
def test_step_path_has_no_blas_contraction(module):
    assert blas_contractions((SRC / f"{module}.py").read_text()) == []


def test_lint_finds_what_it_looks_for():
    planted = "@dataclass\nclass A:\n    x: int\n\ny = a @ b\nz = np.dot(a, b)\nw = np.linalg.norm(a)\nv @= m\n"
    assert [line for line, _ in blas_contractions(planted)] == [5, 6, 7, 8]


def fused(a, b, c):
    """fma(a, b, c): a * b + c rounded once, computed exactly."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def test_lie_derivative_is_the_sequential_sum_at_an_fma_sensitive_state():
    # planted by search over seeded box states: here grad h . f rounds differently when the last
    # product is fused with the running sum, as a BLAS dot kernel with FMA does
    x = np.array([-1.8361059042552212, -3.8677789157717672])
    scn = build_pendulum()
    lie = eval_lie(scn.sys, scn.bar, x)
    (g0, g1), (f0, f1) = lie.bar_eval.grad.tolist(), lie.f.tolist()
    sequential = (0.0 + g0 * f0) + g1 * f1
    assert sequential != fused(g1, f1, g0 * f0)  # the state tells the two roundings apart on any host
    assert lie.lf_h == sequential
    assert ad.dot(lie.bar_eval.grad, lie.f) == sequential == ad.fdot([g0, g1], [f0, f1])


@pytest.mark.parametrize("n", [1, 3, 7, 8, 13])
def test_contract_sums_in_order_at_every_length(n):
    # numpy sums 8 or more terms pairwise; contract does not
    rng = np.random.default_rng(n)
    for _ in range(200):
        a, b = rng.normal(size=n), rng.normal(size=n)
        total = 0.0
        for ai, bi in zip(a.tolist(), b.tolist()):
            total += ai * bi
        assert ad.contract(a, b) == total == ad.fdot(a.tolist(), b.tolist())
        mat = np.stack([a, b, a * b])
        assert np.array_equal(ad.matvec(mat, b), [ad.fdot(row, b.tolist()) for row in mat.tolist()])


def test_filter_sums_its_products_in_order():
    # upsilon and xi are sums of products too; some of these draws round differently when fused
    rng = np.random.default_rng(5)
    fma_sensitive = 0
    for _ in range(300):
        lg, lw, u_nom = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
        lf, alpha_h = float(rng.normal()), float(rng.normal())
        res = solve_decay_filter(lf, lg, lw, alpha_h, u_nom, 2.0, 0.5, 1.5)
        (g0, g1), (w0, w1), (u0, u1) = lg.tolist(), lw.tolist(), u_nom.tolist()
        assert res.upsilon == lf + ((0.0 + g0 * u0) + g1 * u1) + 0.5 * alpha_h - ((0.0 + w0 * w0) + w1 * w1) / 2.0
        assert res.xi == math.sqrt((0.0 + g0 * g0) + g1 * g1)
        fma_sensitive += (0.0 + g0 * g0) + g1 * g1 != fused(g1, g1, g0 * g0)
    assert fma_sensitive >= 10

"""Forward-mode automatic differentiation with vectorized dual numbers.

A :class:`Dual` carries a float array ``val`` of shape ``s`` together with
directional derivatives ``dot`` of shape ``s + (k,)`` along ``k`` seed
directions. Arithmetic propagates both parts, so any function written with
the operators below and the math helpers (:func:`sin`, :func:`sqrt`, ...)
can be differentiated exactly by seeding the identity, see :func:`jacobian`.

Construction contract: ``Dual(val, dot)`` only stores its two parts. It
converts nothing and checks no shape, because it runs once per operation in
the hot path. The entry points validate instead: :func:`seed` converts the
point to a 1-D float array, and :func:`jacobian` checks that the output's
parts are aligned with the seed. Plain operands of
``+ - * /`` enter the formulas directly and are never lifted to a zero-seed
Dual. One contraction rule serves floats, Duals and traced scalars alike:
:func:`contract` multiplies elementwise and then sums from 0.0 in order
(:func:`fdot` on Python floats), and :func:`dot`, :func:`matvec` and
:func:`vecmat` form their value and derivative parts with it. A float ``@``
would round like the host's BLAS kernel, often with a fused multiply-add
(reproducible summation: Demmel & Nguyen, ARITH 2013); this order is the one
straight-line float code has, so a lowered pass rounds like the array code.

The same code runs on traced scalars: :mod:`odcbf.lower` seeds a Dual whose
values are numpy object arrays of :class:`Traced` nodes, and records every
scalar operation to emit float code; plain operands may be traced too
(:func:`floats` keeps them). Code meant to be lowered therefore makes each
decision on its data through :func:`branch`, which a traced value records as
a guard, and never converts a value to float. A Dual has no order
comparisons, so comparing one raises TypeError.

Forward AD is the program's one derivative path; the lowered code is a
compiled form of it, and this module's Dual pass stays its reference.
The test suite checks it against central finite differences of its own.
"""

from __future__ import annotations

import numpy as np


def _seed_factor(c):
    """A plain factor shaped to multiply a ``dot`` part (trailing seed axis)."""
    if isinstance(c, (float, int)):  # numpy float64 is a float
        return c
    return np.asarray(c, dtype=float)[..., None]


class Dual:
    """Array of dual numbers: value plus derivatives along ``k`` seeds."""

    __slots__ = ("val", "dot")
    # make ndarray <op> Dual defer to our reflected operators instead of
    # broadcasting elementwise into an object array
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return _shifted(self.val + other, self.dot)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return _shifted(self.val - other, self.dot)

    def __rsub__(self, other):
        return _shifted(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.dot * other.val[..., None] + other.dot * self.val[..., None])
        return Dual(self.val * other, self.dot * _seed_factor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            num = self.dot * other.val[..., None] - other.dot * self.val[..., None]
            return Dual(self.val / other.val, num / (other.val * other.val)[..., None])
        c = _seed_factor(other)
        return Dual(self.val / other, (self.dot * c) / (c * c))

    def __rtruediv__(self, other):
        return Dual(other / self.val, -(self.dot * _seed_factor(other)) / (self.val * self.val)[..., None])

    def __pow__(self, n):
        if not np.isscalar(n):
            raise TypeError("only scalar exponents are supported")
        v = np.asarray(self.val)  # the array power's fast paths (square, sqrt, reciprocal)
        return Dual(v**n, (n * v ** (n - 1))[..., None] * self.dot)

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __pos__(self):
        return self

    def __getitem__(self, idx):
        return Dual(self.val[idx], self.dot[idx])

    def __len__(self):
        return len(self.val)

    def __repr__(self):
        return f"Dual(val={self.val!r}, dot={self.dot!r})"


class Traced:
    """Base class of the scalars that :mod:`odcbf.lower` traces a pass with."""

    __slots__ = ()


def branch(test, *args):
    """``test`` applied to the values of ``args`` (Duals or plain scalars), as a bool.

    Code that is lowered to float code (:mod:`odcbf.lower`) takes each decision
    on its data through this helper: a traced value records the decision, with
    its outcome, as a guard of the emitted code.
    """
    vals = [a.val if isinstance(a, Dual) else a for a in args]
    for v in vals:
        if isinstance(v, Traced):
            return v.branch(test, vals)
    return bool(test(*vals))


def _shifted(val, dot):
    """Dual of ``val`` whose derivative is ``dot``, broadcast if a plain term widened it."""
    if np.shape(val) != dot.shape[:-1]:
        dot = np.broadcast_to(dot, np.shape(val) + dot.shape[-1:]).copy()
    return Dual(val, dot)


def floats(x):
    """A plain operand as a float array; traced scalars stay as they are (an object array)."""
    x = np.asarray(x)
    return x if x.dtype == object else x.astype(float, copy=False)


def scalar(v):
    """A plain scalar as a float; a traced one stays as it is."""
    return v if isinstance(v, Traced) else float(v)


def value(x):
    """Value part of a Dual, or a plain operand as :func:`floats` gives it."""
    return x.val if isinstance(x, Dual) else floats(x)


def seed(x):
    """Wrap a 1-D point with identity seeds (one direction per component)."""
    x = np.atleast_1d(floats(x))
    if x.ndim != 1:
        raise ValueError(f"seed point must be 1-D, got shape {x.shape}")
    return Dual(x, np.eye(x.size))


# -- elementwise math (dispatch on Dual vs plain) -----------------------


def _unary(x, f, df):
    if isinstance(x, Dual):
        return Dual(f(x.val), df(x.val)[..., None] * x.dot)
    return f(x if isinstance(x, Traced) else floats(x))


def sin(x):
    return _unary(x, np.sin, np.cos)


def cos(x):
    return _unary(x, np.cos, lambda v: -np.sin(v))


def atan(x):
    return _unary(x, np.arctan, lambda v: 1.0 / (1.0 + v * v))


def sqrt(x):
    return _unary(x, np.sqrt, lambda v: 0.5 / np.sqrt(v))


# -- small vector algebra ------------------------------------------------


def stack(items):
    """Stack scalars (plain or 0-d Dual) into a 1-D vector."""
    if not any(isinstance(it, (Dual, Traced)) for it in items):
        return np.array([float(it) for it in items])
    vals = [it.val if isinstance(it, Dual) else it for it in items]
    val = np.array(vals, dtype=object if any(isinstance(v, Traced) for v in vals) else float)
    first = next((it for it in items if isinstance(it, Dual)), None)
    if first is None:
        return val
    zero = np.zeros(first.dot.shape[-1])
    dot = np.array([it.dot if isinstance(it, Dual) else zero for it in items])
    return Dual(val, dot)


def contract(a, b, axis=-1):
    """Sum over ``axis`` of the broadcast product ``a * b`` of plain arrays (floats or traced):
    multiply elementwise, then sum from 0.0 in order. numpy sums fewer than 8 terms in
    order and more pairwise, so a longer axis is summed here one term at a time."""
    terms = a * b
    if terms.shape[axis] < 8:
        return terms.sum(axis=axis, initial=0.0)
    total = 0.0
    for term in np.moveaxis(terms, axis, 0):
        total = total + term
    return total


def fdot(a, b):
    """sum_i a_i b_i of two sequences of Python floats (or traced scalars), by :func:`contract`'s rule."""
    total = 0.0
    for ai, bi in zip(a, b):
        total += ai * bi
    return total


def _contract(a, b, axis, a_index=Ellipsis):
    """Sum over ``axis`` of the broadcast product ``a[a_index] * b``; a Dual on either side.

    The products are the terms of ``Dual.__mul__``, and both parts are summed by
    :func:`contract`, so the result rounds like multiplying elementwise and then summing.
    """
    av, bv = value(a)[a_index], value(b)
    if isinstance(a, Dual):
        dot = a.dot[a_index] * bv[..., None]
        if isinstance(b, Dual):
            dot = dot + b.dot * av[..., None]
    else:
        dot = b.dot * av[..., None]
    return Dual(contract(av, bv, axis), contract(dot, 1.0, axis))


def dot(u, v):
    """Inner product of two 1-D vectors (either may be Dual)."""
    if not isinstance(u, Dual) and not isinstance(v, Dual):
        return fdot(floats(u).tolist(), floats(v).tolist())
    return _contract(u, v, 0)


def matvec(mat, v):
    """Matrix times vector where either factor may be Dual."""
    if not isinstance(mat, Dual) and not isinstance(v, Dual):
        return contract(floats(mat), floats(v))
    return _contract(mat, v, 1)


def vecmat(v, mat):
    """Row vector times matrix: (v^T M) as a 1-D vector."""
    if not isinstance(mat, Dual) and not isinstance(v, Dual):
        return contract(floats(v)[:, None], floats(mat), 0)
    return _contract(v, mat, 0, a_index=(slice(None), None))


# -- derivative drivers --------------------------------------------------


def jacobian(f, x):
    """(f(x), J) for vector-valued f of a 1-D point, by forward AD."""
    xs = seed(x)
    n = xs.val.size
    out = f(xs)
    if not isinstance(out, Dual):
        out = np.atleast_1d(floats(out))
        return out, np.zeros((out.size, n))
    val, dot = floats(out.val), floats(out.dot)
    if dot.shape != val.shape + (n,):
        raise ValueError(f"dual parts misaligned: val {val.shape}, dot {dot.shape}, {n} seeds")
    return np.atleast_1d(val), dot.reshape(val.size, n)

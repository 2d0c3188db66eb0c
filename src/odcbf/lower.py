"""Lowering of a pass over a state to straight-line float code.

Two kinds of pass run the same closures at every state, and only their
data-dependent branches change which operations they perform: the pass of a
backstepped barrier (``CompositeBarrier``: k and its jacobian, the reference
map and its jacobian, h and grad h), and the state pass of an evaluation
(``barrier.lie_pass``: the barrier pass, f, g, w and the Lie derivatives).
:func:`lower` runs such a pass once on traced scalars: numpy object arrays of
nodes that carry their concrete values, inside ordinary arrays and
:class:`~odcbf.autodiff.Dual` numbers, so the pass runs unchanged and each of
its scalar operations lands on a tape. Decisions taken through
:func:`odcbf.autodiff.branch` are recorded as guards. The tape, pruned to
what the outputs and the guards read and with repeated expressions shared,
is emitted as one Python function over floats with the forward-derivative
lines inline (Griewank & Walther, *Evaluating Derivatives*, ch. 2-3 and 6),
and compiled once. It returns None where a guard fails: the
explicit-conditional rule of tracing compilers (Frostig, Johnson & Leary,
SysML 2018).

Rounding: each emitted line is one IEEE operation of the reference pass, in
the same order. Every sum of products follows the one contraction rule,
multiply and then sum from 0.0 in order (``autodiff.contract``), which is
what scalar lines do; a float ``@`` would round like the host's BLAS kernel.
sqrt is correctly rounded on both sides, and sin and cos are emitted as
``math``'s, which equal numpy's on the inputs tested; arctan is emitted as
numpy's scalar call, because ``math.atan`` differs from it in the last bit
on some inputs. Any other function, and any float coercion of a traced
value, fails the trace with :class:`~odcbf.errors.TraceError`. Constant
operands are folded at trace time by numpy itself. The only rewrites are the
exact identities x*1, 1*x, x/1 and x-0, and the emitted source never holds a
traced value.

:class:`Lowered` keeps one compiled variant per branch combination met so
far. At a state where every variant's guards fail, the reference pass runs
there: its errors propagate unchanged, and otherwise the new combination is
traced, checked against the reference result at that state, and kept. A
pass that cannot be lowered exactly keeps running its reference, which is
always correct, and the reason stays in ``refusal``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import autodiff as ad
from .errors import TraceError

_RIGHT_IDENTITIES = {("*", "1.0"), ("/", "1.0"), ("-", "0.0")}  # x op c == x bit for bit


def _binary(sym, op):
    return (lambda a, b: a.tape.binary(sym, op, a, b), lambda a, b: a.tape.binary(sym, op, b, a))


class _Node(ad.Traced):
    """A traced scalar: its name on the tape and its concrete value (a numpy float64)."""

    __slots__ = ("tape", "name", "v")

    def __init__(self, tape, name, v):
        self.tape, self.name, self.v = tape, name, v

    def _refuse(self, *args):
        raise TraceError(
            f"traced value {self.name} was used as a number or a truth value; "
            "decide on traced values through autodiff.branch"
        )

    __float__ = __int__ = __bool__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse

    def __getitem__(self, idx):
        # the Dual code reads val[..., None] of scalar values; with no __len__, numpy still sees a scalar
        box = np.empty((), dtype=object)
        box[()] = self
        return box[idx]

    __add__, __radd__ = _binary("+", operator.add)
    __sub__, __rsub__ = _binary("-", operator.sub)
    __mul__, __rmul__ = _binary("*", operator.mul)
    __truediv__, __rtruediv__ = _binary("/", operator.truediv)

    def __neg__(self):
        return self.tape.node(f"-{self.name}", -self.v, (self,))

    # numpy's ufuncs call these methods on object arrays
    def sqrt(self):
        return self.tape.node(f"_sqrt({self.name})", np.sqrt(self.v), (self,))

    def sin(self):
        return self.tape.node(f"_sin({self.name})", np.sin(self.v), (self,))

    def cos(self):
        return self.tape.node(f"_cos({self.name})", np.cos(self.v), (self,))

    def arctan(self):
        return self.tape.node(f"_arctan({self.name})", np.arctan(self.v), (self,))

    def branch(self, test, vals):
        return self.tape.guard(test, vals)


class _Tape:
    def __init__(self):
        self.lines = []  # (name, expression, names read); a guard has name None and its failure condition
        self.shared = {}  # expression -> node, so that a repeated operation is emitted once
        self.env = {"_sqrt": math.sqrt, "_sin": math.sin, "_cos": math.cos, "_arctan": np.arctan}
        self.env.update(inf=math.inf, nan=math.nan, _array=np.array)
        self.tests = {}  # guard test -> its name in env

    def ref(self, a):
        """The source text of an operand: a node's name or a constant's literal."""
        if isinstance(a, _Node) and a.tape is self:
            return a.name
        if isinstance(a, (float, int)) and not isinstance(a, bool):
            return repr(float(a))
        raise TraceError(f"cannot lower an operand of type {type(a).__name__}")

    def node(self, expr, value, operands):
        hit = self.shared.get(expr)
        if hit is None:
            hit = self.shared[expr] = _Node(self, f"v{len(self.shared)}", value)
            self.lines.append((hit.name, expr, [o.name for o in operands if isinstance(o, _Node)]))
        return hit

    def binary(self, sym, op, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return NotImplemented  # numpy broadcasts the scalar over the array
        ra, rb = self.ref(a), self.ref(b)
        if (sym, rb) in _RIGHT_IDENTITIES:
            return a
        if sym == "*" and ra == "1.0":
            return b
        value = op(np.float64(a.v if isinstance(a, _Node) else a), b.v if isinstance(b, _Node) else b)
        return self.node(f"{ra} {sym} {rb}", value, (a, b))

    def guard(self, test, vals):
        outcome = bool(test(*(v.v if isinstance(v, _Node) else v for v in vals)))
        name = self.tests.setdefault(test, f"_t{len(self.tests)}")
        self.env[name] = test
        call = f"{name}({', '.join(self.ref(v) for v in vals)})"
        self.lines.append((None, f"not {call}" if outcome else call, [v.name for v in vals if isinstance(v, _Node)]))
        return outcome


def _entries(outs):
    """The scalars of a pass's outputs (scalars and arrays), in order; C order within an array."""
    return [e for o in outs for e in (o.ravel().tolist() if isinstance(o, np.ndarray) else [o])]


def _source(tape, n, outs):
    """The live lines and guards, then the outputs: a scalar as its float, a constant array as one
    read-only array (every call returns it), any other array as a view of one array of their entries."""
    rets, packed = [], []
    for o in outs:
        if not isinstance(o, np.ndarray):
            rets.append(tape.ref(o))
        elif not any(isinstance(e, _Node) for e in o.flat):
            rets.append(f"_c{len(tape.env)}")
            tape.env[rets[-1]] = o.astype(float)
            tape.env[rets[-1]].flags.writeable = False
        else:
            packed += [tape.ref(e) for e in o.ravel().tolist()]
            rets.append(f"_b[{len(packed) - o.size}:{len(packed)}]" + (f".reshape({o.shape})" if o.ndim != 1 else ""))
    live = {e.name for e in _entries(outs) if isinstance(e, _Node)}
    body = []
    for name, expr, reads in reversed(tape.lines):
        if name is None:
            body.append(f"    if {expr}: return None")
        elif name in live:
            body.append(f"    {name} = {expr}")
        else:
            continue
        live.update(reads)
    body.reverse()
    if packed:
        body.append(f"    _b = _array(({''.join(f'{r}, ' for r in packed)}))")
    args = ", ".join(f"x{i}" for i in range(n))
    return "\n".join([f"def lowered({args}):", *body, f"    return ({''.join(f'{r}, ' for r in rets)})", ""])


def lower(fn, x):
    """fn lowered at the 1-D float point x: (compiled function, its source).

    fn maps a 1-D array to a tuple of scalars and arrays; it runs here once on
    traced scalars. The compiled function takes the coordinates as floats and
    returns the outputs as floats and float arrays, or None where a recorded
    guard fails. An operation that has no lowering raises TraceError.
    """
    x = np.asarray(x, dtype=float)
    tape = _Tape()
    point = np.empty(x.size, dtype=object)
    for i, xi in enumerate(x):
        point[i] = _Node(tape, f"x{i}", xi)
    try:
        with np.errstate(all="ignore"):
            outs = fn(point)
        source = _source(tape, x.size, outs)
    except TypeError as exc:  # a traced scalar has no method for this operation
        raise TraceError(f"the pass uses an operation that has no lowering: {exc}") from exc
    except Exception as exc:
        # numpy wraps a refused float conversion in its own error (np.asarray(traced, dtype=float))
        cause = exc.__cause__
        while cause is not None and not isinstance(cause, TraceError):
            cause = cause.__cause__
        if cause is None:
            raise
        raise TraceError(str(cause)) from exc
    finally:
        tape.shared.clear()  # the nodes refer to the tape: free them now, not at the next garbage collection
    env = dict(tape.env)
    exec(compile(source, "<lowered pass>", "exec"), env)
    return env.pop("lowered"), source  # popped: the function's globals need not refer back to it


class Lowered:
    """x -> fn(x) for 1-D float points of size n, from compiled variants of fn.

    ``fn`` maps a 1-D array to a tuple of scalars and arrays: on floats it is
    the reference, and on traced scalars (a Lowered called inside a pass being
    traced) it records onto their tape. ``variants`` holds the compiled
    variants, the last one to match first; ``sources`` their emitted sources,
    in the order traced. An fn that cannot be lowered exactly keeps the
    reason, a TraceError, in ``refusal`` and runs at every state.
    """

    def __init__(self, fn, n):
        self.fn, self.n = fn, n
        self.variants, self.sources = [], []
        self.refusal = None

    def __call__(self, x):
        if isinstance(x, np.ndarray) and x.dtype == object:
            return self.fn(x)  # a point of traced scalars: fn runs on it, recording onto their tape
        xs = np.asarray(x, dtype=float)
        if xs.shape != (self.n,) or self.refusal is not None:
            return self.fn(xs)
        args = xs.tolist()
        try:
            for i, variant in enumerate(self.variants):
                out = variant(*args)
                if out is not None:
                    if i:  # the next state most likely takes the same branches
                        self.variants.insert(0, self.variants.pop(i))
                    return out
        except (ArithmeticError, ValueError):
            # Python floats raise where numpy returns inf or nan: the reference serves this state
            return self.fn(xs)
        outs = self.fn(xs)  # no variant's guards hold here; its errors are the answer
        try:
            self._add(xs, args, outs)
        except TraceError as exc:
            self.refusal = exc
        return outs

    def _add(self, xs, args, outs):
        variant, source = lower(self.fn, xs)
        try:
            out = variant(*args)
        except (ArithmeticError, ValueError):
            return  # float arithmetic faults at the trace point itself: leave such states to the reference
        if out is None or not np.array_equal(_entries(out), _entries(outs), equal_nan=True):
            raise TraceError(f"the lowered pass disagrees with the reference pass at x={xs}:\n{source}")
        self.variants.append(variant)
        self.sources.append(source)

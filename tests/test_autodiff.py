import operator

import numpy as np
import pytest

from odcbf import autodiff as ad
from tests.finite_differences import fd_gradient, fd_jacobian


def test_scalar_derivatives():
    val, jac = ad.jacobian(lambda x: x[0] ** 2 + 3.0 * x[0], np.array([2.0]))
    assert val.shape == (1,) and jac.shape == (1, 1)  # a scalar output is one row
    assert val[0] == pytest.approx(10.0)
    assert jac[0, 0] == pytest.approx(7.0)


def test_trig_chain():
    f = lambda x: ad.sin(x[0]) * ad.cos(x[1]) + ad.atan(x[0] * x[1])
    x = np.array([0.7, -0.3])
    g = ad.jacobian(f, x)[1][0]
    g_fd = fd_gradient(lambda y: float(np.sin(y[0]) * np.cos(y[1]) + np.arctan(y[0] * y[1])), x)
    assert np.allclose(g, g_fd, rtol=1e-8, atol=1e-10)


def test_division_and_sqrt():
    f = lambda x: ad.sqrt(x[0] * x[0] + 1.0) / (x[1] + 2.0)
    x = np.array([1.3, 0.4])
    g = ad.jacobian(f, x)[1][0]
    g_fd = fd_gradient(lambda y: np.sqrt(y[0] ** 2 + 1) / (y[1] + 2), x)
    assert np.allclose(g, g_fd, rtol=1e-8)


def test_atan_of_quotient_matches_closed_form():
    x = np.array([0.5, 1.5])
    g = ad.jacobian(lambda v: ad.atan(v[0] / v[1]), x)[1][0]
    assert np.allclose(g, np.array([x[1], -x[0]]) / (x @ x), rtol=1e-12)


def test_jacobian_of_vector_function():
    def f(x):
        return ad.stack([x[0] * x[1], ad.sin(x[0]), x[1] ** 3])

    x = np.array([0.9, -1.1])
    val, jac = ad.jacobian(f, x)
    assert val.shape == (3,)
    expected = np.array([[x[1], x[0]], [np.cos(x[0]), 0.0], [0.0, 3 * x[1] ** 2]])
    assert np.allclose(jac, expected, rtol=1e-12)


def test_jacobian_constant_function_is_zero():
    _, jac = ad.jacobian(lambda x: np.array([1.0, 2.0]), np.array([0.3, 0.4, 0.5]))
    assert jac.shape == (2, 3)
    assert np.all(jac == 0)


def test_matvec_and_vecmat():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(3, 2))

    def f(x):
        return ad.matvec(mat, x)

    x = rng.normal(size=2)
    val, jac = ad.jacobian(f, x)
    assert np.allclose(val, mat @ x)
    assert np.allclose(jac, mat)

    def g(x):
        return ad.vecmat(x, mat.T)  # x^T mat^T = (mat x)^T

    val2, jac2 = ad.jacobian(g, x)
    assert np.allclose(val2, mat @ x)
    assert np.allclose(jac2, mat)


def test_numpy_interop_defers_to_dual():
    d = ad.seed(np.array([1.0, 2.0]))
    out = np.ones(2) + d * 2.0
    assert isinstance(out, ad.Dual)
    assert np.allclose(out.val, [3.0, 5.0])
    assert np.allclose(out.dot, 2.0 * np.eye(2))


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_comparing_a_dual_raises(op):
    # decisions on data go through ad.branch, which a lowered pass records as a guard
    x = ad.seed(np.array([1.0]))[0]
    for other in (0.5, np.float64(0.5), np.array(0.5), x * 0.5):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert ad.branch(op, x, 0.5) is op(1.0, 0.5)


def test_fd_jacobian_matches_ad():
    def f(x):
        return ad.stack([ad.cos(x[0]) * x[1], ad.atan(x[1] + 2.0)])

    x = np.array([0.2, 0.8])
    _, jac = ad.jacobian(f, x)
    jac_fd = fd_jacobian(lambda y: np.array([np.cos(y[0]) * y[1], np.arctan(y[1] + 2.0)]), x)
    assert np.allclose(jac, jac_fd, rtol=1e-7, atol=1e-9)



# -- properties of the closed-form kernel --------------------------------
#
# Each operand is either a plain array or a Dual that depends on the seed
# point x, so the same function runs on Duals (forward AD) and on plain
# floats (central differences). The elementwise references rebuild each
# result from scalar Dual products and sums, or from the derivative rules.

from hypothesis import given, settings
from hypothesis import strategies as st

PROPS = settings(max_examples=60, deadline=None)
N_SEED = 3
dims = st.integers(1, 5)
shapes = st.sampled_from([(), (3,), (2, 3)])


def array(data, shape, lo=-2.0, hi=2.0):
    size = int(np.prod(shape, dtype=int))
    return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)), dtype=float).reshape(shape)


def operand(data, shape):
    """make(x): a plain array, or (on a coin flip) a function of the point x."""
    c = array(data, shape)
    if not data.draw(st.booleans()):
        return lambda x: c
    s = array(data, shape)
    i, j = data.draw(st.integers(0, N_SEED - 1)), data.draw(st.integers(0, N_SEED - 1))
    return lambda x: c + s * ad.sin(x[i]) * x[j]


def positive(data, shape):
    """A function of x, at least 0.25 everywhere: safe to divide by."""
    vals = array(data, shape, 0.5, 2.0)
    return lambda x: vals * (1.0 + 0.5 * ad.cos(x[0])) + x[1] * x[1]


def seed_point(data, scale=1.5):
    return array(data, (N_SEED,), -scale, scale)


def flat(out):
    if isinstance(out, ad.Dual):
        return ad.Dual(np.reshape(out.val, -1), np.reshape(out.dot, (-1, out.dot.shape[-1])))
    return np.reshape(np.asarray(out, dtype=float), -1)


def parts(out):
    """(value, derivative) of a result; a plain one has a zero derivative."""
    if isinstance(out, ad.Dual):
        return np.asarray(out.val, dtype=float), np.asarray(out.dot, dtype=float)
    val = np.asarray(out, dtype=float)
    return val, np.zeros(val.shape + (N_SEED,))


def assert_matches_fd(f, x):
    g = lambda y: flat(f(y))
    val, jac = ad.jacobian(g, x)
    assert np.allclose(val, g(x), rtol=1e-12, atol=1e-12)
    assert np.allclose(jac, fd_jacobian(g, x), rtol=1e-6, atol=1e-6)


def assert_close(got, want):
    for g, w in zip(parts(got), parts(want)):
        assert g.shape == w.shape
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12)


def elementwise_dot(u, v):
    total = 0.0
    for i in range(len(ad.value(u))):
        total = u[i] * v[i] + total
    return total


@PROPS
@given(st.data(), dims)
def test_dot_matches_fd_and_elementwise_sum(data, r):
    u, v = operand(data, (r,)), operand(data, (r,))
    f = lambda x: ad.dot(u(x), v(x))
    x = seed_point(data)
    assert_matches_fd(f, x)
    xs = ad.seed(x)
    assert_close(f(xs), elementwise_dot(u(xs), v(xs)))


@PROPS
@given(st.data(), dims, dims)
def test_matvec_matches_fd_and_row_dots(data, r, c):
    m, v = operand(data, (r, c)), operand(data, (c,))
    f = lambda x: ad.matvec(m(x), v(x))
    x = seed_point(data)
    assert_matches_fd(f, x)
    xs = ad.seed(x)
    got = f(xs)
    for i in range(r):
        assert_close(got[i], elementwise_dot(m(xs)[i], v(xs)))


@PROPS
@given(st.data(), dims, dims)
def test_vecmat_matches_fd_and_column_dots(data, r, c):
    v, m = operand(data, (r,)), operand(data, (r, c))
    f = lambda x: ad.vecmat(v(x), m(x))
    x = seed_point(data)
    assert_matches_fd(f, x)
    xs = ad.seed(x)
    got = f(xs)
    for j in range(c):
        assert_close(got[j], elementwise_dot(v(xs), m(xs)[:, j]))


@PROPS
@given(st.data(), dims)
def test_stack_matches_fd_and_its_entries(data, count):
    items = [operand(data, ()) for _ in range(count)]
    f = lambda x: ad.stack([make(x) for make in items])
    x = seed_point(data)
    assert_matches_fd(f, x)
    xs = ad.seed(x)
    got = f(xs)
    for i, make in enumerate(items):
        assert_close(got[i], make(xs))


# (operation, derivative of a <op> c in a), with the plain operand c on the right or on the left
RIGHT = {
    "+": (lambda a, c: a + c, lambda a, da, c: da),
    "-": (lambda a, c: a - c, lambda a, da, c: da),
    "*": (lambda a, c: a * c, lambda a, da, c: da * np.asarray(c)[..., None]),
    "/": (lambda a, c: a / c, lambda a, da, c: da / np.asarray(c)[..., None]),
}
LEFT = {
    "+": (lambda a, c: c + a, lambda a, da, c: da),
    "-": (lambda a, c: c - a, lambda a, da, c: -da),
    "*": (lambda a, c: c * a, lambda a, da, c: da * np.asarray(c)[..., None]),
    "/": (lambda a, c: c / a, lambda a, da, c: -np.asarray(c)[..., None] * da / (a * a)[..., None]),
}


@PROPS
@given(st.data(), shapes, st.sampled_from([(), (3,), (2, 3), 2, -3]), st.sampled_from(sorted(RIGHT)), st.booleans())
def test_arithmetic_with_a_plain_operand_on_either_side(data, shape, cshape, op, left):
    c = cshape if isinstance(cshape, int) else array(data, cshape, 0.5, 2.0) * data.draw(st.sampled_from([-1.0, 1.0]))
    try:
        out_shape = np.broadcast_shapes(shape, np.shape(c))
    except ValueError:
        return
    make = positive(data, shape)
    fn, rule = (LEFT if left else RIGHT)[op]
    f = lambda x: fn(make(x), c)
    x = seed_point(data, 0.3)
    assert_matches_fd(f, x)
    a = make(ad.seed(x))
    val = np.asarray(a.val)
    assert_close(f(ad.seed(x)), ad.Dual(fn(val, c), np.broadcast_to(rule(val, a.dot, c), out_shape + (N_SEED,))))


@PROPS
@given(st.data(), shapes, st.sampled_from(sorted(RIGHT)))
def test_arithmetic_between_duals(data, shape, op):
    p, q = positive(data, shape), positive(data, shape)
    fn = RIGHT[op][0]
    assert_matches_fd(lambda x: fn(p(x), q(x[::-1])), seed_point(data, 0.3))


@PROPS
@given(st.data(), shapes, st.sampled_from([2, 3, 0.5, -1, 1.5]))
def test_power_matches_fd_and_its_definition(data, shape, n):
    make = positive(data, shape)
    f = lambda x: make(x) ** n
    x = seed_point(data, 0.3)
    assert_matches_fd(f, x)
    a = make(ad.seed(x))
    val = np.asarray(a.val)
    assert_close(f(ad.seed(x)), ad.Dual(val**n, (n * val ** (n - 1))[..., None] * a.dot))

import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.backstepping import (
    CompositeBarrier,
    Layer,
    StrictFeedbackSystem,
    check_full_row_rank,
    compose_barrier,
    recursive_compose,
)
from odcbf.barrier import BarrierSpec, eval_lie, linear_class_k
from odcbf.errors import ParameterError, SamplerError
from odcbf.scenarios import build_pendulum
from odcbf.synthesis import SmoothVirtualController


def triple_integrator(nu=0.3):
    """x1dot = x2 + nu d, x2dot = x3, x3dot = u."""
    return StrictFeedbackSystem(
        layers=(
            Layer(f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.array([[nu]]), dim=1),
            Layer(f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)), dim=1),
            Layer(f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)), dim=1),
        ),
        m=1,
        p=1,
    )


def h1_for(n=1):
    return BarrierSpec(
        h=lambda x: 1.0 - x[0] ** 2,
        grad_h=lambda x: ad.stack([-2.0 * x[0]]),
        alpha=linear_class_k(1.0),
        epsilon=1.0,
        theta_d=1.0,
        p_weight=1.0,
        n=n,
    )


class TestComposeBarrier:
    def test_on_manifold_h_equals_h1(self):
        scn = build_pendulum()
        q = np.array([0.7])
        k1_val = float(np.asarray(ad.value(scn.k1.k1(q))).reshape(-1)[0])
        x = np.array([0.7, k1_val])
        assert scn.composite.h(x) == pytest.approx(float(scn.h1.h(q)))
        # dh/dx2 = 0 and dh/dx1 = dh1/dx1 on the manifold
        grad = scn.composite.grad_h(x)
        assert grad[1] == pytest.approx(0.0, abs=1e-14)
        assert grad[0] == pytest.approx(-2 * 0.7, abs=1e-12)

    def test_scalar_deviation_example(self):
        # mu=1, h1=1, x2-k1=1 -> h = 1 - 1/2 = 0.5
        ident = SmoothVirtualController(
            k1=lambda x1: np.zeros(1), value_and_jacobian=lambda x1: (np.zeros(1), np.zeros((1, 1))), sigma=1.0
        )
        flat_h1 = BarrierSpec(
            h=lambda x: 1.0, grad_h=lambda x: np.zeros(1),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
        )
        comp = compose_barrier(flat_h1, ident, 1.0, 1, 1)
        assert comp.h(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_rejects_nonpositive_mu(self):
        scn = build_pendulum()
        with pytest.raises(ParameterError):
            compose_barrier(scn.h1, scn.k1, 0.0, 1, 1)

    def test_gradient_matches_finite_differences(self):
        scn = build_pendulum()
        rng = np.random.default_rng(31)
        for x in rng.uniform([-1.5, -3.0], [1.5, 3.0], size=(300, 2)):
            analytic = scn.composite.grad_h(x)
            fd = ad.fd_gradient(scn.composite.h, x)
            assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    def test_explicit_identity_reference_is_the_strict_feedback_barrier(self):
        # both branches of the one value_and_grad: ref_map=None and a reference map
        scn = build_pendulum()
        ident = compose_barrier(scn.h1, scn.k1, scn.cfg.mu, 1, 1, ref_map=lambda v: ad.stack([v[0]]))
        assert ident.ref_map is not None and scn.composite.ref_map is None
        rng = np.random.default_rng(37)
        for x in rng.uniform([-1.5, -3.0], [1.5, 3.0], size=(50, 2)):
            plain, mapped = scn.composite.value_and_grad(x), ident.value_and_grad(x)
            assert abs(ident.h(x) - scn.composite.h(x)) <= 1e-15
            assert abs(mapped.h - plain.h) <= 1e-15
            assert np.max(np.abs(mapped.grad - plain.grad)) <= 1e-15
            assert np.max(np.abs(mapped.ref_jac - plain.ref_jac)) <= 1e-15
            assert np.max(np.abs(ident.reference(x) - scn.composite.reference(x))) <= 1e-15

    def test_layer_count_nests(self):
        scn = build_pendulum()
        assert scn.h1.layers == 1 and scn.bar.layers == 2
        rec = recursive_compose(triple_integrator(), h1_for(), mus=[0.5, 0.5], sigmas=[1.0, 1.0])
        assert rec.to_spec().layers == 3 and rec.to_spec().n == 3


class TestAssembledSystem:
    def test_block_form_matches_paper_pendulum(self):
        scn = build_pendulum()
        x = np.array([0.4, -0.6])
        f = scn.sys.f(x)
        assert f[0] == pytest.approx(x[1])  # g1 x2 chains into the drift
        assert f[1] == pytest.approx(9.81 * np.sin(0.4) - 0.1 * (-0.6))
        assert np.allclose(scn.sys.g(x), [[0.0], [1.0]])
        assert np.allclose(scn.sys.w(x), [[0.5], [1.0]])


def nonlinear_cascade():
    """Blocks of dims 1, 2, 1 whose f, g and w all depend on the prefix state."""
    return StrictFeedbackSystem(
        layers=(
            Layer(
                f=lambda x: ad.stack([ad.sin(x[0])]),
                g=lambda x: ad.vstack([ad.stack([1.0 + x[0] * x[0], ad.cos(x[0])])]),
                w=lambda x: np.array([[0.3]]),
                dim=1,
            ),
            Layer(
                f=lambda x: ad.stack([x[1] * x[0], -x[2]]),
                g=lambda x: ad.vstack([ad.stack([1.0]), ad.stack([x[1]])]),
                w=lambda x: ad.vstack([ad.stack([x[0]]), ad.stack([0.0])]),
                dim=2,
            ),
            Layer(f=lambda x: ad.stack([x[3] * x[1]]), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)), dim=1),
        ),
        m=1,
        p=1,
    )


def flat(out):
    if isinstance(out, ad.Dual):
        return ad.Dual(np.reshape(out.val, -1), np.reshape(out.dot, (-1, out.dot.shape[-1])))
    return np.reshape(np.asarray(out, dtype=float), -1)


class TestBlockLayout:
    def test_prefix_and_block_offsets(self):
        sfs = nonlinear_cascade()
        x = np.arange(4.0)
        assert sfs.ends == (1, 3, 4) and sfs.n == 4
        assert [list(sfs.prefix(x, i)) for i in range(3)] == [[0.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]]
        assert [list(sfs.block(x, i)) for i in range(3)] == [[0.0], [1.0, 2.0], [3.0]]

    @pytest.mark.parametrize("i", [0, 1, 2])
    @pytest.mark.parametrize("part", ["f", "g", "w"])
    def test_virtual_top_is_dual_evaluable(self, i, part):
        top = nonlinear_cascade().virtual_top(i)
        x = np.array([0.4, -0.7, 1.1, 0.25])[: top.n]
        fn = lambda y: flat(getattr(top, part)(y))
        val, jac = ad.jacobian(fn, x)
        assert np.allclose(val, fn(x), rtol=1e-14, atol=1e-14)  # plain products go through BLAS
        assert np.allclose(jac, ad.fd_jacobian(fn, x), rtol=1e-7, atol=1e-9)

    def test_bottom_virtual_top_is_the_assembled_system(self):
        sfs = nonlinear_cascade()
        top, full = sfs.virtual_top(2), sfs.assemble()
        x = np.array([0.4, -0.7, 1.1, 0.25])
        for part in ("f", "g", "w"):
            assert np.array_equal(flat(getattr(top, part)(x)), flat(getattr(full, part)(x)))


class TestRowRank:
    def test_pendulum_constant_g2(self):
        scn = build_pendulum()
        samples = [np.array([1.2, 0.5]), np.array([-1.5, 2.0])]
        report = check_full_row_rank(scn.sfs.layers[-1].g, samples)
        assert report.ok
        assert report.min_singular_value == pytest.approx(1.0)  # 1/(ml^2) with m=l=1

    def test_contrived_rank_drop_flagged(self):
        sfs = StrictFeedbackSystem(
            layers=(
                Layer(f=lambda x: np.zeros(1), g=lambda x: np.eye(1), w=lambda x: np.zeros((1, 1)), dim=1),
                Layer(f=lambda x: np.zeros(1), g=lambda x: np.array([[x[0]]]), w=lambda x: np.zeros((1, 1)), dim=1),
            ),
            m=1,
            p=1,
        )
        report = check_full_row_rank(sfs.layers[-1].g, [np.array([0.0, 1.0]), np.array([2.0, 1.0])])
        assert not report.ok
        assert len(report.flagged) == 1

    def test_quadrotor_bottom_layer_passes(self):
        from odcbf.scenarios import build_quadrotor

        scn = build_quadrotor()
        report = check_full_row_rank(scn.dsys.g_bot, [np.array([t]) for t in np.linspace(-1, 1, 9)])
        assert report.ok
        assert report.min_singular_value == pytest.approx(1.0)

    def test_empty_samples_error(self):
        scn = build_pendulum()
        with pytest.raises(SamplerError):
            check_full_row_rank(scn.sfs.layers[-1].g, [])


class TestRecursiveCompose:
    def test_two_layer_reduces_to_compose_barrier(self):
        scn = build_pendulum()
        rec = recursive_compose(scn.sfs, scn.h1, mus=[scn.cfg.mu], sigmas=[scn.cfg.sigma])
        rng = np.random.default_rng(5)
        for x in rng.uniform([-1.5, -3.0], [1.5, 3.0], size=(50, 2)):
            assert rec.h(x) == pytest.approx(scn.composite.h(x), rel=1e-12, abs=1e-12)
            assert np.allclose(rec.grad_h(x), scn.composite.grad_h(x), rtol=1e-12, atol=1e-12)

    def test_three_layer_nested_manifold_point(self):
        sfs = triple_integrator()
        rec = recursive_compose(sfs, h1_for(), mus=[0.5, 0.5], sigmas=[1.0, 1.0])
        # at fixed x1 the max of h over (x2, x3) sits on the nested manifold,
        # where both deviation penalties vanish and h = h1(x1)
        from scipy.optimize import minimize

        x1 = 0.3

        def neg_h(z):
            return -rec.h(np.array([x1, z[0], z[1]]))

        res = minimize(neg_h, np.zeros(2), method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
        assert -res.fun == pytest.approx(1.0 - x1**2, abs=1e-8)

    def test_three_layer_gradient_matches_fd(self):
        sfs = triple_integrator()
        rec = recursive_compose(sfs, h1_for(), mus=[0.5, 0.8], sigmas=[1.0, 1.5])
        rng = np.random.default_rng(9)
        for x in rng.uniform([-1.4, -2.0, -3.0], [1.4, 2.0, 3.0], size=(100, 3)):
            analytic = rec.grad_h(x)
            fd = ad.fd_gradient(rec.h, x)
            rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd)))
            assert rel <= 1e-6

    def test_wrong_parameter_counts(self):
        sfs = triple_integrator()
        with pytest.raises(ParameterError):
            recursive_compose(sfs, h1_for(), mus=[0.5], sigmas=[1.0, 1.0])


class TestTheoremEvidence:
    """Conclusion of the composite-barrier theorem, sampled."""

    def test_lie_collapse_on_manifold(self):
        scn = build_pendulum()
        rng = np.random.default_rng(41)
        for _ in range(200):
            q = rng.uniform(-1.8, 1.8)
            x1 = np.array([q])
            k1_val = float(np.asarray(ad.value(scn.k1.k1(x1))).reshape(-1)[0])
            x = np.array([q, k1_val])
            lie_full = eval_lie(scn.sys, scn.bar, x)
            lie_top = eval_lie(scn.top_sys, scn.h1, x1)
            lf1_plus_lg1k1 = lie_top.lf_h + float(lie_top.lg_h @ np.atleast_1d(k1_val))
            assert abs(lie_full.lf_h - lf1_plus_lg1k1) <= 1e-10
            assert np.max(np.abs(lie_full.lw_h - lie_top.lw_h)) <= 1e-10

    def test_margin_positive_where_lg_vanishes(self):
        scn = build_pendulum()
        rng = np.random.default_rng(43)
        hits = 0
        for _ in range(300):
            q = rng.uniform(1.0, 1.9) * rng.choice([-1.0, 1.0])
            x1 = np.array([q])
            k1_val = float(np.asarray(ad.value(scn.k1.k1(x1))).reshape(-1)[0])
            x = np.array([q, k1_val])
            lie = eval_lie(scn.sys, scn.bar, x)
            if np.linalg.norm(lie.lg_h) > 1e-10 or scn.bar.h(x) > 0:
                continue
            hits += 1
            margin = lie.lf_h + scn.bar.theta_d * float(scn.bar.alpha(lie.h_val)) - float(lie.lw_h @ lie.lw_h) / scn.bar.epsilon
            assert margin > 0.0
        assert hits >= 100

    def test_safe_slice_containment(self):
        # h(x) >= 0 implies h1(x1) >= 0 since the penalty is nonnegative
        scn = build_pendulum()
        rng = np.random.default_rng(47)
        for x in rng.uniform([-2.0, -4.0], [2.0, 4.0], size=(500, 2)):
            if scn.bar.h(x) >= 0:
                assert scn.h1.h(x[:1]) >= 0

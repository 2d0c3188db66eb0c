import numpy as np
import pytest

from odcbf import autodiff as ad
from odcbf.backstepping import CompositeBarrier, Layer, StrictFeedbackSystem, check_full_row_rank
from odcbf.barrier import BarrierSpec, eval_lie, linear_class_k
from odcbf.errors import ParameterError, SamplerError
from odcbf.scenarios import build_pendulum
from odcbf.synthesis import SmoothVirtualController


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
        ident = SmoothVirtualController(k1=lambda x1: np.zeros(1))
        flat_h1 = BarrierSpec(
            h=lambda x: 1.0, grad_h=lambda x: np.zeros(1),
            alpha=linear_class_k(), epsilon=1.0, theta_d=1.0, p_weight=1.0, n=1,
        )
        comp = CompositeBarrier(flat_h1, ident, 1.0, 1, 1)
        assert comp.h(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_rejects_nonpositive_mu(self):
        scn = build_pendulum()
        with pytest.raises(ParameterError):
            CompositeBarrier(scn.h1, scn.k1, 0.0, 1, 1)

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
        ident = CompositeBarrier(scn.h1, scn.k1, scn.cfg.mu, 1, 1, ref_map=lambda v: ad.stack([v[0]]))
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
    """Blocks of dims 1 and 2 whose f, g and w all depend on the state."""
    return StrictFeedbackSystem(
        layers=(
            Layer(
                f=lambda x: ad.stack([ad.sin(x[0])]),
                g=lambda x: ad.stack([1.0 + x[0] * x[0], ad.cos(x[0])])[None, :],
                w=lambda x: np.array([[0.3]]),
                dim=1,
            ),
            Layer(
                f=lambda x: ad.stack([x[1] * x[0], -x[2]]),
                g=lambda x: ad.stack([1.0, x[1]])[:, None],
                w=lambda x: ad.stack([x[0], 0.0])[:, None],
                dim=2,
            ),
        ),
        m=1,
        p=1,
    )


def flat(out):
    if isinstance(out, ad.Dual):
        return ad.Dual(np.reshape(out.val, -1), np.reshape(out.dot, (-1, out.dot.shape[-1])))
    return np.reshape(np.asarray(out, dtype=float), -1)


class TestBlockLayout:
    def test_assembled_system_chains_the_bottom_block(self):
        sfs = nonlinear_cascade()
        sys = sfs.assemble()
        x = np.array([0.4, -0.6, 1.3])
        assert sfs.n == sys.n == 3
        top, bot = sfs.layers
        chained = top.f(x[:1]) + top.g(x[:1]) @ x[1:]
        assert np.allclose(sys.f(x), np.concatenate([chained, bot.f(x)]), rtol=1e-15, atol=0.0)
        assert np.array_equal(sys.g(x), [[0.0], [1.0], [-0.6]])
        assert np.array_equal(sys.w(x), [[0.3], [0.4], [0.0]])

    def test_cascades_have_two_layers(self):
        layers = nonlinear_cascade().layers
        with pytest.raises(ParameterError):
            StrictFeedbackSystem(layers=layers + layers[1:], m=1, p=1)

    def test_virtual_top_is_layer_zero(self):
        sfs = nonlinear_cascade()
        top, layer = sfs.virtual_top(), sfs.layers[0]
        assert (top.n, top.m, top.p) == (1, 2, 1)
        assert top.f is layer.f and top.g is layer.g and top.w is layer.w

    @pytest.mark.parametrize("part", ["f", "g", "w"])
    def test_virtual_top_is_dual_evaluable(self, part):
        top = nonlinear_cascade().virtual_top()
        x = np.array([0.4])
        fn = lambda y: flat(getattr(top, part)(y))
        val, jac = ad.jacobian(fn, x)
        assert np.allclose(val, fn(x), rtol=1e-14, atol=1e-14)
        assert np.allclose(jac, ad.fd_jacobian(fn, x), rtol=1e-7, atol=1e-9)


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

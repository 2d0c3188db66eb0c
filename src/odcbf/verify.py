"""Numerical certification: QP oracle and sampling-based barrier checks.

Every check here is sampling-based numerical evidence, not proof: rank
tolerance 1e-8, margin strictness threshold 1e-10, seeded reproducible
sampling. Verdicts are "pass", "fail", or "vacuous-pass" — the last meaning
the check found nothing to falsify (e.g. no zero-set point was located),
which is reported distinctly so suites can demand a genuine hit where the
theory predicts one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .barrier import BarrierSpec, LieData, eval_lie
from .dynamics import DisturbedSystem
from .errors import ParameterError, SamplerError

RANK_TOL = 1e-8
MARGIN_TOL = 1e-10
MATCH_TOL = 1e-9  # largest residual of a w column against range(g) that counts as matched
ZERO_SET_SLACK = 1e-10  # largest h at which a point with L_g h = 0 counts as on the zero set
# qp_oracle: a candidate's constraint slack, and its omega-bound multiplier, down to which it is feasible
ORACLE_FEAS_TOL = 1e-10
ORACLE_MULT_FLOOR = -1e-14
SAMPLER_TRIES = 200  # a sampler's draws per requested point before it gives up
# zero-set refinement: Gauss-Newton iterations, and the ||L_g h|| at which it stops
GN_ITERS = 20
GN_TOL = 1e-12
# regular-value rays: length, count per level
RAY_LENGTH = 10.0
N_RAYS = 200
# bracket_root: absolute and relative width of the final bracket, evaluation cap
ROOT_XTOL = 1e-12
ROOT_RTOL = 4 * float(np.finfo(float).eps)
ROOT_MAXITER = 100


# -- sampling ------------------------------------------------------------


@dataclass(frozen=True)
class BoxRegionSampler:
    """Rejection sampler: uniform on a box, filtered by a predicate.

    The sets D \\ Int(S) are implicit, so a user-declared bounding box is the
    carrier; the predicate keeps h <= 0 and h + b > 0.
    """

    lo: np.ndarray
    hi: np.ndarray
    predicate: Callable[[np.ndarray], bool]

    def draw(self, rng, count):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        out = []
        tries = 0
        budget = SAMPLER_TRIES * count
        while len(out) < count:
            if tries >= budget:
                raise SamplerError(
                    f"sampler exhausted: {len(out)}/{count} accepted after {tries} tries"
                )
            batch = rng.uniform(lo, hi, size=(min(count * 4, budget - tries), lo.size))
            tries += batch.shape[0]
            for x in batch:
                if self.predicate(x):
                    out.append(x)
                    if len(out) == count:
                        break
        return np.array(out)


def exterior_sampler(bar: BarrierSpec, lo, hi) -> BoxRegionSampler:
    """Sampler for D \\ Int(S) = {h <= 0 < h + b} inside a declared box."""

    def pred(x):
        hv = float(bar.h(x))
        return not hv > 0.0 and bar.in_domain(hv)

    return BoxRegionSampler(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), pred)


# -- reports -------------------------------------------------------------


@dataclass
class SampleReport:
    """Outcome of a sampling check; violations are sorted worst-first."""

    samples_checked: int
    violations: list = field(default_factory=list)  # (state, margin)
    min_margin: float = math.inf
    verdict: str = "pass"
    zero_set_hits: int = 0
    note: str = "numerical evidence (sampling), not a proof"

    def finalize(self):
        self.violations.sort(key=lambda sm: sm[1])
        if self.violations:
            self.verdict = "fail"
        elif self.zero_set_hits == 0:
            self.verdict = "vacuous-pass"
        else:
            self.verdict = "pass"
        return self

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "min_margin": None if math.isinf(self.min_margin) else self.min_margin,
            "samples_checked": self.samples_checked,
            "zero_set_hits": self.zero_set_hits,
            "counterexamples": [
                {"state": np.asarray(x, dtype=float).tolist(), "margin": float(m)}
                for x, m in self.violations[:50]
            ],
            "note": self.note,
        }


# -- QP oracle -----------------------------------------------------------


@dataclass(frozen=True)
class OracleSolution:
    u: Optional[np.ndarray]
    omega: Optional[float]
    objective: Optional[float]
    feasible: bool
    case: str


def qp_oracle(lf_h, lg_h, lw_h, alpha_h, epsilon, theta_d, p, k_d) -> OracleSolution:
    """Brute-force KKT case enumeration for the two-block decay QP.

    Enumerates the active sets of {barrier constraint, omega bound}, keeps
    the stationary points that satisfy primal and dual feasibility, and
    returns the one of least objective, compared with every step scaled by
    the largest, so that steps whose objective overflows still rank.
    Independent of the closed form: no lambda/psi expressions are reused
    beyond the constraint left-hand side.
    """
    b = np.asarray(lg_h, dtype=float).reshape(-1)
    lw = np.asarray(lw_h, dtype=float).reshape(-1)
    k_d = np.asarray(k_d, dtype=float).reshape(-1)
    alpha_h = float(alpha_h)
    bb = float(b @ b)

    # constraint at the shifted origin (u = k_d, omega = theta_d)
    r0 = float(lf_h + b @ k_d + theta_d * alpha_h - (lw @ lw) / epsilon)

    def objective(du, domega):
        return 0.5 * float(du @ du) + 0.5 * p * domega**2

    def feasible(du, domega):
        return (r0 + b @ du + alpha_h * domega >= -ORACLE_FEAS_TOL) and (domega >= -ORACLE_FEAS_TOL)

    candidates = []

    # case A: both constraints inactive
    if feasible(np.zeros_like(k_d), 0.0):
        candidates.append((np.zeros_like(k_d), 0.0, "inactive"))

    # case B: barrier active, omega bound slack (du = lam b, domega = lam alpha / p)
    denom = bb + alpha_h**2 / p
    if denom > 0.0:
        lam = -r0 / denom
        domega = lam * alpha_h / p
        if lam >= 0.0 and domega >= 0.0:
            candidates.append((lam * b, domega, "barrier"))

    # case C: barrier and omega bound both active (domega = 0, min-norm du)
    if bb > 0.0:
        du = -r0 * b / bb
        lam = -r0 / bb
        mu = -lam * alpha_h  # multiplier of the omega bound
        if lam >= 0.0 and mu >= ORACLE_MULT_FLOOR and feasible(du, 0.0):
            candidates.append((du, 0.0, "both"))

    if not candidates:
        return OracleSolution(u=None, omega=None, objective=None, feasible=False, case="infeasible")

    # The objective is homogeneous of degree 2, so candidates rank alike after dividing their
    # steps by the largest one; unscaled, it overflows to inf for steps beyond ~1.3e154.
    scale = max(max(float(np.max(np.abs(du), initial=0.0)), abs(domega)) for du, domega, _ in candidates)
    scale = scale if 0.0 < scale < math.inf else 1.0
    du, domega, case = min(candidates, key=lambda c: objective(c[0] / scale, c[1] / scale))
    return OracleSolution(
        u=k_d + du,
        omega=theta_d + domega,
        objective=objective(du, domega),
        feasible=True,
        case=case,
    )


# -- zero-set refinement ---------------------------------------------------


def lg_jacobian(lie: LieData) -> Optional[np.ndarray]:
    """d(L_g h)/dx in closed form from a backstepped barrier's pass, or None.

    For h = h_top(x_top) - ||x_bot - ref(x_top)||^2 / (2 mu) and an input
    matrix g = (0; g_bot) acting on the bottom block alone,
    L_g h = -(x_bot - ref)^T g_bot / mu, whose jacobian is
    (1/mu) g_bot^T [dref/dx_top, -I] plus a term in dg_bot/dx. That term is
    linear in x_bot - ref, so it vanishes on the zero set wherever g_bot has
    full row rank (the premise of the construction), and it is dropped: a
    varying g_bot can only slow Gauss-Newton down, since points are accepted
    on their evaluated L_g h alone. None when the pass carries no reference
    jacobian or g acts on the top block too.
    """
    be = lie.bar_eval
    if be.ref_jac is None:
        return None
    n_bot, n_top = be.ref_jac.shape
    if n_top + n_bot != lie.g.shape[0] or np.any(lie.g[:n_top]):
        return None
    return lie.g[n_top:].T @ np.hstack([be.ref_jac, -np.eye(n_bot)]) / be.mu


def _gauss_newton_zero(lie_at, x, lie):
    """Drive L_g h to zero from x (with lie = lie_at(x)) by min-norm Gauss-Newton.

    Each iterate costs one evaluation lie_at, which gives the residual and,
    for a backstepped barrier, its jacobian (``lg_jacobian``). A barrier
    whose pass carries no reference jacobian raises ParameterError.
    Underdetermined systems take the pseudoinverse (least-norm) step, so the
    iterate stays near the seed. Returns the last iterate and its LieData.
    """
    for _ in range(GN_ITERS):
        r = np.atleast_1d(lie.lg_h)
        if np.linalg.norm(r) < GN_TOL:
            break
        jac = lg_jacobian(lie)
        if jac is None:
            raise ParameterError(
                "zero-set refinement needs a backstepped barrier: its pass carries no reference "
                "jacobian (ref_jac), or the input matrix acts on the top block"
            )
        dx, *_ = np.linalg.lstsq(np.atleast_2d(jac), -r, rcond=None)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
        lie = lie_at(x)
    return x, lie


def lemma_margin(bar: BarrierSpec, lie: LieData) -> float:
    """L_f h + theta_d alpha(h) - ||L_w h||^2 / eps, the strict-verification margin."""
    return lie.lf_h + bar.theta_d * float(bar.alpha(lie.h_val)) - ad.dot(lie.lw_h, lie.lw_h) / bar.epsilon


def check_od_issf(sys: DisturbedSystem, bar: BarrierSpec, sampler: BoxRegionSampler, n_seeds=300, seed=0) -> SampleReport:
    """Falsification check of the zero-set implication.

    At points of D \\ Int(S) where ||L_g h|| <= RANK_TOL the margin
    L_f h + theta_d alpha(h) - ||L_w h||^2/eps must exceed MARGIN_TOL.
    Seeds from the sampler are refined onto the zero set by Gauss-Newton on
    L_g h; refined points that leave the region are discarded. A point's
    own evaluation gives its hit test and its margin. Refinement takes the
    jacobian of L_g h in closed form from a backstepped barrier's pass
    (``lg_jacobian``); with a barrier that has no such pass it raises
    ParameterError.
    """
    rng = np.random.default_rng(seed)
    seeds = sampler.draw(rng, n_seeds)
    report = SampleReport(samples_checked=len(seeds))

    def lie_at(x):
        return eval_lie(sys, bar, x)

    def on_zero_set(lie):
        if float(np.linalg.norm(lie.lg_h)) > RANK_TOL or lie.h_val > ZERO_SET_SLACK:
            return False
        return bar.in_domain(lie.h_val)

    for x in seeds:
        lie = lie_at(x)
        if not on_zero_set(lie):
            x, lie = _gauss_newton_zero(lie_at, x, lie)
            if not on_zero_set(lie):
                continue
        m = lemma_margin(bar, lie)
        report.zero_set_hits += 1
        report.min_margin = min(report.min_margin, m)
        if m <= MARGIN_TOL:
            report.violations.append((x.copy(), m))

    return report.finalize()


def check_prop1(sys: DisturbedSystem, bar: BarrierSpec, sampler: BoxRegionSampler, n_samples=2000, seed=0) -> SampleReport:
    """Sufficient condition: L_g h never vanishes on D \\ Int(S).

    Pass iff min ||L_g h|| over the samples stays above RANK_TOL; a failing
    sample is reported with margin = ||L_g h|| - RANK_TOL <= 0.
    """
    rng = np.random.default_rng(seed)
    samples = sampler.draw(rng, n_samples)
    report = SampleReport(samples_checked=len(samples))
    report.zero_set_hits = len(samples)  # every sample is a genuine probe here
    for x in samples:
        norm_lg = float(np.linalg.norm(eval_lie(sys, bar, x).lg_h))
        report.min_margin = min(report.min_margin, norm_lg - RANK_TOL)
        if norm_lg <= RANK_TOL:
            report.violations.append((x.copy(), norm_lg - RANK_TOL))
    return report.finalize()


def bracket_root(f, a, b, fa, fb):
    """A root of f in the bracket [a, b], given fa = f(a) and fb = f(b).

    fa and fb must be zero or of opposite signs (ValueError otherwise); a
    zero endpoint is returned as is. Brent-Dekker: a secant or inverse
    quadratic step while it stays well inside the bracket and shrinks it
    fast enough, bisection otherwise, so it converges superlinearly on smooth
    f and always keeps a bracket. Returns once the bracket around the
    estimate is narrower than ROOT_XTOL + ROOT_RTOL |estimate|; RuntimeError
    if that takes more than ROOT_MAXITER evaluations of f.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"f(a)={fa!r} and f(b)={fb!r} do not bracket a root")
    # cur: best estimate; prev: the estimate before it; far: the other end of the bracket
    prev, f_prev, cur, f_cur = a, fa, b, fb
    far = f_far = step = last_step = 0.0
    for _ in range(ROOT_MAXITER):
        if (f_prev < 0.0) != (f_cur < 0.0):
            far, f_far = prev, f_prev
            step = last_step = cur - prev
        if abs(f_far) < abs(f_cur):
            prev, f_prev, cur, f_cur, far, f_far = cur, f_cur, far, f_far, cur, f_cur
        tol = 0.5 * (ROOT_XTOL + ROOT_RTOL * abs(cur))
        half = 0.5 * (far - cur)
        if f_cur == 0.0 or abs(half) < tol:
            return cur
        trial = None
        if abs(last_step) > tol and abs(f_cur) < abs(f_prev):
            if prev == far:  # secant
                trial = -f_cur * (cur - prev) / (f_cur - f_prev)
            else:  # inverse quadratic interpolation
                d_prev = (f_prev - f_cur) / (prev - cur)
                d_far = (f_far - f_cur) / (far - cur)
                trial = -f_cur * (f_far * d_far - f_prev * d_prev) / (d_far * d_prev * (f_far - f_prev))
            if not 2.0 * abs(trial) < min(abs(last_step), 3.0 * abs(half) - tol):
                trial = None
        if trial is None:
            last_step = step = half
        else:
            last_step, step = step, trial
        prev, f_prev = cur, f_cur
        cur += step if abs(step) > tol else math.copysign(tol, half)
        f_cur = f(cur)
    raise RuntimeError(f"no root found in [{a!r}, {b!r}] after {ROOT_MAXITER} evaluations")


def check_regular_values(bar: BarrierSpec, kappas, center, seed=0) -> SampleReport:
    """Locate h = kappa points by root-tracing N_RAYS random rays of length RAY_LENGTH
    from ``center``; require ||grad h|| > RANK_TOL there.

    kappa values must lie in (-b, 0] (ParameterError otherwise, for every b);
    levels with no located points leave the verdict vacuous for that kappa
    (reported through zero_set_hits).
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    report = SampleReport(samples_checked=0)
    for kappa in kappas:
        if not -bar.domain_b < kappa <= 0.0:
            raise ParameterError(f"kappa={kappa!r} outside (-b, 0] = ({-bar.domain_b!r}, 0]")
        at_center = float(bar.h(center)) - kappa  # every ray starts here
        for _ in range(N_RAYS):
            direction = rng.normal(size=center.size)
            direction /= np.linalg.norm(direction)

            def along(t):
                return float(bar.h(center + t * direction)) - kappa

            report.samples_checked += 1
            # march outward until the level is bracketed
            prev_t, prev_f = 0.0, at_center
            for t in np.linspace(0.0, RAY_LENGTH, 33)[1:]:
                ft = along(t)
                if prev_f == 0.0 or prev_f * ft <= 0.0:
                    break
                prev_t, prev_f = t, ft
            else:
                continue
            t_star = bracket_root(along, prev_t, t, prev_f, ft)
            x_star = center + t_star * direction
            grad_norm = float(np.linalg.norm(np.asarray(bar.grad_h(x_star), dtype=float)))
            report.zero_set_hits += 1
            report.min_margin = min(report.min_margin, grad_norm - RANK_TOL)
            if grad_norm <= RANK_TOL:
                report.violations.append((x_star, grad_norm - RANK_TOL))
    return report.finalize()


def matched_residual(sys: DisturbedSystem, x) -> float:
    """Largest least-squares residual of w(x) columns against range(g(x))."""
    g = np.atleast_2d(np.asarray(sys.g(np.asarray(x, dtype=float)), dtype=float))
    w = np.atleast_2d(np.asarray(sys.w(np.asarray(x, dtype=float)), dtype=float))
    phi, *_ = np.linalg.lstsq(g, w, rcond=None)
    resid = g @ phi - w
    return float(np.max(np.linalg.norm(resid, axis=0)))


def check_matched(sys: DisturbedSystem, samples, bar: Optional[BarrierSpec] = None):
    """Classify the disturbance channel as matched/unmatched per sample.

    Matched means every w column lies in span(g) (residual <= MATCH_TOL).
    When a barrier is supplied, additionally asserts the matched implication
    ||L_g h|| <= RANK_TOL => ||L_w h|| <= MATCH_TOL at samples where it applies.
    """
    residuals = []
    implication_failures = []
    for x in samples:
        x = np.asarray(x, dtype=float)
        res = matched_residual(sys, x)
        residuals.append(res)
        if bar is not None and res <= MATCH_TOL:
            lie = eval_lie(sys, bar, x)
            if float(np.linalg.norm(lie.lg_h)) <= RANK_TOL and float(np.linalg.norm(lie.lw_h)) > MATCH_TOL:
                implication_failures.append((x, float(np.linalg.norm(lie.lw_h))))
    return {
        "samples_checked": len(residuals),
        "matched": all(r <= MATCH_TOL for r in residuals),
        "max_residual": max(residuals, default=0.0),
        "implication_failures": implication_failures,
        "note": "numerical evidence (sampling), not a proof",
    }

"""Exception types shared across the toolkit."""


class OdcbfError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(OdcbfError, ValueError):
    """An array argument has the wrong dimension; the message names it."""

    def __init__(self, name, expected, got):
        self.name = name
        self.expected = tuple(expected) if hasattr(expected, "__iter__") else (expected,)
        self.got = tuple(got) if hasattr(got, "__iter__") else (got,)
        super().__init__(f"{name}: expected shape {self.expected}, got {self.got}")


class ParameterError(OdcbfError, ValueError):
    """A scalar configuration parameter is out of its admissible range."""


class DomainError(OdcbfError, ValueError):
    """A state lies outside the barrier's domain (h(x) + b <= 0); carries the state, its time,
    and the h and h_top of the evaluation that was refused."""

    def __init__(self, x, t, h, h_top):
        self.x = x
        self.t = t
        self.h = h
        self.h_top = h_top
        super().__init__(f"state outside barrier domain (h + b <= 0) at x={x}")


class MarginUndefinedError(OdcbfError, ValueError):
    """gamma(delta) undefined: -eps*delta^2/(2*theta_d) outside the range of alpha."""


class InfeasiblePointError(OdcbfError, RuntimeError):
    """The barrier condition cannot be met at a state.

    Raised when L_g h = 0, alpha(h) <= 0 and the residual is negative, which
    falsifies the optimal-decay barrier premise at that state.
    """

    def __init__(self, x, upsilon, xi, zeta):
        self.x = x
        self.upsilon = upsilon
        self.xi = xi
        self.zeta = zeta
        super().__init__(
            "barrier condition infeasible at x=%s (upsilon=%.6g, xi=%.3g, zeta=%.6g); "
            "h is not a valid optimal-decay barrier there" % (x, upsilon, xi, zeta)
        )


class NonFiniteError(OdcbfError, ValueError):
    """Filter data (Lie derivatives, alpha(h)) or the input they imply is NaN or infinite."""


class SynthesisInfeasibleError(OdcbfError, RuntimeError):
    """Smooth controller synthesis failed: b = 0 with a <= 0 at some state."""

    def __init__(self, x, a, layer=None):
        self.x = x
        self.a = a
        self.layer = layer
        where = f" (layer {layer})" if layer is not None else ""
        super().__init__(f"synthesis infeasible{where} at x={x}: a={a:.6g} with zero input direction")


class TraceError(OdcbfError, RuntimeError):
    """A pass cannot be lowered to float code: it used a traced value as a float or a
    truth value outside ``autodiff.branch``, or its lowering disagrees with the pass."""


class ThrustDomainError(OdcbfError, ValueError):
    """Virtual input leaves the guarded thrust-positive domain of the attitude map."""


class AlignmentError(OdcbfError, RuntimeError):
    """Input-direction matrix is rank deficient; carries the singular values."""

    def __init__(self, singular_values, tol):
        self.singular_values = singular_values
        self.tol = tol
        super().__init__(f"alignment matrix rank deficient: singular values {singular_values} (floor {tol})")


class SamplerError(OdcbfError, RuntimeError):
    """A region sampler could not produce the requested points."""


class IntegrationError(OdcbfError, RuntimeError):
    """Non-finite derivative during integration; carries a state snapshot."""

    trajectory = None  # raised in a rollout: the rows recorded before it

    def __init__(self, t, x):
        self.t = t
        self.x = x
        super().__init__(f"non-finite derivative at t={t:.6g}, x={x}")


class SimulationAbort(OdcbfError, RuntimeError):
    """Rollout aborted (controller infeasibility, disturbance over its bound); carries the step index."""

    trajectory = None  # raised in a rollout: the rows recorded before it

    def __init__(self, step, t, reason):
        self.step = step
        self.t = t
        self.reason = reason
        super().__init__(f"rollout aborted at step {step} (t={t:.6g}): {reason}")


# Raised by evaluating a built scenario at a state that it reached. A rollout
# re-raises them as a SimulationAbort that names the step and the time.
STAGE_ERRORS = (NonFiniteError, ThrustDomainError, AlignmentError, SynthesisInfeasibleError)

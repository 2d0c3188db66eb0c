"""Optimal-decay input-to-state-safe control barrier function toolkit."""

from .backstepping import CompositeBarrier, Layer, StrictFeedbackSystem
from .barrier import (
    BarrierEval,
    BarrierSpec,
    ExtendedClassK,
    LieData,
    admissible_delta,
    eval_lie,
    gamma_margin,
    linear_class_k,
)
from .drd import DrdSystem, partial_closed_loop, quadrotor_eta_d
from .dynamics import DisturbanceSignal, DisturbedSystem, eval_dynamics
from .odfilter import FilterResult, OdIssfController, StateEval
from .scenarios import (
    Check,
    PendulumConfig,
    QuadrotorConfig,
    Scenario,
    build_pendulum,
    build_quadrotor,
)
from .sim import RolloutConfig, SafetyMetrics, Trajectory, rk4_step, rollout, sweep
from .synthesis import SmoothVirtualController, half_sontag, synth_virtual
from .verify import (
    SampleReport,
    check_matched,
    check_od_issf,
    check_prop1,
    check_regular_values,
    qp_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

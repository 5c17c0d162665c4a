"""Asynchronous, fair, adaptive federated learning in a deterministic simulator."""

from .bounds import (
    BoundInputs,
    ScaledBoundResult,
    beta_max_admissible,
    bound_clipped_beta,
    bound_constant_beta,
    bound_scaled,
)
from .coworker import (
    AdaptiveConfig,
    CoworkerState,
    UplinkPayload,
    make_coworker,
    run_single_iteration,
)
from .errors import ConfigError, NumericDivergenceError, ProtocolError
from .model_core import (
    GlobalEvaluator,
    LossKind,
    LossModel,
    ShardSet,
    jain_fairness_index,
    minibatch_gradient,
    quadratic_global_minimum,
    risk_arrays,
    smoothness_constant,
    stack_shards,
    uniform_weights,
)
from .network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    Evaluation,
    LinkModel,
    RunResult,
    SimulationEngine,
)
from .profiler import ParameterEstimates, ProfilingLog, finalize, record_aggregation
from .server import AggregationRecord, MixingConfig, ServerState, process_uplink
from .stream_manager import StreamBuffer

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AggregationRecord",
    "ArrivalProcess",
    "BoundInputs",
    "ConfigError",
    "CoworkerSetup",
    "CoworkerState",
    "Evaluation",
    "GlobalEvaluator",
    "LinkModel",
    "LossKind",
    "LossModel",
    "MixingConfig",
    "NumericDivergenceError",
    "ParameterEstimates",
    "ProfilingLog",
    "ProtocolError",
    "RunResult",
    "ScaledBoundResult",
    "ServerState",
    "ShardSet",
    "SimulationEngine",
    "StreamBuffer",
    "UplinkPayload",
    "beta_max_admissible",
    "bound_clipped_beta",
    "bound_constant_beta",
    "bound_scaled",
    "finalize",
    "jain_fairness_index",
    "make_coworker",
    "minibatch_gradient",
    "process_uplink",
    "quadratic_global_minimum",
    "record_aggregation",
    "risk_arrays",
    "run_single_iteration",
    "smoothness_constant",
    "stack_shards",
    "uniform_weights",
    "__version__",
]

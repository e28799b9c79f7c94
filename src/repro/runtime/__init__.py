"""Distributed serving runtime: master engine, stage workers, loaders,
fault injection, supervised recovery, and the hot-path dequantized-weight
cache."""

from .dequant_cache import DequantCache, DequantCacheStats
from .engine import (
    PipelineControl,
    PipelineRuntime,
    RuntimeStats,
    StageFailureError,
    SupervisionConfig,
)
from .faults import (
    FaultInjector,
    InjectedFault,
    KVAllocationError,
    KVAllocPressure,
    MessageCorruption,
    MessageDrop,
    PipelineStallError,
    StageCrash,
    Straggler,
)
from .kvcache import StageKVManager
from .loader import (
    LoadTimeline,
    QuantizedStageLayer,
    StageLoad,
    load_stage_weights,
    simulate_loading,
)
from .messages import (
    ActivationMessage,
    FailureMessage,
    ReleaseMessage,
    ShutdownMessage,
)
from .microbatch import MicroBatchManager
from .replan import (
    DriftConfig,
    DriftDetector,
    DriftEstimate,
    make_search_replanner,
    workload_refit_replanner,
)
from .scheduler import (
    ContinuousScheduler,
    MigrationRecord,
    RequestRecord,
    ServeReport,
    ServeRequest,
    requests_from_arrivals,
)
from .worker import StageWorker

__all__ = [
    "PipelineRuntime",
    "RuntimeStats",
    "SupervisionConfig",
    "PipelineControl",
    "StageFailureError",
    "FaultInjector",
    "InjectedFault",
    "KVAllocationError",
    "PipelineStallError",
    "StageCrash",
    "Straggler",
    "MessageDrop",
    "MessageCorruption",
    "KVAllocPressure",
    "StageKVManager",
    "DequantCache",
    "DequantCacheStats",
    "StageLoad",
    "QuantizedStageLayer",
    "load_stage_weights",
    "LoadTimeline",
    "simulate_loading",
    "ActivationMessage",
    "ReleaseMessage",
    "ShutdownMessage",
    "FailureMessage",
    "MicroBatchManager",
    "DriftConfig",
    "DriftDetector",
    "DriftEstimate",
    "MigrationRecord",
    "workload_refit_replanner",
    "make_search_replanner",
    "ContinuousScheduler",
    "ServeRequest",
    "RequestRecord",
    "ServeReport",
    "requests_from_arrivals",
    "StageWorker",
]

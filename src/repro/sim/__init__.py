"""Simulation substrate: kernels, pipeline, offloading, quality.

One offline pipeline simulator, the closed form the planner scores with
(:func:`simulate_pipeline`), and one online engine
(:func:`simulate_online`, run by :mod:`repro.sim.trace_engine` with an
analytic or a flow-shop DES iteration price).  The event-driven task
graph the closed form is checked against is a test reference
(``tests/sim/des_spec.py``), not shipped code.
"""

from .kernels import (
    KERNELS_PER_LAYER,
    embedding_exec_time,
    layer_exec_time,
    layer_exec_times_decode_sweep,
    layer_memory_traffic,
)
from .comm import activation_bytes, boundary_links, stage_comm_time
from .pipeline import PipelineResult, StageReport, simulate_pipeline
from .online import (
    OnlineRequest,
    OnlineResult,
    max_admissible_batch,
    simulate_online,
)
from .offload import OffloadResult, simulate_offload
from .quality import (
    QUALITY_ANCHORS,
    QualityAnchors,
    QualityModel,
    measure_kl_tiny,
    measure_ppl_tiny,
    plan_accuracy,
    plan_perplexity,
)

__all__ = [
    "layer_exec_time",
    "layer_exec_times_decode_sweep",
    "embedding_exec_time",
    "layer_memory_traffic",
    "KERNELS_PER_LAYER",
    "activation_bytes",
    "stage_comm_time",
    "boundary_links",
    "PipelineResult",
    "StageReport",
    "simulate_pipeline",
    "OnlineRequest",
    "OnlineResult",
    "max_admissible_batch",
    "simulate_online",
    "OffloadResult",
    "simulate_offload",
    "QualityAnchors",
    "QUALITY_ANCHORS",
    "QualityModel",
    "plan_perplexity",
    "plan_accuracy",
    "measure_ppl_tiny",
    "measure_kl_tiny",
]

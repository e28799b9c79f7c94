"""Replica-scoped fleet serving: router + coordinated autoscaler.

Public API for serving one arrival trace (simulator replicas) or one
batch of materialized requests (real runtime replicas) through
:func:`serve_fleet` across N independently planned pipeline replicas,
optionally disaggregated into prefill/decode pools and autoscaled from
windowed load signals.  A 1-replica fleet is byte-identical to the single
pipeline paths it wraps.
"""

from .autoscaler import AutoscaleConfig, FleetAutoscaler, ScaleEvent
from .fleet import plan_sim_replica, serve_fleet
from .replica import (
    POOL_DECODE,
    POOL_GENERAL,
    POOL_PREFILL,
    POOLS,
    PipelineReplica,
    ReplicaResult,
    RuntimeReplica,
    SimReplica,
)
from .report import FleetReport
from .router import ROUTER_POLICIES, Router

__all__ = [
    "POOLS",
    "POOL_GENERAL",
    "POOL_PREFILL",
    "POOL_DECODE",
    "ROUTER_POLICIES",
    "AutoscaleConfig",
    "FleetAutoscaler",
    "FleetReport",
    "PipelineReplica",
    "ReplicaResult",
    "Router",
    "RuntimeReplica",
    "ScaleEvent",
    "SimReplica",
    "plan_sim_replica",
    "serve_fleet",
]

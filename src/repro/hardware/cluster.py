"""Cluster topology: nodes, devices and the Table-3 presets.

A :class:`Cluster` is a set of :class:`Node` objects, each holding one or
more GPUs of a single type (as in the paper: "GPUs of the same type are
located on the same node, intra-connected with NV-LINK") joined by an
inter-node Ethernet link.

The planner works with *device orderings*: a permutation of all devices
defining the pipeline order.  Because devices of the same type are
interchangeable, the number of distinct orderings is the multinomial
coefficient over type counts — :meth:`Cluster.distinct_orderings`
enumerates exactly one representative per distinct type-sequence, which is
the pruning Algorithm 1 relies on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .gpu import GPUSpec, get_gpu
from .interconnect import (
    ETHERNET_100G,
    ETHERNET_800G,
    LOOPBACK,
    Link,
    link_for,
)

__all__ = [
    "Device",
    "Node",
    "Cluster",
    "make_cluster",
    "cluster_from_devices",
    "paper_cluster",
    "PAPER_CLUSTERS",
]


@dataclass(frozen=True)
class Device:
    """One physical GPU: a spec plus its location in the cluster."""

    spec: GPUSpec
    node_id: int
    local_rank: int

    @property
    def name(self) -> str:
        """Globally unique device name, e.g. ``T4-16G@n0.1``."""
        return f"{self.spec.name}@n{self.node_id}.{self.local_rank}"

    @property
    def type_name(self) -> str:
        """GPU type, e.g. ``T4-16G``."""
        return self.spec.name


@dataclass(frozen=True)
class Node:
    """A host machine holding homogeneous GPUs."""

    node_id: int
    gpu_type: str
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("node must hold at least one GPU")
        get_gpu(self.gpu_type)  # validate eagerly

    @property
    def devices(self) -> tuple[Device, ...]:
        """The node's member devices."""
        spec = get_gpu(self.gpu_type)
        return tuple(Device(spec, self.node_id, r) for r in range(self.count))


@dataclass(frozen=True)
class Cluster:
    """A heterogeneous (or homogeneous) GPU cluster.

    Parameters
    ----------
    nodes:
        The member nodes.
    inter_node_link:
        Link used between any two devices on different nodes.
    name:
        Optional human-readable label (e.g. ``"cluster-3"``).
    """

    nodes: tuple[Node, ...]
    inter_node_link: Link = ETHERNET_100G
    name: str = "cluster"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")

    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[Device, ...]:
        """All devices, node-major order."""
        out: list[Device] = []
        for node in self.nodes:
            out.extend(node.devices)
        return tuple(out)

    @property
    def num_devices(self) -> int:
        """Total GPUs in the cluster."""
        return sum(n.count for n in self.nodes)

    @property
    def total_memory_bytes(self) -> float:
        """Aggregate device memory."""
        return sum(d.spec.memory_bytes for d in self.devices)

    @property
    def gpu_type_counts(self) -> dict[str, int]:
        """Map GPU type name -> number of devices of that type."""
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.gpu_type] = counts.get(node.gpu_type, 0) + node.count
        return counts

    @property
    def is_heterogeneous(self) -> bool:
        """More than one GPU type present."""
        return len(self.gpu_type_counts) > 1

    def link_between(self, a: Device, b: Device) -> Link:
        """The link crossed when sending activations from ``a`` to ``b``."""
        if a == b:
            return LOOPBACK
        if a.node_id == b.node_id:
            return link_for(a.type_name)
        return self.inter_node_link

    # ------------------------------------------------------------------
    # Device-ordering enumeration (Algorithm 1's GetDeviceOrder).
    # ------------------------------------------------------------------
    def distinct_orderings(self, limit: int | None = None) -> Iterator[tuple[Device, ...]]:
        """Yield pipeline orderings, one per distinct GPU-*type* sequence.

        Devices of the same type are interchangeable for planning, so we
        enumerate multiset permutations of the type sequence and greedily
        bind concrete devices to each slot, preferring to keep same-type
        neighbours on the same node (cheaper links).
        """
        by_type: dict[str, list[Device]] = {}
        for dev in self.devices:
            by_type.setdefault(dev.type_name, []).append(dev)
        type_seq = sorted(by_type)
        counts = [len(by_type[t]) for t in type_seq]

        emitted = 0
        for perm in _multiset_permutations(type_seq, counts):
            pools = {t: list(devs) for t, devs in by_type.items()}
            ordering = tuple(pools[t].pop(0) for t in perm)
            yield ordering
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def num_distinct_orderings(self) -> int:
        """Multinomial count of distinct type sequences."""
        import math

        total = self.num_devices
        out = math.factorial(total)
        for c in self.gpu_type_counts.values():
            out //= math.factorial(c)
        return out

    def describe(self) -> str:
        """``name: 3xT4-16G + 1xV100-32G``-style summary."""
        parts = [f"{n.count}x{n.gpu_type}" for n in self.nodes]
        return f"{self.name}: " + " + ".join(parts)


def _multiset_permutations(values: Sequence[str], counts: Sequence[int]) -> Iterator[tuple[str, ...]]:
    """Distinct permutations of a multiset, lexicographic, no duplicates."""
    pool: list[str] = []
    for v, c in zip(values, counts):
        pool.extend([v] * c)
    seen_prefix: set[tuple[str, ...]] = set()

    def rec(remaining: list[str], prefix: list[str]) -> Iterator[tuple[str, ...]]:
        if not remaining:
            yield tuple(prefix)
            return
        used: set[str] = set()
        for i, v in enumerate(remaining):
            if v in used:
                continue
            used.add(v)
            yield from rec(remaining[:i] + remaining[i + 1 :], prefix + [v])

    yield from rec(pool, [])


def make_cluster(
    spec: Sequence[tuple[str, int]],
    *,
    inter_node_link: Link = ETHERNET_100G,
    name: str = "cluster",
) -> Cluster:
    """Build a cluster from ``[(gpu_type, count), ...]`` — one node per entry.

    Example
    -------
    >>> c = make_cluster([("T4-16G", 3), ("V100-32G", 1)], name="cluster-3")
    >>> c.num_devices
    4
    """
    nodes = tuple(Node(node_id=i, gpu_type=t, count=c) for i, (t, c) in enumerate(spec))
    return Cluster(nodes=nodes, inter_node_link=inter_node_link, name=name)


def cluster_from_devices(
    devices: Iterable[Device], *, name: str = "cluster"
) -> Cluster:
    """The cluster a device sequence implies (e.g. a plan's stage
    devices): one node per GPU type, types in first-seen order."""
    return make_cluster(
        list(Counter(d.type_name for d in devices).items()), name=name
    )


# ----------------------------------------------------------------------
# Table 3 presets.  ``model`` records which model the paper serves there.
# Clusters 1,2,9,10,11 are single-node; 3,5,8,11 use 800G Ethernet and
# 4,6,7 use 100G Ethernet (single-node clusters never cross it).
# ----------------------------------------------------------------------
_PAPER_SPECS: dict[int, tuple[list[tuple[str, int]], Link, str]] = {
    1: ([("V100-32G", 1)], ETHERNET_100G, "opt-13b"),
    2: ([("A100-40G", 1)], ETHERNET_100G, "opt-13b"),
    3: ([("T4-16G", 3), ("V100-32G", 1)], ETHERNET_800G, "opt-30b"),
    4: ([("P100-12G", 3), ("V100-32G", 1)], ETHERNET_100G, "opt-30b"),
    5: ([("T4-16G", 4), ("V100-32G", 2)], ETHERNET_800G, "opt-66b"),
    6: ([("V100-32G", 2), ("A100-40G", 2)], ETHERNET_100G, "opt-66b"),
    7: ([("V100-32G", 4), ("A100-40G", 4)], ETHERNET_100G, "bloom-176b"),
    8: ([("V100-32G", 4), ("A800-80G", 2)], ETHERNET_800G, "bloom-176b"),
    9: ([("T4-16G", 4)], ETHERNET_100G, "opt-30b"),
    10: ([("V100-32G", 4)], ETHERNET_100G, "opt-66b"),
    11: ([("A800-80G", 4)], ETHERNET_800G, "bloom-176b"),
}

#: Cluster id -> model key served there in the paper's evaluation.
PAPER_CLUSTERS: dict[int, str] = {cid: model for cid, (_, _, model) in _PAPER_SPECS.items()}


def paper_cluster(cluster_id: int) -> Cluster:
    """One of the paper's Table-3 clusters (1..11)."""
    try:
        spec, link, _ = _PAPER_SPECS[cluster_id]
    except KeyError:
        raise KeyError(f"paper clusters are 1..11, got {cluster_id}") from None
    return make_cluster(spec, inter_node_link=link, name=f"cluster-{cluster_id}")

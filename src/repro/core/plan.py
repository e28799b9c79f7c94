"""Execution-plan representation and (de)serialization.

An :class:`ExecutionPlan` is the assigner's output and the runtime's
input: an ordered list of pipeline stages (device + the bitwidth of every
decoder layer it hosts) plus the phase-specific micro-batch sizes, bound
to the workload it was optimized for — mirroring the strategy files that
``llmpq-algo`` writes and ``llmpq-dist`` launches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..hardware.cluster import Device
from ..hardware.gpu import get_gpu
from ..models.registry import get_model
from ..workload.spec import Workload

__all__ = ["StagePlan", "ExecutionPlan", "KV_BITS_CHOICES"]


#: Supported KV-cache bitwidths (QServe-style KV4/KV8 plus fp16 baseline).
KV_BITS_CHOICES = (4, 8, 16)


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage: a device and its layers' bitwidths (in order).

    ``kv_bits`` is the stage's KV-cache bitwidth — a first-class plan
    variable alongside the weight bitwidths.  16 is the fp16 baseline
    (KV untouched); 8/4 store quantized KV, shrinking both the memory
    footprint (more admission headroom) and the decode memory-bound
    time (smaller KV stream).
    """

    device: Device
    layer_bits: tuple[int, ...]
    kv_bits: int = 16

    def __post_init__(self) -> None:
        if not self.layer_bits:
            raise ValueError("a stage must host at least one layer")
        if any(b <= 0 for b in self.layer_bits):
            raise ValueError("bitwidths must be positive")
        if self.kv_bits not in KV_BITS_CHOICES:
            raise ValueError(
                f"kv_bits must be one of {KV_BITS_CHOICES}, got {self.kv_bits}"
            )

    @property
    def num_layers(self) -> int:
        """Decoder layers hosted by this stage."""
        return len(self.layer_bits)

    @property
    def bit_counts(self) -> dict[int, int]:
        """Histogram ``bits -> layer count`` of this stage."""
        out: dict[int, int] = {}
        for b in self.layer_bits:
            out[b] = out.get(b, 0) + 1
        return out


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete serving strategy for one model / cluster / workload."""

    model_name: str
    stages: tuple[StagePlan, ...]
    prefill_microbatch: int
    decode_microbatch: int
    workload: Workload
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("plan needs at least one stage")
        if self.prefill_microbatch <= 0 or self.decode_microbatch <= 0:
            raise ValueError("micro-batch sizes must be positive")
        if self.prefill_microbatch > self.workload.global_batch:
            raise ValueError("prefill micro-batch exceeds global batch")
        if self.decode_microbatch > self.workload.global_batch:
            raise ValueError("decode micro-batch exceeds global batch")
        cfg = get_model(self.model_name)
        if self.num_layers != cfg.num_layers:
            raise ValueError(
                f"plan covers {self.num_layers} layers, model has {cfg.num_layers}"
            )

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Pipeline depth."""
        return len(self.stages)

    @property
    def num_layers(self) -> int:
        """Total decoder layers across all stages."""
        return sum(s.num_layers for s in self.stages)

    @property
    def layer_bits(self) -> tuple[int, ...]:
        """Bits of every model layer, pipeline order."""
        out: list[int] = []
        for s in self.stages:
            out.extend(s.layer_bits)
        return tuple(out)

    @property
    def partition(self) -> tuple[int, ...]:
        """Layers per stage."""
        return tuple(s.num_layers for s in self.stages)

    @property
    def kv_bits_per_stage(self) -> tuple[int, ...]:
        """KV-cache bitwidth of every stage, pipeline order."""
        return tuple(s.kv_bits for s in self.stages)

    def with_kv_bits(self, kv_bits: int | Sequence[int]) -> "ExecutionPlan":
        """Copy of this plan with per-stage KV bitwidths replaced.

        Accepts a single bitwidth (applied to every stage) or one per
        stage.  Everything else — devices, layer bitwidths, micro-batch
        sizes, workload, meta — is preserved.
        """
        if isinstance(kv_bits, int):
            per_stage = (kv_bits,) * self.num_stages
        else:
            per_stage = tuple(int(b) for b in kv_bits)
            if len(per_stage) != self.num_stages:
                raise ValueError(
                    f"need {self.num_stages} kv_bits entries, got {len(per_stage)}"
                )
        stages = tuple(
            StagePlan(device=s.device, layer_bits=s.layer_bits, kv_bits=b)
            for s, b in zip(self.stages, per_stage)
        )
        return ExecutionPlan(
            model_name=self.model_name,
            stages=stages,
            prefill_microbatch=self.prefill_microbatch,
            decode_microbatch=self.decode_microbatch,
            workload=self.workload,
            meta=dict(self.meta),
        )

    def average_bits(self) -> float:
        """Mean weight bitwidth over all layers."""
        bits = self.layer_bits
        return sum(bits) / len(bits)

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        rows = []
        for i, s in enumerate(self.stages):
            counts = ", ".join(f"{n}x{b}b" for b, n in sorted(s.bit_counts.items()))
            kv = "" if s.kv_bits == 16 else f" kv{s.kv_bits}"
            rows.append(
                f"  stage {i}: {s.device.type_name:<10} {s.num_layers:>3} layers [{counts}]{kv}"
            )
        head = (
            f"{self.model_name} | {self.num_stages} stages | "
            f"mb_prefill={self.prefill_microbatch} mb_decode={self.decode_microbatch} | "
            f"s={self.workload.prompt_len} n={self.workload.gen_len} b={self.workload.global_batch}"
        )
        return "\n".join([head, *rows])

    # ------------------------------------------------------------------
    # Serialization (the strategy files of Sec. 5's CLI)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready strategy dict (the llmpq-algo output format)."""
        return {
            "model_name": self.model_name,
            "prefill_microbatch": self.prefill_microbatch,
            "decode_microbatch": self.decode_microbatch,
            "workload": {
                "prompt_len": self.workload.prompt_len,
                "gen_len": self.workload.gen_len,
                "global_batch": self.workload.global_batch,
            },
            "stages": [
                {
                    "gpu_type": s.device.type_name,
                    "node_id": s.device.node_id,
                    "local_rank": s.device.local_rank,
                    "layer_bits": list(s.layer_bits),
                    "kv_bits": s.kv_bits,
                }
                for s in self.stages
            ],
            "meta": self.meta,
        }

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize; optionally write a strategy file at ``path``."""
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "ExecutionPlan":
        """Inverse of :meth:`to_dict`.

        Strategy files written before KV bitwidths became per-stage
        carry one plan-global ``meta.kv_bits``; loading upgrades them:
        when every stage is still at 16 the stages take that value, and
        the meta key is dropped either way (stage values are the only
        ones the cost model reads).
        """
        meta = dict(d.get("meta", {}))
        global_kv = int(meta.pop("kv_bits", 16))
        stage_kv = [int(s.get("kv_bits", 16)) for s in d["stages"]]
        if all(kv == 16 for kv in stage_kv):
            stage_kv = [global_kv] * len(stage_kv)
        stages = tuple(
            StagePlan(
                device=Device(
                    spec=get_gpu(s["gpu_type"]),
                    node_id=int(s["node_id"]),
                    local_rank=int(s["local_rank"]),
                ),
                layer_bits=tuple(int(b) for b in s["layer_bits"]),
                kv_bits=kv,
            )
            for s, kv in zip(d["stages"], stage_kv)
        )
        w = d["workload"]
        return cls(
            model_name=d["model_name"],
            stages=stages,
            prefill_microbatch=int(d["prefill_microbatch"]),
            decode_microbatch=int(d["decode_microbatch"]),
            workload=Workload(
                prompt_len=int(w["prompt_len"]),
                gen_len=int(w["gen_len"]),
                global_batch=int(w["global_batch"]),
            ),
            meta=meta,
        )

    @classmethod
    def from_json(cls, src: str | Path) -> "ExecutionPlan":
        """Load a strategy from a JSON string or file path."""
        text = str(src)
        if not text.lstrip().startswith("{"):
            text = Path(src).read_text()
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        model_name: str,
        devices: Sequence[Device],
        workload: Workload,
        *,
        bits: int = 16,
        kv_bits: int = 16,
        prefill_microbatch: int | None = None,
        decode_microbatch: int | None = None,
    ) -> "ExecutionPlan":
        """Even layer split at a single precision (the Uniform baseline)."""
        cfg = get_model(model_name)
        n_dev = len(devices)
        if n_dev == 0:
            raise ValueError("need at least one device")
        base, extra = divmod(cfg.num_layers, n_dev)
        counts = [base + (1 if i < extra else 0) for i in range(n_dev)]
        stages = tuple(
            StagePlan(device=d, layer_bits=(bits,) * c, kv_bits=kv_bits)
            for d, c in zip(devices, counts)
            if c > 0
        )
        mb = max(1, workload.global_batch // max(len(stages), 1))
        return cls(
            model_name=model_name,
            stages=stages,
            prefill_microbatch=prefill_microbatch or mb,
            decode_microbatch=decode_microbatch or mb,
            workload=workload,
        )

"""Continuous serving with one batch-1 message per request per token.

This is the specification the scheduler's fused decode is pinned to at
token-stream level: the same stage workers, shards, dequant caches and
KV slab as a real serve, but every decode step of every request crosses
the pipeline as its own batch-1 :class:`ActivationMessage` — the shapes
of the single-process reference — instead of one row of a
:class:`BatchedDecodeMessage`.  It drives ``rt.head`` directly (no
scheduler, no admission, no clock): all requests prefill, then rounds of
one decode message per unfinished request, finished units released at
each round boundary, so several units stay live in a stage's slab the
way they do under the scheduler.

Used by ``tests/runtime/test_fused_decode.py`` and
``benchmarks/test_ext_continuous_batching.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ops import greedy_pick
from repro.runtime import PipelineRuntime
from repro.runtime.messages import ActivationMessage, ReleaseMessage


def _collect(rt: PipelineRuntime, count: int) -> dict[int, ActivationMessage]:
    out: dict[int, ActivationMessage] = {}
    while len(out) < count:
        msg = rt._next_message(f"activation {len(out) + 1}/{count}")
        if isinstance(msg, ActivationMessage):
            out[msg.microbatch_id] = msg
    return out


def _pick(rt: PipelineRuntime, msg: ActivationMessage) -> int:
    return int(greedy_pick(rt._logits_last(msg.hidden))[0])


def spec_serve_per_request(model, plan, requests) -> dict[int, np.ndarray]:
    """Greedy token streams by request id, every message batch-1."""
    with PipelineRuntime(model, plan) as rt:
        embed = rt.reference._embed
        tokens: dict[int, list[int]] = {}
        live = {r.request_id: r for r in requests}
        for uid, req in live.items():
            rt.head.put(
                ActivationMessage(
                    microbatch_id=uid, phase="prefill", start=0,
                    hidden=embed(np.asarray(req.prompt)[None, :], 0),
                    reserve=req.gen_len,
                )
            )
        for uid, msg in _collect(rt, len(live)).items():
            tokens[uid] = [_pick(rt, msg)]
        while live:
            done = [u for u, r in live.items() if len(tokens[u]) >= r.gen_len]
            if done:
                rt.head.put(ReleaseMessage(unit_ids=tuple(done)))
                while not isinstance(rt._next_message("release ack"), ReleaseMessage):
                    pass
                for uid in done:
                    del live[uid]
            for uid, req in live.items():
                start = req.prompt_len + len(tokens[uid]) - 1
                rt.head.put(
                    ActivationMessage(
                        microbatch_id=uid, phase="decode", start=start,
                        hidden=embed(
                            np.array([[tokens[uid][-1]]], dtype=np.int64), start
                        ),
                    )
                )
            for uid, msg in _collect(rt, len(live)).items():
                tokens[uid].append(_pick(rt, msg))
    return {uid: np.array(t, dtype=np.int64) for uid, t in tokens.items()}

"""Unit tests for the stage worker in isolation."""

import queue

import numpy as np
import pytest

from repro.models import TinyDecoderLM
from repro.runtime.loader import load_stage_weights
from repro.runtime.messages import (
    ActivationMessage,
    BatchedDecodeMessage,
    ShutdownMessage,
)
from repro.runtime.worker import StageWorker


@pytest.fixture()
def worker_env(tiny4l):
    model = TinyDecoderLM(tiny4l, seed=4)
    load = load_stage_weights(model, [0, 1], [16, 16])
    inbound, outbound = queue.Queue(), queue.Queue()
    w = StageWorker(0, tiny4l, load, inbound, outbound)
    w.start()
    yield model, w, inbound, outbound
    inbound.put(ShutdownMessage())
    w.join(timeout=5.0)


def test_worker_processes_prefill(worker_env, tiny4l):
    model, w, inbound, outbound = worker_env
    x = np.random.default_rng(0).normal(size=(2, 6, tiny4l.hidden_size))
    inbound.put(ActivationMessage(0, "prefill", 0, x, reserve=3))
    out = outbound.get(timeout=5.0)
    assert isinstance(out, ActivationMessage)
    assert out.hidden.shape == x.shape
    assert not np.array_equal(out.hidden, x)  # something was computed
    assert w.kv.get(0).length == 6


def test_worker_decode_continues_cache(worker_env, tiny4l):
    model, w, inbound, outbound = worker_env
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4, tiny4l.hidden_size))
    inbound.put(ActivationMessage(7, "prefill", 0, x, reserve=2))
    outbound.get(timeout=5.0)
    step = rng.normal(size=(1, 1, tiny4l.hidden_size))
    inbound.put(ActivationMessage(7, "decode", 4, step))
    out = outbound.get(timeout=5.0)
    assert out.hidden.shape == (1, 1, tiny4l.hidden_size)
    assert w.kv.get(7).length == 5


def test_worker_fused_decode_over_unit_rows(worker_env, tiny4l):
    """An offline decode group: one fused message over every row of two
    prefill units (2 rows + 1 row), read as one slab slice, agrees with
    batch-1-message decodes of twin units holding the same KV."""
    model, w, inbound, outbound = worker_env
    rng = np.random.default_rng(2)
    h = tiny4l.hidden_size
    prompts = [rng.normal(size=(2, 3, h)), rng.normal(size=(1, 3, h))]
    for uid, x in enumerate(prompts + prompts):  # units 2, 3 are the twins
        inbound.put(ActivationMessage(uid, "prefill", 0, x, reserve=1))
        outbound.get(timeout=5.0)
    step = rng.normal(size=(3, 1, h))
    inbound.put(BatchedDecodeMessage(
        unit_ids=(0, 1), starts=np.full(3, 3, dtype=np.int64), hidden=step
    ))
    fused = outbound.get(timeout=5.0)
    assert fused.unit_ids == (0, 1) and fused.hidden.shape == (3, 1, h)
    assert (w.kv.view_steps, w.kv.gather_steps) == (1, 0)
    assert w.kv.get(0).length == w.kv.get(1).length == 4
    for uid, rows in ((2, slice(0, 2)), (3, slice(2, 3))):
        inbound.put(ActivationMessage(uid, "decode", 3, step[rows]))
        np.testing.assert_allclose(
            fused.hidden[rows], outbound.get(timeout=5.0).hidden, rtol=1e-12
        )


def test_worker_shutdown_propagates(tiny4l):
    model = TinyDecoderLM(tiny4l, seed=5)
    load = load_stage_weights(model, [0], [16])
    inbound, outbound = queue.Queue(), queue.Queue()
    w = StageWorker(0, tiny4l, load, inbound, outbound)
    w.start()
    inbound.put(ShutdownMessage())
    out = outbound.get(timeout=5.0)
    assert isinstance(out, ShutdownMessage)
    w.join(timeout=5.0)
    assert not w.is_alive()


def test_worker_error_surfaces(tiny4l):
    """A malformed message must not hang the pipeline: the worker stores
    the error and emits a FailureMessage so the master can fail fast."""
    from repro.runtime.messages import FailureMessage

    model = TinyDecoderLM(tiny4l, seed=6)
    load = load_stage_weights(model, [0], [16])
    inbound, outbound = queue.Queue(), queue.Queue()
    w = StageWorker(0, tiny4l, load, inbound, outbound)
    w.start()
    # decode for a cache that was never allocated -> KeyError inside
    bad = ActivationMessage(99, "decode", 4,
                            np.zeros((1, 1, tiny4l.hidden_size)))
    inbound.put(bad)
    out = outbound.get(timeout=5.0)
    assert isinstance(out, FailureMessage)
    assert out.stage_idx == 0
    assert "99" in out.error
    w.join(timeout=5.0)
    assert isinstance(w.error, KeyError)


def test_worker_forwards_failure_messages(worker_env, tiny4l):
    """Downstream stages relay a FailureMessage toward the master."""
    from repro.runtime.messages import FailureMessage

    model, w, inbound, outbound = worker_env
    inbound.put(FailureMessage(stage_idx=3, error="KeyError('x')"))
    out = outbound.get(timeout=5.0)
    assert isinstance(out, FailureMessage)
    assert out.stage_idx == 3


def test_worker_error_reported_to_control(tiny4l):
    """A crash raises the shared abort flag so upstream stages unwind too."""
    from repro.runtime.engine import PipelineControl

    model = TinyDecoderLM(tiny4l, seed=6)
    load = load_stage_weights(model, [0], [16])
    inbound, outbound = queue.Queue(), queue.Queue()
    control = PipelineControl()
    w = StageWorker(0, tiny4l, load, inbound, outbound, control=control)
    w.start()
    inbound.put(ActivationMessage(99, "decode", 4,
                                  np.zeros((1, 1, tiny4l.hidden_size))))
    outbound.get(timeout=5.0)
    w.join(timeout=5.0)
    assert control.aborted()
    assert control.failure is not None
    assert control.failure[0] == 0


def test_worker_heartbeat_advances(worker_env):
    """The idle poll loop keeps refreshing the worker's heartbeat."""
    import time

    model, w, inbound, outbound = worker_env
    h0 = w.heartbeat
    time.sleep(0.2)
    assert w.heartbeat > h0


def test_worker_stop_joins(tiny4l):
    """stop() shuts the worker down promptly without leaking the thread."""
    model = TinyDecoderLM(tiny4l, seed=7)
    load = load_stage_weights(model, [0], [16])
    inbound, outbound = queue.Queue(), queue.Queue()
    w = StageWorker(0, tiny4l, load, inbound, outbound)
    w.start()
    w.stop(timeout=5.0)
    assert not w.is_alive()

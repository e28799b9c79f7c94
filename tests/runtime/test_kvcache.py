"""Unit tests for the per-stage KV manager."""

import pytest

from repro.runtime import StageKVManager


@pytest.fixture()
def mgr():
    return StageKVManager(num_layers=2, hidden_size=8)


def test_allocate_shapes_and_ledger(mgr):
    c = mgr.allocate(0, batch=3, max_len=10)
    assert c.k.shape == (2, 3, 10, 8)
    expected = 2 * (2 * 3 * 10 * 8 * 8)  # k+v, float64
    assert mgr.current_bytes == expected
    assert mgr.peak_bytes == expected


def test_allocate_idempotent(mgr):
    a = mgr.allocate(0, batch=2, max_len=4)
    b = mgr.allocate(0, batch=2, max_len=4)
    assert a is b


def test_get_missing_raises(mgr):
    with pytest.raises(KeyError, match="unit 7"):
        mgr.get(7)


def test_alloc_guard_blocks_allocate():
    calls = []

    def guard(requested):
        calls.append(requested)
        raise MemoryError("denied")

    mgr = StageKVManager(num_layers=2, hidden_size=8, alloc_guard=guard)
    with pytest.raises(MemoryError, match="denied"):
        mgr.allocate(0, batch=3, max_len=10)
    assert calls == [2 * 2 * 3 * 10 * 8 * 8]  # k+v bytes, float64
    assert mgr.current_bytes == 0  # nothing leaked into the ledger
    with pytest.raises(KeyError):
        mgr.get(0)


def test_release_drops_current_bytes_immediately(mgr):
    """Eager retirement: ``release`` must return the freed bytes and the
    live ledger must drop at once, not at end-of-batch ``free_all``."""
    mgr.allocate(0, batch=1, max_len=10)
    mgr.allocate(1, batch=1, max_len=6)
    unit0_bytes = mgr.get(0).k.nbytes + mgr.get(0).v.nbytes
    before = mgr.current_bytes
    freed = mgr.release(0)
    assert freed == pytest.approx(unit0_bytes)
    assert mgr.current_bytes == pytest.approx(before - freed)
    assert mgr.current_bytes > 0  # the other unit survives
    assert mgr.released_units == 1
    assert mgr.released_bytes == pytest.approx(freed)
    with pytest.raises(KeyError):
        mgr.get(0)


def test_release_idempotent(mgr):
    mgr.allocate(0, batch=1, max_len=4)
    assert mgr.release(0) > 0
    assert mgr.release(0) == 0.0  # already freed
    assert mgr.release(99) == 0.0  # never existed
    assert mgr.released_units == 1


def test_free(mgr):
    mgr.allocate(0, batch=1, max_len=2)
    mgr.free(0)
    assert mgr.current_bytes == 0
    mgr.free(0)  # idempotent
    mgr.allocate(1, batch=1, max_len=2)
    mgr.free_all()
    assert not mgr.caches

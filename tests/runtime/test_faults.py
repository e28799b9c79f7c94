"""Unit tests for the deterministic fault injector."""

import numpy as np
import pytest

from repro.runtime.faults import (
    FaultInjector,
    InjectedFault,
    KVAllocationError,
    KVAllocPressure,
    MessageCorruption,
    MessageDrop,
    StageCrash,
    Straggler,
)


def test_spec_parsing_roundtrip():
    inj = FaultInjector.from_spec(
        "crash:stage=1,at=5,repeat=1;slow:stage=0,delay=0.25,every=2;"
        "drop:stage=2,at=3;corrupt:stage=0,at=4,scale=2.0;"
        "kvcap:stage=1,max_bytes=1024,fail_count=2",
        seed=7,
    )
    assert inj.seed == 7
    kinds = [type(p).__name__ for p in inj.policies]
    assert kinds == [
        "StageCrash", "Straggler", "MessageDrop", "MessageCorruption",
        "KVAllocPressure",
    ]
    crash = inj.policies[0]
    assert (crash.stage, crash.at, crash.repeat) == (1, 5, True)
    slow = inj.policies[1]
    assert (slow.stage, slow.delay, slow.every) == (0, 0.25, 2)
    cap = inj.policies[4]
    assert (cap.max_bytes, cap.fail_count) == (1024.0, 2)


@pytest.mark.parametrize("bad", [
    "explode:stage=1",            # unknown kind
    "crash:stage",                # not key=value
    "crash:bogus=1",              # unknown field
    "crash:stage=one",            # bad value
    "slow:stage=0,max_bytes=1",   # field of another policy kind
])
def test_spec_parsing_rejects_garbage(bad):
    with pytest.raises(ValueError):
        FaultInjector.from_spec(bad)


def test_empty_spec_segments_ignored():
    inj = FaultInjector.from_spec("crash:stage=0,at=1;;")
    assert len(inj.policies) == 1


def test_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert FaultInjector.from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "crash:stage=2,at=9")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "13")
    inj = FaultInjector.from_env()
    assert inj is not None and inj.seed == 13
    assert inj.policies[0].stage == 2


def test_crash_fires_at_exact_message():
    inj = FaultInjector([StageCrash(stage=0, at=3)])
    assert inj.on_activation(0) is None
    assert inj.on_activation(0) is None
    with pytest.raises(InjectedFault):
        inj.on_activation(0)
    # one-shot: retired after firing
    assert inj.on_activation(0) is None
    assert inj.fired == [("crash", 0, 3)]


def test_crash_repeat_rearms_after_restart():
    inj = FaultInjector([StageCrash(stage=0, at=2, repeat=True)])
    inj.on_activation(0)
    with pytest.raises(InjectedFault):
        inj.on_activation(0)
    inj.notify_restart(0)
    inj.on_activation(0)
    with pytest.raises(InjectedFault):
        inj.on_activation(0)
    assert [f[0] for f in inj.fired] == ["crash", "crash"]


def test_crash_only_targets_its_stage():
    inj = FaultInjector([StageCrash(stage=1, at=1)])
    for _ in range(5):
        assert inj.on_activation(0) is None
    with pytest.raises(InjectedFault):
        inj.on_activation(1)


def test_straggler_sleeps_on_schedule():
    delays = []
    inj = FaultInjector([Straggler(stage=0, delay=0.5, every=2)])
    for _ in range(4):
        inj.on_activation(0, sleep=delays.append)
    assert delays == [0.5, 0.5]  # messages 2 and 4


def test_drop_and_corrupt_actions():
    inj = FaultInjector([MessageDrop(stage=0, at=1), MessageCorruption(stage=0, at=2)])
    assert inj.on_activation(0) == "drop"
    assert inj.on_activation(0) == "corrupt"
    assert inj.on_activation(0) is None


def test_corruption_deterministic_per_seed():
    x = np.ones((2, 3))
    a = FaultInjector([], seed=5)
    b = FaultInjector([], seed=5)
    c = FaultInjector([], seed=6)
    np.testing.assert_array_equal(a.corrupt(0, x), b.corrupt(0, x))
    assert not np.array_equal(a.corrupt(0, x), c.corrupt(0, x))
    assert not np.array_equal(a.corrupt(0, x), x)


def test_kv_guard_caps_allocations():
    inj = FaultInjector([KVAllocPressure(stage=1, max_bytes=100.0)])
    guard = inj.kv_guard(1)
    guard(50.0)  # under the cap: fine
    with pytest.raises(KVAllocationError):
        guard(200.0)
    # other stages unaffected
    inj.kv_guard(0)(1e9)
    assert inj.fired[-1][0] == "kvcap"


def test_kv_guard_fail_count_heals():
    inj = FaultInjector([KVAllocPressure(stage=0, max_bytes=1.0, fail_count=2)])
    guard = inj.kv_guard(0)
    for _ in range(2):
        with pytest.raises(KVAllocationError):
            guard(10.0)
    guard(10.0)  # healed after fail_count denials


def test_kv_denial_is_permanent_only_without_fail_count():
    """A cap with no ``fail_count`` denies the same request forever, so
    its denial says so; a bounded one heals and does not."""
    for fail_count, permanent in ((None, True), (3, False)):
        inj = FaultInjector(
            [KVAllocPressure(stage=0, max_bytes=1.0, fail_count=fail_count)]
        )
        with pytest.raises(KVAllocationError) as denied:
            inj.kv_guard(0)(10.0)
        assert denied.value.permanent is permanent


def test_retire_stage_disables_policies():
    inj = FaultInjector([
        StageCrash(stage=1, at=1, repeat=True),
        KVAllocPressure(stage=1, max_bytes=0.0),
    ])
    inj.retire_stage(1)
    assert inj.on_activation(1) is None
    inj.kv_guard(1)(1e9)  # no raise
    assert inj.fired == []


def test_identical_injectors_fire_identically():
    def drive(inj):
        log = []
        for stage in (0, 1, 0, 1, 0):
            try:
                log.append(inj.on_activation(stage, sleep=lambda _s: None))
            except InjectedFault:
                log.append("crash")
        return log, list(inj.fired)

    mk = lambda: FaultInjector(
        [StageCrash(stage=0, at=3), Straggler(stage=1, delay=0.1)], seed=3
    )
    assert drive(mk()) == drive(mk())


def test_describe_mentions_policies():
    inj = FaultInjector([StageCrash(stage=0)], seed=2)
    text = inj.describe()
    assert "StageCrash" in text and "seed=2" in text

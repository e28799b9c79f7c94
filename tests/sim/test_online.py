"""Unit tests for the online-serving extension (Sec. 7 discussion)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan
from repro.sim.online import (
    OnlineRequest,
    max_admissible_batch,
    simulate_online,
)
from repro.workload import Workload
from repro.workload.traces import sample_poisson_arrivals


@pytest.fixture(scope="module")
def w():
    return Workload(prompt_len=512, gen_len=100, global_batch=16)


def _plan(cluster3, w, bits):
    return ExecutionPlan.uniform("opt-30b", cluster3.devices, w, bits=bits)


def test_trace_generation_poisson():
    trace = sample_poisson_arrivals(rate=2.0, duration=100.0, seed=1)
    arrivals = np.array([r.arrival for r in trace])
    assert 120 < len(trace) < 280  # ~200 expected
    assert np.all(np.diff(arrivals) > 0)
    assert all(r.prompt_len >= 4 and r.gen_len >= 4 for r in trace)
    with pytest.raises(ValueError):
        sample_poisson_arrivals(rate=0, duration=1)


def test_trace_deterministic_by_seed():
    a = sample_poisson_arrivals(2.0, 50.0, seed=3)
    b = sample_poisson_arrivals(2.0, 50.0, seed=3)
    assert [r.arrival for r in a] == [r.arrival for r in b]


def test_deprecated_trace_shim_removed():
    """The sim-side sampler shim has been removed for good; the workload
    layer's sampler is the only one."""
    import repro.sim as sim
    import repro.sim.online as online

    assert not hasattr(online, "sample_poisson_trace")
    assert "sample_poisson_trace" not in sim.__all__
    assert "sample_poisson_trace" not in online.__all__


def test_lower_precision_admits_bigger_batches(cluster3, w):
    """The Sec.-7 trade-off: 4-bit weights free KV memory."""
    b8 = max_admissible_batch(_plan(cluster3, w, 8), prompt_len=512, gen_len=100)
    b4 = max_admissible_batch(_plan(cluster3, w, 4), prompt_len=512, gen_len=100)
    assert b4 > b8 > 0


def test_online_simulation_metrics(cluster3, w):
    plan = _plan(cluster3, w, 4)
    trace = [
        OnlineRequest(arrival=float(k), prompt_len=256, gen_len=32)
        for k in range(12)
    ]
    res = simulate_online(plan, cluster3, trace, max_batch=8)
    assert res.completed == 12
    assert res.makespan > 0
    assert res.p95_latency >= res.mean_latency > 0
    assert res.throughput > 0
    assert res.waves >= 2
    assert "reqs" in res.summary()


def test_online_higher_load_increases_latency(cluster3, w):
    plan = _plan(cluster3, w, 4)
    light = sample_poisson_arrivals(0.2, 60.0, seed=5, max_prompt=256, max_gen=32)
    heavy = sample_poisson_arrivals(3.0, 60.0, seed=5, max_prompt=256, max_gen=32)
    r_light = simulate_online(plan, cluster3, light, max_batch=16)
    r_heavy = simulate_online(plan, cluster3, heavy, max_batch=16)
    assert r_heavy.mean_latency > r_light.mean_latency
    assert r_heavy.mean_wave_batch > r_light.mean_wave_batch


def test_online_quantized_plan_wins_under_load(cluster3, w):
    """8-bit weights are slower to admit fewer requests: under load the
    4-bit plan's bigger waves deliver better throughput."""
    trace = sample_poisson_arrivals(4.0, 40.0, seed=7, max_prompt=256, max_gen=32)
    plan8 = _plan(cluster3, w, 8)
    plan4 = _plan(cluster3, w, 4)
    b8 = max_admissible_batch(plan8, prompt_len=256, gen_len=32)
    b4 = max_admissible_batch(plan4, prompt_len=256, gen_len=32)
    r8 = simulate_online(plan8, cluster3, trace, max_batch=min(b8, 64))
    r4 = simulate_online(plan4, cluster3, trace, max_batch=min(b4, 64))
    assert r4.throughput > r8.throughput * 0.9  # at worst comparable


def test_empty_trace_rejected(cluster3, w):
    with pytest.raises(ValueError, match="empty"):
        simulate_online(_plan(cluster3, w, 4), cluster3, [])


# ---------------------------------------------------------------------------
# Continuous (iteration-level) policy
# ---------------------------------------------------------------------------


def test_continuous_beats_wave_under_load(cluster3, w):
    """Iteration-level scheduling eliminates padding and inter-wave
    drain, so under load it wins on tail latency and TTFT.  Both policies
    run the same fused iteration, so the wave's padded decodes are
    amortized too and no throughput ratio is pinned."""
    plan = _plan(cluster3, w, 4)
    trace = sample_poisson_arrivals(3.0, 60.0, seed=7, max_prompt=256, max_gen=64)
    wave = simulate_online(plan, cluster3, trace, policy="wave")
    cont = simulate_online(plan, cluster3, trace, policy="continuous")
    assert cont.completed == wave.completed == len(trace)
    assert cont.p95_latency < wave.p95_latency
    assert cont.mean_ttft < wave.mean_ttft
    assert cont.iterations > 0 and cont.mean_inflight > 1
    assert "continuous" in cont.summary()


def test_wave_continuous_equivalent_at_batch_one(cluster3, w):
    """With concurrency capped at 1 the two policies run the same engine
    schedule, so every metric agrees exactly."""
    plan = _plan(cluster3, w, 4)
    trace = [
        OnlineRequest(arrival=float(k) * 10_000.0, prompt_len=256, gen_len=32)
        for k in range(3)
    ]
    wave = simulate_online(plan, cluster3, trace, max_batch=1, policy="wave")
    cont = simulate_online(plan, cluster3, trace, max_batch=1, policy="continuous")
    assert cont.makespan == wave.makespan
    assert cont.mean_latency == wave.mean_latency
    assert cont.mean_ttft == wave.mean_ttft
    assert cont.throughput == wave.throughput


def test_continuous_des_engine_close_to_analytic(cluster3, w):
    plan = _plan(cluster3, w, 4)
    trace = sample_poisson_arrivals(1.0, 30.0, seed=2, max_prompt=256, max_gen=32)
    ana = simulate_online(plan, cluster3, trace, policy="continuous")
    des = simulate_online(plan, cluster3, trace, policy="continuous", engine="des")
    assert des.completed == ana.completed
    # the DES schedule lower-bounds each iteration's closed form, but
    # admission dynamics may differ; makespans stay in the same regime
    assert des.makespan == pytest.approx(ana.makespan, rel=0.5)


def test_continuous_single_request_and_idle_gaps(cluster3, w):
    plan = _plan(cluster3, w, 4)
    one = simulate_online(
        plan, cluster3,
        [OnlineRequest(arrival=5.0, prompt_len=128, gen_len=16)],
        policy="continuous",
    )
    assert one.completed == 1
    assert one.makespan > 5.0  # waited for the arrival
    assert one.mean_latency < one.makespan  # latency excludes the idle gap
    gap = simulate_online(
        plan, cluster3,
        [
            OnlineRequest(arrival=0.0, prompt_len=128, gen_len=16),
            OnlineRequest(arrival=1_000.0, prompt_len=128, gen_len=16),
        ],
        policy="continuous",
    )
    assert gap.completed == 2
    assert gap.makespan > 1_000.0
    assert gap.mean_latency < 100.0  # neither request waited on the gap


def test_unfit_requests_give_graceful_infeasible_result(cluster3, w):
    """A request whose KV reservation exceeds every stage's headroom is
    rejected; an all-rejected trace yields the infeasible sentinel."""
    plan = _plan(cluster3, w, 16)
    huge = [OnlineRequest(arrival=0.0, prompt_len=500_000, gen_len=100_000)]
    for policy in ("wave", "continuous"):
        res = simulate_online(plan, cluster3, huge, policy=policy)
        assert res.completed == 0
        assert res.rejected == 1
        assert res.throughput == 0.0
        assert not np.isfinite(res.makespan)


def test_per_wave_admissibility_beats_trace_wide_bound(cluster3, w):
    """Satellite fix: a burst of short requests must form waves larger
    than the admissible batch at the trace-wide worst case."""
    plan = _plan(cluster3, w, 4)
    short = [
        OnlineRequest(arrival=0.0, prompt_len=64, gen_len=8) for _ in range(64)
    ]
    long_tail = [OnlineRequest(arrival=500.0, prompt_len=2048, gen_len=128)]
    trace = short + long_tail
    worst_bound = max_admissible_batch(plan, prompt_len=2048, gen_len=128)
    assert worst_bound < 64  # the legacy trace-wide cap would throttle
    res = simulate_online(plan, cluster3, trace, policy="wave")  # max_batch=None
    assert res.completed == len(trace)
    # mean wave batch lower-bounds the max; it must already beat the cap
    assert res.mean_wave_batch > worst_bound


@pytest.mark.parametrize("policy", ["wave", "continuous"])
def test_nonpositive_cap_rejects_everything_and_returns(cluster3, w, policy):
    """A concurrency cap that admits nothing ends at once with every
    request rejected and empty samples.  The continuous replay used to
    spin on it forever, so the first run is a child process under a
    timeout: a regression fails here instead of hanging the suite."""
    code = (
        "from repro.core.plan import ExecutionPlan\n"
        "from repro.hardware import paper_cluster\n"
        "from repro.sim.online import OnlineRequest, simulate_online\n"
        "from repro.workload import Workload\n"
        "c = paper_cluster(3)\n"
        "w = Workload(prompt_len=512, gen_len=100, global_batch=16)\n"
        "p = ExecutionPlan.uniform('opt-30b', c.devices, w, bits=4)\n"
        "t = [OnlineRequest(float(k), 64, 8) for k in range(5)]\n"
        f"r = simulate_online(p, c, t, policy={policy!r}, max_batch=0)\n"
        "assert (r.completed, r.rejected) == (0, 5), r\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr

    plan = _plan(cluster3, w, 4)
    trace = [OnlineRequest(float(k), 64, 8) for k in range(5)]
    for cap in (0, -2):
        sink: dict = {}
        res = simulate_online(
            plan, cluster3, trace, policy=policy, max_batch=cap, sample_sink=sink
        )
        assert res.policy == policy
        assert (res.completed, res.rejected, res.throughput) == (0, 5, 0.0)
        assert res.makespan == res.p99_latency == float("inf")
        assert all(sink[k].size == 0 for k in ("latencies", "ttfts", "lat_idx"))


def test_simulate_online_validates_policy_and_engine(cluster3, w):
    plan = _plan(cluster3, w, 4)
    trace = [OnlineRequest(arrival=0.0, prompt_len=64, gen_len=8)]
    with pytest.raises(ValueError, match="policy"):
        simulate_online(plan, cluster3, trace, policy="orca")
    with pytest.raises(ValueError, match="engine"):
        simulate_online(plan, cluster3, trace, engine="magic")


# ---------------------------------------------------------------------------
# Drift-aware live replanning (mirrored migration)
# ---------------------------------------------------------------------------


def _drifted_trace():
    """Light phase (1 req/s, short) then a heavy phase (5 req/s, longer)."""
    light = [
        OnlineRequest(arrival=k * 1.0, prompt_len=128, gen_len=16)
        for k in range(40)
    ]
    heavy = [
        OnlineRequest(arrival=40.0 + k * 0.2, prompt_len=256, gen_len=32)
        for k in range(200)
    ]
    return light + heavy


def test_drift_requires_continuous_policy(cluster3, w):
    from repro.runtime.replan import DriftConfig

    plan = _plan(cluster3, w, 8)
    trace = [OnlineRequest(arrival=0.0, prompt_len=64, gen_len=8)]
    with pytest.raises(ValueError, match="continuous"):
        simulate_online(
            plan, cluster3, trace, policy="wave", drift=DriftConfig()
        )


def test_drift_migration_triggers_and_beats_static(cluster3, w):
    """The mirrored migration: the drift-aware run switches to the 4-bit
    plan when the heavy phase hits and ends up ahead of the static run,
    pause included."""
    from repro.runtime.replan import DriftConfig

    plan16 = _plan(cluster3, w, 16)
    plan4 = _plan(cluster3, w, 4)
    trace = _drifted_trace()
    drift = DriftConfig(
        window=10.0, threshold=1.0, hysteresis=1, cooldown=1000.0,
        rebuild_seconds=0.5,
    )
    static = simulate_online(plan16, cluster3, trace, policy="continuous")
    adaptive = simulate_online(
        plan16, cluster3, trace, policy="continuous", drift=drift,
        replanner=lambda cur, est: plan4 if cur is plan16 else None,
    )
    assert adaptive.drift_triggers >= 1
    assert adaptive.migrations == 1 and adaptive.replans == 1
    assert adaptive.migration_seconds > 0  # shards re-cut: replay priced
    assert adaptive.completed == static.completed == len(trace)
    assert adaptive.p95_latency < static.p95_latency
    assert "migrations" in adaptive.summary()


def test_drift_workload_refit_is_metadata_only(cluster3, w):
    """Same partition + bitwidths: the refit switch costs zero pause."""
    from repro.runtime.replan import DriftConfig, workload_refit_replanner

    plan = _plan(cluster3, w, 4)
    short = [
        OnlineRequest(arrival=k * 0.5, prompt_len=64, gen_len=16)
        for k in range(80)
    ]
    long_ = [
        OnlineRequest(arrival=40.0 + k * 0.5, prompt_len=512, gen_len=16)
        for k in range(80)
    ]
    drift = DriftConfig(
        window=10.0, threshold=1.0, hysteresis=1, cooldown=1000.0
    )
    res = simulate_online(
        plan, cluster3, short + long_, policy="continuous",
        drift=drift, replanner=workload_refit_replanner,
    )
    assert res.migrations >= 1
    assert res.migration_seconds == 0.0  # same stages: metadata-only
    assert res.completed == 160


def test_headroom_helpers_consistent(cluster3, w):
    from repro.cost.stagecosts import StageCostModel

    scm4 = StageCostModel(_plan(cluster3, w, 4))
    scm16 = StageCostModel(_plan(cluster3, w, 16))
    h4 = scm4.kv_headroom()
    h16 = scm16.kv_headroom()
    assert np.all(h4 >= h16)  # lower precision leaves more KV headroom
    assert np.any(h4 > h16)
    charge = scm4.request_kv_bytes(256, 32)
    assert charge.shape == (len(h4),)
    assert np.all(charge > 0)
    # more admitted requests under 4-bit than 16-bit, per the Sec.-7 trade-off
    assert int(np.min(h4 / charge)) >= int(
        np.min(h16 / scm16.request_kv_bytes(256, 32))
    )
    assert scm4.kv_token_budget() >= scm16.kv_token_budget()

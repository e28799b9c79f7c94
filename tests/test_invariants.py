"""Property-based invariants across the serving stack (hypothesis).

These pin down the monotone structure every component must respect; a
regression in any cost/simulation path that breaks monotonicity would
silently corrupt the planner's decisions, so they are tested directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, StagePlan
from repro.cost.memory import stage_memory
from repro.hardware import get_gpu, make_cluster
from repro.models import get_model
from repro.sim.kernels import layer_exec_time
from repro.sim.pipeline import simulate_pipeline
from repro.workload import Workload

CFG = get_model("opt-13b")
GPUS = ("T4-16G", "V100-32G", "A100-40G", "P100-12G")


@settings(max_examples=30, deadline=None)
@given(
    gpu=st.sampled_from(GPUS),
    bits=st.sampled_from([3, 4, 8, 16]),
    batch=st.integers(1, 16),
    s=st.integers(16, 1024),
)
def test_layer_time_monotone_in_batch_and_seq(gpu, bits, batch, s):
    spec = get_gpu(gpu)
    t = layer_exec_time(spec, CFG, bits, batch, s, s)
    assert t > 0
    assert layer_exec_time(spec, CFG, bits, batch + 1, s, s) >= t
    assert layer_exec_time(spec, CFG, bits, batch, s + 16, s + 16) >= t


@settings(max_examples=30, deadline=None)
@given(
    bits=st.sampled_from([3, 4, 8, 16]),
    n_layers=st.integers(1, 12),
    batch=st.integers(1, 32),
)
def test_stage_memory_monotone(bits, n_layers, batch):
    kw = dict(
        prompt_len=256, gen_len=32,
        prefill_microbatch=min(4, batch), decode_microbatch=min(4, batch),
        is_first=False, is_last=False,
    )
    base = stage_memory(CFG, [bits] * n_layers, global_batch=batch, **kw)
    more_layers = stage_memory(CFG, [bits] * (n_layers + 1), global_batch=batch, **kw)
    more_batch = stage_memory(CFG, [bits] * n_layers, global_batch=batch + 1, **kw)
    assert more_layers.total > base.total
    assert more_batch.total > base.total
    if bits < 16:
        hi = stage_memory(CFG, [16] * n_layers, global_batch=batch, **kw)
        assert hi.weights > base.weights


@settings(max_examples=15, deadline=None)
@given(
    split=st.integers(5, 35),
    bits=st.sampled_from([4, 8]),
    mb=st.sampled_from([2, 4, 8]),
)
def test_pipeline_latency_positive_and_balanced_is_better(split, bits, mb):
    """For any 2-way split, the balanced partition's bottleneck is no
    worse than the unbalanced one's on identical devices."""
    cl = make_cluster([("A800-80G", 2)])
    w = Workload(prompt_len=128, gen_len=8, global_batch=8)
    devs = list(cl.devices)

    def plan(a):
        return ExecutionPlan(
            model_name="opt-13b",
            stages=(
                StagePlan(devs[0], (bits,) * a),
                StagePlan(devs[1], (bits,) * (40 - a)),
            ),
            prefill_microbatch=mb, decode_microbatch=mb, workload=w,
        )

    res = simulate_pipeline(plan(split), cl)
    balanced = simulate_pipeline(plan(20), cl)
    assert res.total_latency > 0
    assert balanced.total_latency <= res.total_latency + 1e-9


@settings(max_examples=10, deadline=None)
@given(gen=st.integers(2, 64))
def test_latency_monotone_in_generation_length(gen):
    cl = make_cluster([("A800-80G", 1)])
    w1 = Workload(prompt_len=64, gen_len=gen, global_batch=4)
    w2 = Workload(prompt_len=64, gen_len=gen + 1, global_batch=4)
    p1 = ExecutionPlan.uniform("opt-13b", cl.devices, w1, bits=8)
    p2 = ExecutionPlan.uniform("opt-13b", cl.devices, w2, bits=8)
    assert (
        simulate_pipeline(p2, cl).total_latency
        > simulate_pipeline(p1, cl).total_latency
    )

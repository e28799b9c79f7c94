"""Extension: the unified StageCostModel's pricing dividend.

The iteration-level online simulator prices every iteration — the fused
decode group plus each newly admitted prefill unit — through
:class:`repro.cost.stagecosts.StageCostModel`.  Both units resolve
through one precomputed per-(stage, bits) roofline constant table, so
pricing an iteration is a vectorized evaluation plus lookups.  The
pre-refactor per-consumer cost — every layer re-priced from scratch on
every call — lives on as ``tests/sim/costview_spec.py``'s
``PerCallCostModel``.

The headline runs the continuous-policy online simulation of a 120+
request Poisson trace both ways and requires **byte-identical results**:
the table path must not change one float of the ``OnlineResult``.

The wall-time ratio is printed and recorded in
``benchmarks/results/ext_costview.json`` as information only: the
per-call side shares the memoised model constants, so the ratio shrinks
whenever they get cheaper.  Speed is gated by the repo benchmark
(``bench/run.py --workload sim_trace_slo``), not here.
"""

import time

from repro.bench.tables import print_table, save_results
from repro.core.plan import ExecutionPlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import paper_cluster
from repro.sim.online import simulate_online
from repro.workload import Workload, sample_poisson_arrivals
from tests.sim.costview_spec import PerCallCostModel


def _scenario():
    cluster = paper_cluster(3)
    w = Workload(prompt_len=512, gen_len=100, global_batch=16)
    plan = ExecutionPlan.uniform("opt-30b", cluster.devices, w, bits=4)
    trace = sample_poisson_arrivals(
        2.0, 60.0, seed=9, max_prompt=256, max_gen=64
    )
    return plan, cluster, trace


def _run(plan, cluster, trace, cost_model):
    t0 = time.perf_counter()
    res = simulate_online(
        plan, cluster, trace, policy="continuous",
        cost_model=cost_model(plan, cluster),
    )
    return res, time.perf_counter() - t0


def test_ext_costview_headline():
    plan, cluster, trace = _scenario()
    cold_s, warm_s = [], []
    for _ in range(3):
        cold, t = _run(plan, cluster, trace, PerCallCostModel)
        cold_s.append(t)
        warm, t = _run(plan, cluster, trace, StageCostModel)
        warm_s.append(t)
        assert warm == cold, "table pricing changed the simulation result"
    cold_t, warm_t = min(cold_s), min(warm_s)
    speedup = cold_t / warm_t
    rows = [
        {"pricing": "per-call (costview_spec)", "wall_s": round(cold_t, 4),
         "iterations": cold.iterations, "speedup": 1.0},
        {"pricing": "shared tables (default)", "wall_s": round(warm_t, 4),
         "iterations": warm.iterations, "speedup": round(speedup, 2)},
    ]
    print_table(rows, title="Ext — unified cost view: online iteration pricing")
    save_results(
        "ext_costview",
        {
            "scenario": "opt-30b 4-bit, paper cluster 3, continuous policy, "
                        f"Poisson 2/s x 60s ({len(trace)} requests)",
            "rows": rows,
            "speedup": round(speedup, 2),
            "results_identical": True,
        },
    )

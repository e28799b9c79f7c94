#!/usr/bin/env python3
"""Online serving trade-off study (paper Sec. 7, "Apply to ORCA or vLLM").

The paper's discussion: in online serving, weight precision trades
kernel speed against KV-cache headroom (which caps the concurrent
batch).  This example streams a Poisson request trace at several load
levels against uniform 16/8/4-bit plans on cluster 3 and reports the
admissible batch, throughput and latency percentiles per precision.

Run:  python examples/online_serving_study.py
"""

from repro.bench.tables import format_table
from repro.core.plan import ExecutionPlan
from repro.hardware import paper_cluster
from repro.sim.online import max_admissible_batch, simulate_online
from repro.workload import Workload, sample_poisson_arrivals


def main() -> None:
    cluster = paper_cluster(3)
    w = Workload(prompt_len=512, gen_len=100, global_batch=16)

    rows = []
    for rate in (0.5, 2.0, 6.0):
        trace = sample_poisson_arrivals(rate, 60.0, seed=0, max_prompt=256, max_gen=32)
        for bits in (16, 8, 4):
            plan = ExecutionPlan.uniform("opt-30b", cluster.devices, w, bits=bits)
            cap = max_admissible_batch(plan, prompt_len=256, gen_len=32)
            if cap == 0:
                rows.append({"rate_req_s": rate, "bits": bits, "max_batch": 0,
                             "tput_tok_s": None, "mean_lat_s": None, "p95_lat_s": None})
                continue
            res = simulate_online(plan, cluster, trace, max_batch=min(cap, 64))
            rows.append(
                {
                    "rate_req_s": rate,
                    "bits": bits,
                    "max_batch": cap,
                    "tput_tok_s": round(res.throughput, 1),
                    "mean_lat_s": round(res.mean_latency, 2),
                    "p95_lat_s": round(res.p95_latency, 2),
                }
            )
    print(format_table(rows, title="online serving on cluster 3 (OPT-30b), 60s trace"))
    print(
        "\nlower precision -> more KV headroom -> bigger admissible batches."
        "\nFP16 prefills fastest, but its slower decode outweighs that even at"
        "\n0.5 req/s: 4-bit has the highest throughput and the lowest mean and"
        "\np95 latency at every rate, and FP16's 4-request cap lets its queue"
        "\ngrow without bound under load — the Sec.-7 trade-off."
    )


if __name__ == "__main__":
    main()

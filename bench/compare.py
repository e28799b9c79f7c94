#!/usr/bin/env python3
"""Compare two benchmark files: ``python3 bench/compare.py A.json B.json``.

The files come from ``bench/run.py --runs N --out FILE``.  For every
workload x end-to-end metric this prints both medians with their
quartiles, the change of B against A with its base, and a verdict
against the bound in ``BENCHMARK.json``:

* ``ok`` - B's median is not worse than A's by more than the bound;
* ``regressed`` - it is;
* ``unresolved`` - the run-to-run spread (the wider interquartile range
  of the two sides over A's median) exceeds the bound, so the runs
  cannot tell.

When both files ran the same seeds, simulated statistics and the plan
objective are deterministic, so they are held to exact bounds instead
(``EXACT``).  The exit status is 1 if any row regressed or a workload's
share of failed operations rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: relative bounds that apply when A and B ran the same seeds: a
#: speed-only change must leave these untouched
EXACT = {
    "plan_objective_sum": 1e-6,
    "sim_tok_s": 1e-9,
    "sim_ttft_p99_s": 1e-9,
    "slo_attainment": 1e-9,
    "slo_rate_max_rps": 1e-9,
    "gpu_hours": 1e-9,
}
#: set-up time may move by this much before the relative bound applies
SETUP_FLOOR_S = 0.25


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def _column(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines: list[str] = []
    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        runs_a = a["workloads"].get(name, {}).get("end_to_end", [])
        runs_b = b["workloads"].get(name, {}).get("end_to_end", [])
        if not runs_a or not runs_b:
            continue
        same_seeds = [r.get("seed") for r in runs_a] == [r.get("seed") for r in runs_b]
        lines.append(f"== {name} ({len(runs_a)} vs {len(runs_b)} runs"
                     f"{', same seeds' if same_seeds else ''})")
        for m in spec["end_to_end"]:
            va, vb = _column(runs_a, m["name"]), _column(runs_b, m["name"])
            if not va or not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            base = median(va)
            change = median(vb) - base
            worse = change if m["better"] == "lower" else -change
            exact = same_seeds and m["name"] in EXACT
            bound = EXACT[m["name"]] if exact else m["bound"]
            allowed = bound * abs(base)
            if m["name"] == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            spread = max(qa[2] - qa[0], qb[2] - qb[0])
            if worse > allowed:
                verdict = "regressed"
                regressed = True
            elif not exact and spread > allowed:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rel = change / base if base else 0.0
            lines.append(
                f"  {m['name']:<22} {m['unit']:<9} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"{rel:+.2%} of {base:.6g}  bound {bound:g}  {verdict}"
            )
        fa, fb = _failed_share(runs_a), _failed_share(runs_b)
        if fb > fa:
            regressed = True
            lines.append(f"  failed-operation share rose: {fa:.3g} -> {fb:.3g}  regressed")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, regressed = compare(a, b, json.loads(SPEC.read_text()))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

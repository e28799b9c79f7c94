"""Self-test of the benchmark harness: ``python -m pytest bench/ -q``.

Drives every workload through ``bench/run.py`` — the same code path the
benchmark driver uses — on inputs cut to about a twentieth, untraced
and traced, and checks the output contract rather than any timing.
Kept outside tier-1 ``testpaths`` because it takes about two minutes.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """One scaled-down run of every workload, untraced then traced."""
    out = tmp_path_factory.mktemp("bench") / "runs.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "0.05",
         "--seconds", "0.5", "--traced", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    return out, proc.stdout


def test_contract_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["workloads"]) == 7
    assert len(SPEC["end_to_end"]) == 14
    assert len(SPEC["per_layer"]) == 83


def test_every_metric_once_per_workload(collected):
    path, stdout = collected
    # printed lines: split the echo of the child runs at their headers
    blocks = re.split(r"^# workload ", stdout, flags=re.M)[1:]
    assert len(blocks) == 2 * len(SPEC["workloads"])
    seen = set()
    for block in blocks:
        header, *lines = block.splitlines()
        workload, traced = header.split()[0], header.split()[-1] == "1"
        seen.add((workload, traced))
        group = SPEC["per_layer"] if traced else SPEC["end_to_end"]
        printed = [ln.split() for ln in lines if ln and ln[0] not in "#{"]
        for m in group:
            rows = [r for r in printed if r[0] == m["name"]]
            assert len(rows) == 1, (workload, m["name"], len(rows))
            assert rows[0][1] == m["unit"]
            assert math.isfinite(float(rows[0][2]))
        assert len(printed) == len(group), (workload, "unlisted metric printed")
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (False, True)}

    data = json.loads(path.read_text())
    for w in SPEC["workloads"]:
        for group in ("end_to_end", "per_layer"):
            (run,) = data["workloads"][w["name"]][group]
            assert set(run) >= {"correct", "attempted", "failed", "metrics"}
            assert run["correct"] is True and run["failed"] == 0
            assert run["attempted"] >= 1
            assert set(run["metrics"]) == {m["name"] for m in SPEC[group]}
        e2e = data["workloads"][w["name"]]["end_to_end"][0]["metrics"]
        assert all(v["value"] != 0 for v in e2e.values()), (w["name"], e2e)


def test_compare_file_against_itself(collected):
    path, _ = collected
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(path), str(path)],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout
    assert proc.stdout.count(" ok") == len(SPEC["workloads"]) * len(SPEC["end_to_end"])


def test_compare_flags_a_regression(collected, tmp_path):
    path, _ = collected
    slow = json.loads(path.read_text())
    run = slow["workloads"]["serve_decode_fp16"]["end_to_end"][0]
    run["metrics"]["decode_tok_s"]["value"] *= 0.5
    worse = tmp_path / "slow.json"
    worse.write_text(json.dumps(slow))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(path), str(worse)],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.count("regressed") == 1

"""End-to-end tests for the llmpq-algo / llmpq-dist CLI entry points."""

import json

import numpy as np
import pytest

from repro.cli import algo_main, dist_main
from repro.core.plan import ExecutionPlan


@pytest.fixture(scope="module")
def strategy_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "strategy.json"
    rc = algo_main([
        "--model-name", "opt-13b",
        "--cluster", "1",
        "--group", "4",
        "--global-bz", "16",
        "--s", "256",
        "--n", "20",
        "-o", str(out),
    ])
    assert rc == 0
    return out


def test_algo_writes_valid_strategy(strategy_file):
    plan = ExecutionPlan.from_json(strategy_file)
    assert plan.model_name == "opt-13b"
    assert plan.num_layers == 40
    data = json.loads(strategy_file.read_text())
    assert data["workload"]["prompt_len"] == 256


def test_dist_simulates_strategy(strategy_file, capsys):
    rc = dist_main(["--strat-file-name", str(strategy_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_dist_on_explicit_cluster(strategy_file):
    assert dist_main(["--strat-file-name", str(strategy_file), "--cluster", "1"]) == 0


def test_algo_custom_devices(tmp_path):
    out = tmp_path / "s.json"
    rc = algo_main([
        "--model-name", "opt-13b",
        "--device-names", "T4-16G", "V100-32G",
        "--device-numbers", "1", "1",
        "--group", "4",
        "--global-bz", "8",
        "--s", "128",
        "--n", "10",
        "-o", str(out),
    ])
    assert rc == 0
    plan = ExecutionPlan.from_json(out)
    assert plan.num_stages == 2


def test_algo_heuristic_with_auto_kv_bits(tmp_path, capsys):
    """Regression: ``--shaq-efficient --kv-bits auto`` died with
    ``ValueError: invalid literal for int() with base 10: 'auto'``."""
    out = tmp_path / "s.json"
    rc = algo_main([
        "--model-name", "opt-13b",
        "--device-names", "T4-16G", "V100-32G",
        "--device-numbers", "1", "1",
        "--group", "4",
        "--global-bz", "8",
        "--s", "128",
        "--n", "10",
        "--shaq-efficient",
        "--kv-bits", "auto",
        "-o", str(out),
    ])
    assert rc == 0
    assert "predicted" in capsys.readouterr().out
    plan = ExecutionPlan.from_json(out)
    assert all(b in (4, 8, 16) for b in plan.kv_bits_per_stage)


def test_algo_search_line_reports_cutoff(tmp_path, capsys):
    """The search summary says how many candidates the incumbent cut off
    inside the DP."""
    rc = algo_main([
        "--model-name", "opt-13b",
        "--device-names", "T4-16G", "V100-32G",
        "--device-numbers", "1", "1",
        "--group", "4",
        "--global-bz", "8",
        "--s", "128",
        "--n", "10",
        "-o", str(tmp_path / "s.json"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "search:" in err and "pruned by the incumbent" in err


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["-j", "1"], ["--time-limit", "5"]])
def test_algo_solver_flags_are_gone(tmp_path, capsys, flag):
    """The exact search has no worker pool and no time limit: their old
    flags are argparse errors (exit 2), not silently ignored."""
    with pytest.raises(SystemExit) as exc:
        algo_main([
            "--model-name", "opt-13b", "--device-names", "T4-16G",
            "--device-numbers", "1", *flag, "-o", str(tmp_path / "s.json"),
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_algo_heuristic_prints_search_line(tmp_path, capsys):
    """Algorithm 2 accounts for itself like the exact search does."""
    rc = algo_main([
        "--model-name", "opt-13b",
        "--device-names", "T4-16G", "V100-32G",
        "--device-numbers", "1", "1",
        "--group", "4", "--global-bz", "8", "--s", "128", "--n", "10",
        "--shaq-efficient",
        "-o", str(tmp_path / "s.json"),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "search: 2 orderings by bitwidth transfer, no solver call" in err


@pytest.mark.parametrize("efficient", [[], ["--shaq-efficient"]])
@pytest.mark.parametrize(
    "knob,message",
    [
        (["--group", "0"], "group_size must be >= 1, got 0"),
        (["--group", "-3"], "group_size must be >= 1, got -3"),
        (["--theta", "-1"], "theta must be >= 0, got -1.0"),
    ],
)
def test_algo_bad_planner_knob_exits_2(tmp_path, capsys, knob, message, efficient):
    """A planner knob out of range is one line on stderr and exit code 2,
    exact search and heuristic alike — never a traceback, never a plan."""
    out = tmp_path / "s.json"
    rc = algo_main([
        "--model-name", "opt-13b", "--cluster", "2", *knob, *efficient,
        "-o", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {message}"
    assert not any("Traceback" in line for line in err)
    assert not out.exists()


def test_algo_requires_cluster_or_devices():
    with pytest.raises(SystemExit):
        algo_main(["--model-name", "opt-13b"])


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("algo", ["--cluster", "99"], "paper clusters are 1..11, got 99"),
        ("dist", ["--cluster", "99"], "paper clusters are 1..11, got 99"),
        ("serve", ["--cluster", "99"], "paper clusters are 1..11, got 99"),
        ("algo", ["--cluster", "2", "--s", "0"], "--s must be >= 1, got 0"),
        ("algo", ["--cluster", "2", "--n", "0"], "--n must be >= 1, got 0"),
        ("algo", ["--cluster", "2", "--global-bz", "0"],
         "--global-bz must be >= 1, got 0"),
        ("algo", ["--device-names", "T4-16G", "--device-numbers", "0"],
         "node must hold at least one GPU"),
        # unwritable outputs fail before any planning or replay
        ("algo", ["--cluster", "2", "-o", "{tmp}/gone/s.json"],
         "cannot write -o {tmp}/gone/s.json: no directory {tmp}/gone"),
        ("algo", ["--cluster", "2", "-o", "{tmp}"],
         "cannot write -o {tmp}: it is a directory"),
        ("serve", ["--fleet-json", "{tmp}/gone/f.json"],
         "cannot write --fleet-json {tmp}/gone/f.json: no directory {tmp}/gone"),
        ("serve", ["--replicas", "2", "--fleet-json", "{tmp}"],
         "cannot write --fleet-json {tmp}: it is a directory"),
        ("serve", ["--save-trace", "{tmp}/gone/t.json"],
         "cannot write --save-trace {tmp}/gone/t.json: no directory {tmp}/gone"),
    ],
)
def test_bad_cluster_or_workload_is_one_line(
    strategy_file, tmp_path, capsys, command, flags, message
):
    """An unknown paper cluster, an empty workload, a node of no GPUs or
    an output path that cannot be written exits 2 with one ``error:``
    line in every command, never a traceback."""
    from repro.cli import serve_main

    flags = [f.format(tmp=tmp_path) for f in flags]
    message = message.format(tmp=tmp_path)
    if command == "algo":
        out = tmp_path / "s.json"
        rc = algo_main(["--model-name", "opt-13b", "-o", str(out), *flags])
        assert not out.exists()
    else:
        main = dist_main if command == "dist" else serve_main
        rc = main(["--strat-file-name", str(strategy_file), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,trace,got",
    [
        ("dist", None, "100 + 30 - 1 = 129"),
        ("serve", None, "100 + 30 - 1 = 129"),
        ("serve", (120, 20), "120 + 20 - 1 = 139"),
    ],
)
def test_tiny_plan_past_the_position_table_is_one_line(
    tmp_path, capsys, command, trace, got
):
    """A tiny-model plan whose workload overruns the position table
    (``s + n - 1 > max_position_embeddings``), or a replayed trace with
    such a request, exits 2 with one ``error:`` line before serving
    instead of an ``IndexError`` from the embedding."""
    from repro.cli import serve_main
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.workload import Workload
    from repro.workload.traces import ArrivalTrace, save_trace

    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(dev(0), (16, 16)), StagePlan(dev(1), (16, 16))),
        prefill_microbatch=1, decode_microbatch=2,
        workload=Workload(prompt_len=100, gen_len=30, global_batch=2),
    )
    path = tmp_path / "tiny.json"
    plan.to_json(path)
    argv = ["--strat-file-name", str(path)]
    if command == "serve":
        argv += ["--rate", "4", "--duration", "2", "--time-scale", "0"]
    if trace is not None:
        save_trace(ArrivalTrace(
            arrivals=np.array([0.0, 0.5]), prompt_lens=np.array([8, trace[0]]),
            gen_lens=np.array([4, trace[1]]),
        ), tmp_path / "trace.json")
        argv += ["--trace-file", str(tmp_path / "trace.json")]
    rc = (dist_main if command == "dist" else serve_main)(argv)
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "error: tiny-4l embeds at most 128 positions: prompt_len + gen_len - 1 "
        f"must be <= 128, got {got}"
    ]
    assert not out


def test_dist_runs_tiny_model_for_real(tmp_path, capsys):
    """A tiny-model strategy is executed on the actual NumPy runtime."""
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.workload import Workload

    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(dev(0), (16, 16)), StagePlan(dev(1), (8, 8))),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=Workload(prompt_len=8, gen_len=4, global_batch=4),
    )
    path = tmp_path / "tiny.json"
    plan.to_json(path)
    assert dist_main(["--strat-file-name", str(path)]) == 0
    assert "tok/s wall" in capsys.readouterr().out


def test_dist_dequant_cache_knob(tmp_path, capsys):
    """--dequant-cache-mb is threaded through to the runtime and the
    hot-path stats line reflects the setting."""
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.workload import Workload

    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(dev(0), (4, 4)), StagePlan(dev(1), (8, 8))),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=Workload(prompt_len=8, gen_len=4, global_batch=4),
    )
    path = tmp_path / "tiny.json"
    plan.to_json(path)

    assert dist_main(["--strat-file-name", str(path),
                      "--dequant-cache-mb", "0"]) == 0
    out = capsys.readouterr().out
    assert "hot path:" in out
    assert "budget 0.0 MiB" in out

    assert dist_main(["--strat-file-name", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hot path:" in out
    assert "budget 0.0 MiB" not in out


def test_algo_with_omega_file(tmp_path):
    """The paper's --omega_file flow: precompute an indicator, feed it in."""
    from repro.models import get_model
    from repro.quant import synthetic_indicator

    omega = tmp_path / "omega.json"
    synthetic_indicator(get_model("opt-13b")).to_json(omega)
    out = tmp_path / "s.json"
    rc = algo_main([
        "--model-name", "opt-13b",
        "--cluster", "1",
        "--group", "4",
        "--global-bz", "8",
        "--s", "128",
        "--n", "10",
        "--omega-file", str(omega),
        "-o", str(out),
    ])
    assert rc == 0
    assert ExecutionPlan.from_json(out).num_layers == 40


def _tiny_plan(tmp_path, name="tiny.json"):
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.workload import Workload

    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(dev(0), (16, 16)), StagePlan(dev(1), (16, 16))),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=Workload(prompt_len=8, gen_len=4, global_batch=4),
    )
    path = tmp_path / name
    plan.to_json(path)
    return path


def test_dist_missing_strategy_file_friendly_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        dist_main(["--strat-file-name", str(tmp_path / "nope.json")])
    assert "not found" in str(exc.value)
    assert "Traceback" not in capsys.readouterr().err


def test_dist_invalid_json_friendly_error(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        dist_main(["--strat-file-name", str(bad)])
    assert "not valid JSON" in str(exc.value)


def test_dist_unknown_model_friendly_error(tmp_path, strategy_file):
    data = json.loads(strategy_file.read_text())
    data["model_name"] = "opt-999b"
    bad = tmp_path / "unknown_model.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        dist_main(["--strat-file-name", str(bad)])
    assert "unknown" in str(exc.value)


@pytest.mark.parametrize("command", ["dist", "serve"])
def test_empty_stage_strategy_friendly_error(command, tmp_path, capsys):
    """A stage with ``"layer_bits": []`` used to pass ``llmpq-dist`` and
    kill ``llmpq-serve`` with an IndexError from the decode table; both
    now refuse the file with one line."""
    from repro.cli import serve_main
    from repro.hardware import paper_cluster
    from repro.workload import Workload

    plan = ExecutionPlan.uniform(
        "opt-13b", paper_cluster(3).devices,
        Workload(prompt_len=128, gen_len=16, global_batch=8), bits=4,
    )
    data = plan.to_dict()
    first, second = data["stages"][:2]
    second["layer_bits"] = first["layer_bits"] + second["layer_bits"]
    first["layer_bits"] = []
    bad = tmp_path / "empty_stage.json"
    bad.write_text(json.dumps(data))
    main = dist_main if command == "dist" else serve_main
    with pytest.raises(SystemExit) as exc:
        main(["--strat-file-name", str(bad)])
    assert exc.value.code not in (None, 0)
    assert "a stage must host at least one layer" in str(exc.value)
    assert str(exc.value).count("\n") == 0
    assert "Traceback" not in capsys.readouterr().err


def test_dist_strategy_path_is_directory(tmp_path):
    with pytest.raises(SystemExit) as exc:
        dist_main(["--strat-file-name", str(tmp_path)])
    assert "directory" in str(exc.value)


def test_algo_missing_omega_file_friendly_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        algo_main([
            "--model-name", "opt-13b", "--cluster", "1",
            "--omega-file", str(tmp_path / "missing.json"),
        ])
    assert "omega file not found" in str(exc.value)


def test_algo_invalid_omega_file_friendly_error(tmp_path):
    omega = tmp_path / "omega.json"
    omega.write_text("[1, 2")
    with pytest.raises(SystemExit) as exc:
        algo_main([
            "--model-name", "opt-13b", "--cluster", "1",
            "--omega-file", str(omega),
        ])
    assert "invalid omega file" in str(exc.value)


def test_algo_mismatched_omega_file_infeasible(tmp_path):
    """An indicator computed for another depth cannot drive this model."""
    from repro.models import get_model
    from repro.quant import synthetic_indicator

    omega = tmp_path / "omega30.json"
    synthetic_indicator(get_model("opt-30b")).to_json(omega)  # 48 layers
    with pytest.raises(SystemExit) as exc:
        algo_main([
            "--model-name", "opt-13b", "--cluster", "1",
            "--omega-file", str(omega),
        ])
    assert "infeasible" in str(exc.value)


def test_dist_invalid_fault_spec_exits_nonzero(tmp_path, capsys):
    path = _tiny_plan(tmp_path)
    rc = dist_main(["--strat-file-name", str(path),
                    "--fault-spec", "explode:stage=1"])
    assert rc == 2
    assert "invalid --fault-spec" in capsys.readouterr().err


def test_dist_recovers_from_injected_crash(tmp_path, capsys):
    """The CLI serves through an injected crash and reports recovery."""
    path = _tiny_plan(tmp_path)
    rc = dist_main(["--strat-file-name", str(path),
                    "--fault-spec", "crash:stage=1,at=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tok/s wall" in out
    assert "recovery:" in out
    assert "1 retries" in out


def test_dist_no_recovery_fails_with_exit_3(tmp_path, capsys):
    path = _tiny_plan(tmp_path)
    rc = dist_main(["--strat-file-name", str(path),
                    "--fault-spec", "crash:stage=0,at=1,repeat=1",
                    "--no-recovery"])
    assert rc == 3
    assert "serving failed" in capsys.readouterr().err


def test_dist_fault_spec_from_env(tmp_path, capsys, monkeypatch):
    path = _tiny_plan(tmp_path)
    monkeypatch.setenv("REPRO_FAULTS", "slow:stage=0,delay=0.001,every=2")
    rc = dist_main(["--strat-file-name", str(path)])
    assert rc == 0
    assert "recovery:" in capsys.readouterr().out


def test_dist_rejects_invalid_strategy(tmp_path, capsys):
    """Pre-flight validation: an OOM-bound strategy exits with code 2."""
    from repro.hardware import paper_cluster
    from repro.workload import Workload

    w = Workload(prompt_len=512, gen_len=100, global_batch=32)
    cl = paper_cluster(3)
    plan = ExecutionPlan.uniform("opt-30b", cl.devices, w, bits=16)  # OOMs
    path = tmp_path / "bad.json"
    plan.to_json(path)
    rc = dist_main(["--strat-file-name", str(path), "--cluster", "3"])
    assert rc == 2
    assert "oom" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# llmpq-serve (online trace replay)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_strategy_file(tmp_path_factory):
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.workload import Workload

    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(dev(0), (16, 16)), StagePlan(dev(1), (8, 8))),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=Workload(prompt_len=12, gen_len=6, global_batch=4),
    )
    path = tmp_path_factory.mktemp("serve") / "tiny.json"
    plan.to_json(path)
    return path


def test_serve_tiny_continuous(tiny_strategy_file, tmp_path, capsys):
    from repro.cli import serve_main

    fleet = tmp_path / "fleet.json"
    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file),
        "--rate", "4", "--duration", "2", "--time-scale", "0",
        "--fleet-json", str(fleet),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[continuous]" in out and "0 rejected" in out
    assert "latency p50" in out and "ttft mean" in out
    report = json.loads(fleet.read_text())
    assert report["completed"] == report["n_requests"] > 0


def test_serve_tiny_wave_baseline(tiny_strategy_file, capsys):
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file),
        "--policy", "wave",
        "--rate", "4", "--duration", "2", "--time-scale", "0",
    ])
    assert rc == 0
    assert "[wave]" in capsys.readouterr().out


def test_serve_tiny_reports_online_crash_recovery(tiny_strategy_file, capsys):
    """An online stage crash recovers by KV replay, and ``llmpq-serve``
    prints the runtime's recovery line beside the reconfig line."""
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file),
        "--rate", "4", "--duration", "2", "--time-scale", "0",
        "--fault-spec", "crash:stage=1,at=12",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 crash recoveries" in out and "(0 divergences)" in out
    assert "recovery: 1 retries, 1 stage restarts, 0 KV denials, 0 replans" in out


def test_serve_tiny_wave_recovers_online_crash(tiny_strategy_file, capsys):
    """The wave policy recovers from the same online crash by KV replay
    and prints the same reconfig and recovery lines."""
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file), "--policy", "wave",
        "--rate", "4", "--duration", "2", "--time-scale", "0",
        "--fault-spec", "crash:stage=1,at=12",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("[wave] ")
    assert "1 crash recoveries" in out and "(0 divergences)" in out
    assert "recovery: 1 retries, 1 stage restarts, 0 KV denials, 0 replans" in out


def test_serve_simulates_big_model(strategy_file, capsys):
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(strategy_file),
        "--cluster", "1",
        "--rate", "1", "--duration", "10",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[continuous]" in out and "reqs" in out


def test_serve_sim_wave_and_des_engines(strategy_file, capsys):
    from repro.cli import serve_main

    for extra in (["--policy", "wave"], ["--engine", "des"]):
        rc = serve_main([
            "--strat-file-name", str(strategy_file),
            "--cluster", "1",
            "--rate", "1", "--duration", "8", *extra,
        ])
        assert rc == 0
    out = capsys.readouterr().out
    assert "[wave]" in out and "[continuous]" in out


def test_serve_trace_file_roundtrip(strategy_file, tmp_path, capsys):
    """--save-trace then --trace-file replays the exact same trace: the
    simulated summary line is byte-identical."""
    from repro.cli import serve_main

    saved = tmp_path / "trace.json"
    base = [
        "--strat-file-name", str(strategy_file),
        "--cluster", "1",
        "--rate", "1", "--duration", "8",
    ]
    assert serve_main([*base, "--save-trace", str(saved)]) == 0
    first = capsys.readouterr().out
    assert saved.exists()
    assert serve_main([*base, "--trace-file", str(saved)]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "flags",
    [
        ["--policy", "continuous"],
        ["--policy", "continuous", "--engine", "des"],
        ["--policy", "wave"],
        ["--policy", "wave", "--engine", "des"],
        # a diurnal swing that fires the drift detector and migrates
        ["--replan-on-drift", "--trace", "diurnal", "--rate", "6",
         "--duration", "120", "--drift-window", "5", "--drift-cooldown", "10"],
    ],
    ids=["continuous", "continuous-des", "wave", "wave-des", "drift"],
)
def test_serve_one_replica_prints_the_simulator_summary(
    strategy_file, tmp_path, capsys, flags
):
    """One replica, no autoscaler: llmpq-serve's stdout is exactly
    ``simulate_online(...).summary()`` on the trace it replayed."""
    from repro.cli import serve_main
    from repro.hardware import paper_cluster
    from repro.runtime.replan import DriftConfig, make_search_replanner
    from repro.sim.online import simulate_online
    from repro.workload.traces import load_trace

    saved, fleet = tmp_path / "trace.json", tmp_path / "fleet.json"
    assert serve_main([
        "--strat-file-name", str(strategy_file), "--cluster", "1",
        "--rate", "1", "--duration", "10", *flags, "--save-trace", str(saved),
        "--fleet-json", str(fleet),
    ]) == 0
    out = capsys.readouterr().out

    def flag(name, default):
        return flags[flags.index(name) + 1] if name in flags else default

    cluster = paper_cluster(1)
    drift = replanner = None
    if "--replan-on-drift" in flags:
        drift = DriftConfig(window=5.0, threshold=0.5, hysteresis=2, cooldown=10.0)
        replanner = make_search_replanner(cluster)
    direct = simulate_online(
        ExecutionPlan.from_json(strategy_file), cluster, load_trace(saved),
        policy=flag("--policy", "continuous"), engine=flag("--engine", "analytic"),
        drift=drift, replanner=replanner,
    )
    assert out == direct.summary() + "\n"
    if drift is not None:
        assert direct.migrations > 0
    # --fleet-json writes the one-replica report, stdout unchanged
    report = json.loads(fleet.read_text())
    assert [r["replica_id"] for r in report["replicas"]] == [0]
    assert report["n_requests"] == len(load_trace(saved))
    assert report["completed"] == direct.completed


def test_serve_tiny_fleet(tiny_strategy_file, capsys):
    """Two real-runtime replicas: the fleet summary and one line per
    replica, every request routed and completed."""
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file),
        "--rate", "4", "--duration", "2", "--time-scale", "0",
        "--replicas", "2",
    ])
    assert rc == 0
    head, *lines = capsys.readouterr().out.splitlines()
    assert head.startswith("[fleet x2 router=round-robin] ")
    n = int(head.split("] ")[1].split("/")[0])
    assert n > 0 and f"{n}/{n} completed" in head
    assert [ln.split(":")[0] for ln in lines] == [
        "  replica 0 [general]", "  replica 1 [general]",
    ]
    routed = [int(ln.split(": ")[1].split(" routed")[0]) for ln in lines]
    assert sum(routed) == n and min(routed) > 0


def test_serve_tiny_fleet_reports_crash_recoveries(tiny_strategy_file, tmp_path, capsys):
    """Each runtime replica recovers its own crash, and fleet mode shows
    it: a replica's line counts its crash recoveries, and --fleet-json
    carries its reconfiguration counters."""
    from repro.cli import serve_main

    path = tmp_path / "fleet.json"
    rc = serve_main([
        "--strat-file-name", str(tiny_strategy_file),
        "--rate", "4", "--duration", "2", "--time-scale", "0",
        "--replicas", "2", "--fault-spec", "crash:stage=1,at=6",
        "--fleet-json", str(path),
    ])
    assert rc == 0
    _, *lines = capsys.readouterr().out.splitlines()
    replicas = json.loads(path.read_text())["replicas"]
    assert [r["crash_recoveries"] for r in replicas] == [1, 1]
    for ln, r in zip(lines, replicas, strict=True):
        assert ln.endswith(" GPU-h, 1 crash recoveries")
        assert r["migrations"] == 1 and r["replans"] == 0
        assert r["replayed_tokens"] > 0 and r["replay_divergences"] == 0
        assert r["completed"] == r["routed"]


def test_serve_sim_autoscaled_fleet_json(strategy_file, tmp_path, capsys):
    """Three simulated replicas behind the TTFT router, autoscaled from
    one: stdout reports the SLO and every replica, and --fleet-json
    holds the same report."""
    from repro.cli import serve_main

    path = tmp_path / "fleet.json"
    rc = serve_main([
        "--strat-file-name", str(strategy_file), "--cluster", "1",
        "--rate", "1", "--duration", "10",
        "--replicas", "3", "--router", "ttft", "--autoscale",
        "--slo-ttft", "2", "--fleet-json", str(path),
    ])
    assert rc == 0
    head, *lines = capsys.readouterr().out.splitlines()
    assert head.startswith("[fleet x3 router=ttft] ")
    assert "ttft SLO" in head and "scale-ups" in head
    assert len(lines) == 3
    report = json.loads(path.read_text())
    assert report["router"] == "ttft" and report["autoscaled"] is True
    assert report["slo_ttft"] == 2.0
    assert report["completed"] + report["rejected"] == report["n_requests"] > 0
    assert [r["replica_id"] for r in report["replicas"]] == [0, 1, 2]
    assert sum(r["routed"] for r in report["replicas"]) == report["n_requests"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--engine", "reference"],
        ["--engine", "reference-des"],
        ["--decode-batching", "per-request"],
    ],
)
def test_serve_has_no_oracle_modes(strategy_file, capsys, flags):
    """The scalar simulator loop and batch-1 decode are test specs, not
    serve options: argparse refuses them with its usage message."""
    from repro.cli import serve_main

    with pytest.raises(SystemExit) as exc:
        serve_main(["--strat-file-name", str(strategy_file), *flags])
    assert exc.value.code == 2
    assert "usage: llmpq-serve" in capsys.readouterr().err


def test_serve_kv_bits_override_lands_on_stages_only(
    strategy_file, monkeypatch
):
    """--kv-bits re-levels every stage and writes nothing into meta."""
    import repro.sim.online as online
    from repro.cli import serve_main

    seen = []
    real = online.simulate_online
    monkeypatch.setattr(
        online, "simulate_online",
        lambda plan, *a, **k: seen.append(plan) or real(plan, *a, **k),
    )
    rc = serve_main([
        "--strat-file-name", str(strategy_file), "--cluster", "1",
        "--rate", "1", "--duration", "5", "--kv-bits", "8",
    ])
    assert rc == 0
    (plan,) = seen
    assert set(plan.kv_bits_per_stage) == {8}
    assert "kv_bits" not in plan.meta


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_serve_rejects_nonpositive_max_inflight(strategy_file, capsys, cap):
    """A cap that can admit nothing is a usage error, not a replay that
    never ends."""
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(strategy_file), "--cluster", "1",
        "--max-inflight", cap,
    ])
    assert rc == 2
    assert "--max-inflight must be positive" in capsys.readouterr().err


def test_serve_bad_trace_file_friendly_error(strategy_file, tmp_path, capsys):
    from repro.cli import serve_main

    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        serve_main([
            "--strat-file-name", str(strategy_file),
            "--cluster", "1", "--trace-file", str(bogus),
        ])
    assert "not a saved arrival trace" in str(exc.value)
    assert "Traceback" not in capsys.readouterr().err
    # a column missing, a length that is not an integer: one line each
    for payload, column in (
        ('{"arrivals": [0.0, 1.0], "gen_lens": [4, 4]}', "prompt_lens"),
        (
            '{"arrivals": [0.0, 1.0], "prompt_lens": [8.7, 8], "gen_lens": [4, 4]}',
            "prompt_lens",
        ),
    ):
        bogus.write_text(payload)
        with pytest.raises(SystemExit) as exc:
            serve_main([
                "--strat-file-name", str(strategy_file),
                "--cluster", "1", "--trace-file", str(bogus),
            ])
        msg = str(exc.value)
        assert msg.startswith("error: cannot load --trace-file: ")
        assert column in msg and "\n" not in msg
        assert "Traceback" not in capsys.readouterr().err


def test_serve_rejects_bad_rate(tiny_strategy_file, capsys):
    from repro.cli import serve_main

    assert serve_main([
        "--strat-file-name", str(tiny_strategy_file), "--rate", "0",
    ]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_serve_missing_strategy_friendly_error(tmp_path, capsys):
    from repro.cli import serve_main

    with pytest.raises(SystemExit) as exc:
        serve_main(["--strat-file-name", str(tmp_path / "nope.json")])
    assert "not found" in str(exc.value)
    assert "Traceback" not in capsys.readouterr().err


def test_serve_sim_cost_source_model(strategy_file, capsys):
    """--cost-source model prices the online simulator with an on-the-fly
    fitted latency model instead of the roofline kernels."""
    from repro.cli import serve_main

    rc = serve_main([
        "--strat-file-name", str(strategy_file),
        "--cluster", "1",
        "--rate", "1", "--duration", "5",
        "--cost-source", "model",
    ])
    assert rc == 0
    assert "reqs" in capsys.readouterr().out


def test_algo_cost_source_model(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = algo_main([
        "--model-name", "opt-13b",
        "--device-names", "T4-16G", "V100-32G",
        "--device-numbers", "1", "1",
        "--group", "4",
        "--global-bz", "8",
        "--s", "128",
        "--n", "10",
        "--cost-source", "model",
        "-o", str(out),
    ])
    assert rc == 0
    assert "predicted" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--time-scale", "-1"], "--time-scale must be non-negative and finite, got -1.0"),
        (["--time-scale", "-1", "--replicas", "2"],
         "--time-scale must be non-negative and finite, got -1.0"),
        (["--time-scale", "nan"], "--time-scale must be non-negative and finite, got nan"),
        (["--max-prompt", "-5"], "--max-prompt must be >= 1, got -5"),
        (["--max-prompt", "0"], "--max-prompt must be >= 1, got 0"),
        (["--max-gen", "0"], "--max-gen must be >= 1, got 0"),
        (["--rate", "nan"], "--rate must be positive and finite, got nan"),
        (["--rate", "inf"], "--rate must be positive and finite, got inf"),
        (["--duration", "inf"], "--duration must be positive and finite, got inf"),
        (["--duration", "-2"], "--duration must be positive and finite, got -2.0"),
        (["--slo-ttft", "-1"], "--slo-ttft must be positive and finite, got -1.0"),
        (["--slo-ttft", "nan"], "--slo-ttft must be positive and finite, got nan"),
        (["--slo-tpot", "-1"], "--slo-tpot must be positive and finite, got -1.0"),
        (["--slo-tpot", "nan"], "--slo-tpot must be positive and finite, got nan"),
        (["--autoscale", "--autoscale-min-active", "0"],
         "--autoscale-min-active must be >= 1, got 0"),
        (["--autoscale", "--autoscale-window", "nan"],
         "invalid autoscale settings: window must be positive and finite, got nan"),
        (["--autoscale", "--autoscale-window", "inf"],
         "invalid autoscale settings: window must be positive and finite, got inf"),
        (["--autoscale", "--autoscale-cooldown", "nan"],
         "invalid autoscale settings: cooldown must be >= 0, got nan"),
        (["--replan-on-drift", "--drift-window", "nan"],
         "invalid drift settings: window must be positive and finite, got nan"),
        (["--replan-on-drift", "--drift-window", "inf"],
         "invalid drift settings: window must be positive and finite, got inf"),
        (["--replan-on-drift", "--drift-threshold", "nan"],
         "invalid drift settings: threshold must be positive, got nan"),
        (["--replan-on-drift", "--drift-cooldown", "nan"],
         "invalid drift settings: cooldown must be >= 0, got nan"),
        (["--max-prompt", "100", "--max-gen", "30"],
         "tiny-4l embeds at most 128 positions: prompt_len + gen_len - 1 "
         "must be <= 128, got 100 + 30 - 1 = 129"),
    ],
)
def test_serve_malformed_flag_is_one_line(tiny_strategy_file, capsys, flags, message):
    """An out-of-range serve flag exits 2 with one ``error:`` line before
    any work — no traceback, no silent fallback to the plan's default."""
    from repro.cli import serve_main

    rc = serve_main(["--strat-file-name", str(tiny_strategy_file), *flags])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "value,message",
    [
        ("-1", "--dequant-cache-mb must be non-negative and finite, got -1.0"),
        ("nan", "--dequant-cache-mb must be non-negative and finite, got nan"),
        ("inf", "--dequant-cache-mb must be non-negative and finite, got inf"),
    ],
)
def test_dist_malformed_dequant_cache_is_one_line(
    tiny_strategy_file, capsys, value, message
):
    rc = dist_main([
        "--strat-file-name", str(tiny_strategy_file), "--dequant-cache-mb", value,
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_runtime_rejects_non_finite_dequant_budget(tiny4l):
    from repro.core.plan import StagePlan
    from repro.hardware import Device, get_gpu
    from repro.models import TinyDecoderLM
    from repro.runtime import PipelineRuntime
    from repro.workload import Workload

    plan = ExecutionPlan(
        model_name="tiny-4l",
        stages=(StagePlan(Device(get_gpu("T4-16G"), 0, 0), (16,) * 4),),
        prefill_microbatch=1, decode_microbatch=1,
        workload=Workload(prompt_len=4, gen_len=2, global_batch=1),
    )
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            PipelineRuntime(TinyDecoderLM(tiny4l, seed=0), plan, dequant_cache_mb=bad)

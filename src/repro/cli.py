"""Command-line entry points mirroring the paper's Sec.-5 commands.

``llmpq-algo``
    Plan generation: model + cluster + workload + theta in, strategy
    JSON out (the paper's ``llmpq-algo --model-name ... --theta ...``).

``llmpq-dist``
    Strategy execution: loads a strategy file and serves it — on the
    simulated cluster for big models, and on the real thread-pipelined
    NumPy runtime for ``tiny-*`` models.  ``--fault-spec`` (or the
    ``REPRO_FAULTS`` environment variable) injects deterministic faults
    into the real runtime to exercise the recovery path.

``llmpq-serve``
    Online serving: replays an arrival trace (Poisson, bursty, diurnal,
    or Pareto heavy-tailed) against a strategy — iteration-level
    continuous batching (or the wave baseline) on the real runtime for
    ``tiny-*`` models, and on the online simulator for big models.
    ``--replan-on-drift`` watches the stream for workload drift and
    live-migrates the pipeline to a refitted plan without dropping
    traffic.  Every replay, one replica or many, is one
    :func:`~repro.fleet.serve_fleet` call.

All commands report user mistakes (missing files, malformed JSON,
unknown models, mismatched omega tables) as one-line errors with a
non-zero exit code instead of tracebacks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core.api import evaluate_plan, plan_llmpq
from .core.plan import ExecutionPlan
from .hardware.cluster import Cluster, cluster_from_devices, make_cluster, paper_cluster
from .hardware.gpu import list_gpus
from .models.registry import get_model, list_models
from .workload.spec import Workload

__all__ = ["algo_main", "dist_main", "serve_main"]


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _flag_error(
    args: argparse.Namespace, *, positive=(), nonneg=(), counts=()
) -> str | None:
    """The first out-of-range flag as a one-line message (``None``: all
    in range; unset flags pass).  ``positive`` flags must be finite and
    > 0, ``nonneg`` finite and >= 0, ``counts`` >= 1."""
    rules = (
        (positive, lambda v: math.isfinite(v) and v > 0, "positive and finite"),
        (nonneg, lambda v: math.isfinite(v) and v >= 0, "non-negative and finite"),
        (counts, lambda v: v >= 1, ">= 1"),
    )
    for flags, ok, what in rules:
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None and not ok(value):
                return f"{flag} must be {what}, got {value}"
    return None


def _output_error(flag: str, path: str | None) -> str | None:
    """Why ``path``, given to ``flag``, cannot be written (``None``: it
    can, or no path was given) — checked before any work runs."""
    if not path:
        return None
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        why = "it is a directory"
    elif not os.path.isdir(parent):
        why = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        why = "permission denied"
    else:
        return None
    return f"cannot write {flag} {path}: {why}"


def _fused_decode_line(st) -> str:
    """How many decode iterations ran fused, how wide, and what that saved."""
    return (
        f"fused decode: {st.fused_iterations} iterations, batch mean "
        f"{st.fused_batch_mean:.2f} / max {st.fused_batch_max}; "
        f"weight stream saved {st.fused_weight_bytes_saved / 2**20:.1f} MiB"
    )


def _latency_line(x) -> str:
    """Request latency and TTFT percentiles of a runtime run."""
    return (
        f"requests: latency p50 {x.latency_p50:.3f}s / "
        f"p95 {x.latency_p95:.3f}s / p99 {x.latency_p99:.3f}s; "
        f"ttft mean {x.ttft_mean:.3f}s (p95 {x.ttft_p95:.3f}s)"
    )


def _kv_slab_line(st) -> str:
    """Memory the stages' KV slabs reserve against the peak in use, and
    how the fused steps read them."""
    return (
        f"KV slab: {st.kv_slab_rows} rows, "
        f"{st.kv_slab_bytes / 2**20:.2f} MiB reserved / "
        f"{st.kv_peak_bytes / 2**20:.2f} MiB peak in use; fused reads "
        f"{st.kv_view_steps} slice / {st.kv_gather_steps} gather"
    )


def _recovery_line(st) -> str:
    """What the runtime's recovery ladder took and rebuilt."""
    return (
        f"recovery: {st.retries} retries, {st.stage_restarts} stage "
        f"restarts, {st.kv_alloc_failures} KV denials, {st.replans} "
        f"replans, {st.recovery_seconds:.3f}s recovering"
    )


def _paper_cluster(cluster_id: int) -> Cluster:
    """:func:`paper_cluster`, an unknown id raised as a one-line
    ``ValueError``."""
    try:
        return paper_cluster(cluster_id)
    except KeyError as e:
        raise ValueError(e.args[0]) from None


def _build_cluster(args: argparse.Namespace) -> Cluster:
    if args.cluster is not None:
        return _paper_cluster(args.cluster)
    if not args.device_names:
        raise SystemExit("either --cluster or --device-names is required")
    if len(args.device_names) != len(args.device_numbers):
        raise SystemExit("--device-names and --device-numbers must align")
    return make_cluster(list(zip(args.device_names, args.device_numbers)))


def _load_indicator(path: str, model_name: str):
    """Validate and load an ``--omega_file`` indicator, or exit friendly."""
    from .quant.indicator import IndicatorTable

    try:
        indicator = IndicatorTable.from_json(path)
    except FileNotFoundError:
        raise SystemExit(f"error: omega file not found: {path}")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        raise SystemExit(f"error: invalid omega file {path}: {e}")
    cfg = get_model(model_name)
    if indicator.num_layers != cfg.num_layers:
        raise SystemExit(
            f"error: omega file {path} covers {indicator.num_layers} layers "
            f"but {model_name} has {cfg.num_layers} — infeasible indicator"
        )
    return indicator


def algo_main(argv: list[str] | None = None) -> int:
    """``llmpq-algo``: generate a strategy file for a model/cluster/workload."""
    p = argparse.ArgumentParser(
        prog="llmpq-algo", description="LLM-PQ plan generation"
    )
    p.add_argument("--model-name", required=True, choices=list_models())
    p.add_argument("--cluster", type=int, default=None,
                   help="paper cluster id 1..11 (Table 3)")
    p.add_argument("--device-names", nargs="*", default=None, choices=list_gpus())
    p.add_argument("--device-numbers", nargs="*", type=int, default=None)
    p.add_argument("--global-bz", type=int, default=32, help="global batch size")
    p.add_argument("--s", type=int, default=512, help="prompt length")
    p.add_argument("--n", type=int, default=100, help="tokens to generate")
    p.add_argument("--theta", type=float, default=1.0, help="quality scalar")
    p.add_argument("--group", type=int, default=1, help="layer group size")
    p.add_argument("--omega-file", "--omega_file", dest="omega_file", default=None,
                   help="indicator JSON (from IndicatorTable.to_json); "
                        "defaults to the synthetic Prop.-2 indicator")
    p.add_argument("--shaq-efficient", action="store_true", dest="heuristic",
                   help="plan with Algorithm 2: the adabits seed (best "
                        "quality that fits memory) then the bitwidth-transfer "
                        "walk, instead of the exact search")
    p.add_argument("--kv-bits", choices=["auto", "4", "8", "16"], default="16",
                   help="KV-cache bitwidth: 8/4 plan with quantized KV "
                        "(less memory, faster decode, more admission "
                        "headroom); 'auto' searches the levels and refines "
                        "per stage under theta")
    p.add_argument("--cost-source", choices=["kernels", "model"],
                   default="kernels",
                   help="stage-time source for the predicted report: "
                        "ground-truth roofline kernels, or the planner's "
                        "fitted latency model (shows planner-view numbers)")
    p.add_argument("-o", "--output", default="strategy.json",
                   help="strategy file to write")
    args = p.parse_args(argv)
    bad = _flag_error(args, counts=("--global-bz", "--s", "--n")) or (
        _output_error("-o", args.output)
    )
    if bad:
        return _fail(bad)

    try:
        cluster = _build_cluster(args)
    except ValueError as e:  # unknown paper cluster, a node of no GPUs
        return _fail(str(e))
    workload = Workload(prompt_len=args.s, gen_len=args.n, global_batch=args.global_bz)
    indicator = None
    if args.omega_file:
        indicator = _load_indicator(args.omega_file, args.model_name)
    print(f"planning {args.model_name} on {cluster.describe()}", file=sys.stderr)
    kv_bits = args.kv_bits if args.kv_bits == "auto" else int(args.kv_bits)
    try:
        result = plan_llmpq(
            args.model_name, cluster, workload,
            theta=args.theta, group_size=args.group,
            use_heuristic=args.heuristic, indicator=indicator, kv_bits=kv_bits,
        )
    except ValueError as e:  # a planner knob out of range
        return _fail(str(e))
    if result.stats is not None:
        print(result.stats.describe(), file=sys.stderr)
    if result.plan is None:
        print("no feasible plan found", file=sys.stderr)
        return 1
    result.plan.to_json(args.output)
    report = evaluate_plan(
        result.plan, cluster, solve_seconds=result.total_seconds,
        cost_source=args.cost_source,
    )
    print(result.plan.describe())
    print(
        f"predicted: latency {report.latency:.2f}s, "
        f"throughput {report.throughput:.2f} tok/s, "
        f"ppl {report.perplexity:.2f}, solve {result.total_seconds:.1f}s"
    )
    print(f"strategy written to {args.output}")
    return 0


def _serving_cluster(args: argparse.Namespace, plan: ExecutionPlan) -> Cluster:
    """``--cluster`` when given, else the cluster the plan's devices imply."""
    if args.cluster is not None:
        return _paper_cluster(args.cluster)
    return cluster_from_devices(st.device for st in plan.stages)


def _load_plan(path: str) -> ExecutionPlan:
    """Load a strategy file with friendly diagnostics (SystemExit on error)."""
    try:
        return ExecutionPlan.from_json(path)
    except FileNotFoundError:
        raise SystemExit(f"error: strategy file not found: {path}")
    except IsADirectoryError:
        raise SystemExit(f"error: strategy path is a directory: {path}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: strategy file {path} is not valid JSON: {e}")
    except KeyError as e:
        raise SystemExit(
            f"error: strategy file {path} is invalid or names an unknown "
            f"model/GPU: {e}"
        )
    except (ValueError, TypeError) as e:
        raise SystemExit(f"error: strategy file {path} is invalid: {e}")


def dist_main(argv: list[str] | None = None) -> int:
    """``llmpq-dist``: validate and serve a strategy file."""
    from .runtime.faults import FaultInjector

    p = argparse.ArgumentParser(
        prog="llmpq-dist", description="LLM-PQ strategy execution"
    )
    p.add_argument("--strat-file-name", "--strat_file_name", dest="strategy",
                   required=True, help="strategy JSON from llmpq-algo")
    p.add_argument("--cluster", type=int, default=None,
                   help="paper cluster id to serve on (defaults to plan devices)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-spec", default=None,
                   help="deterministic fault injection spec for the real "
                        "runtime, e.g. 'crash:stage=1,at=5;slow:stage=0,"
                        "delay=0.01' (overrides $REPRO_FAULTS)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault injector's randomness")
    p.add_argument("--no-recovery", action="store_true",
                   help="fail fast on stage crashes instead of recovering")
    p.add_argument("--dequant-cache-mb", type=float, default=None,
                   help="per-stage dequantized-weight cache budget in MiB "
                        "(default: auto-size from the memory model's slack; "
                        "0 disables caching and rebuilds dense weights per "
                        "microbatch)")
    args = p.parse_args(argv)
    bad = _flag_error(args, nonneg=("--dequant-cache-mb",))
    if bad:
        return _fail(bad)

    plan = _load_plan(args.strategy)
    cfg = get_model(plan.model_name)
    try:
        cluster = _serving_cluster(args, plan)
    except ValueError as e:
        return _fail(str(e))

    from .core.validate import validate_plan

    report = validate_plan(plan, cluster)
    if report.issues:
        print(report.describe(), file=sys.stderr)
    if not report.ok:
        return 2

    if plan.model_name.startswith("tiny-"):
        # real execution on the thread-pipelined runtime
        from .models.transformer import TinyDecoderLM
        from .runtime.engine import PipelineRuntime, SupervisionConfig

        try:
            cfg.check_positions(plan.workload.prompt_len, plan.workload.gen_len)
        except ValueError as e:
            return _fail(str(e))
        injector = None
        if args.fault_spec:
            try:
                injector = FaultInjector.from_spec(args.fault_spec, seed=args.fault_seed)
            except ValueError as e:
                return _fail(f"invalid --fault-spec: {e}")
        else:
            try:
                injector = FaultInjector.from_env()
            except ValueError as e:
                return _fail(f"invalid $REPRO_FAULTS: {e}")

        supervision = SupervisionConfig(enable_recovery=not args.no_recovery)
        ref = TinyDecoderLM(cfg, seed=args.seed)
        rng = np.random.default_rng(args.seed)
        prompts = rng.integers(
            0, cfg.vocab_size,
            size=(plan.workload.global_batch, plan.workload.prompt_len),
        )
        try:
            with PipelineRuntime(
                ref, plan, fault_injector=injector, supervision=supervision,
                dequant_cache_mb=args.dequant_cache_mb,
            ) as rt:
                tokens = rt.generate(prompts, plan.workload.gen_len)
        except RuntimeError as e:
            return _fail(f"serving failed: {e}", code=3)
        print(
            f"generated {tokens.size} tokens in {rt.stats.total_seconds:.3f}s "
            f"({tokens.size / rt.stats.total_seconds:.1f} tok/s wall)"
        )
        st = rt.stats
        print(
            f"hot path: prefill {st.prefill_tokens_per_s:.1f} tok/s, "
            f"decode {st.decode_tokens_per_s:.1f} tok/s; dequant cache "
            f"{st.dequant_cache_hits} hits / {st.dequant_cache_misses} misses "
            f"({st.dequant_cache_evictions} evictions, "
            f"{st.dequant_cache_sheds} sheds, "
            f"{st.dequant_build_seconds:.3f}s rebuilding, "
            f"budget {st.dequant_cache_budget_bytes / 2**20:.1f} MiB)"
        )
        if st.request_latencies:
            print(_latency_line(st))
        if st.fused_iterations:
            print(_fused_decode_line(st))
        print(_kv_slab_line(st))
        if injector is not None or st.retries or st.replans:
            print(_recovery_line(st))
        if rt.plan is not rt.original_plan:
            print("downgraded plan after device loss:", file=sys.stderr)
            print(rt.plan.describe(), file=sys.stderr)
        return 0

    outcome = evaluate_plan(plan, cluster)
    print(plan.describe())
    print(
        f"simulated: latency {outcome.latency:.2f}s, "
        f"throughput {outcome.throughput:.2f} tok/s, ppl {outcome.perplexity:.2f}"
    )
    return 0 if outcome.feasible else 1


def _sample_trace(args: argparse.Namespace, max_prompt: int, max_gen: int):
    """Draw the requested arrival process from ``workload.traces``.

    ``--trace-file`` replays a saved trace instead of sampling;
    ``--save-trace`` persists whatever was sampled for later replay.
    """
    from .workload.traces import (
        load_trace,
        sample_bursty_arrivals,
        sample_diurnal_arrivals,
        sample_pareto_arrivals,
        sample_poisson_arrivals,
        save_trace,
    )

    if getattr(args, "trace_file", None):
        try:
            return load_trace(args.trace_file)
        except (OSError, ValueError) as e:
            raise SystemExit(f"error: cannot load --trace-file: {e}") from e
    sampler = {
        "poisson": sample_poisson_arrivals,
        "bursty": sample_bursty_arrivals,
        "diurnal": sample_diurnal_arrivals,
        "pareto": sample_pareto_arrivals,
    }[args.trace]
    trace = sampler(
        args.rate, args.duration, seed=args.seed,
        max_prompt=max_prompt, max_gen=max_gen,
    )
    if getattr(args, "save_trace", None):
        save_trace(trace, args.save_trace)
    return trace


def _fleet_pool_labels(n: int, disaggregate: bool) -> list[str]:
    """Pool label per replica id: all-general, or alternating
    prefill/decode when the fleet is disaggregated."""
    from .fleet import POOL_DECODE, POOL_GENERAL, POOL_PREFILL

    if not disaggregate:
        return [POOL_GENERAL] * n
    return [POOL_PREFILL if i % 2 == 0 else POOL_DECODE for i in range(n)]


def _emit_fleet(report) -> None:
    """Print the fleet outcome, a line per replica and scale event."""
    print(report.summary())
    for r in report.replica_results:
        crashes = r.report.crash_recoveries if r.report is not None else 0
        print(
            f"  replica {r.replica_id} [{r.pool}]: {r.routed} routed, "
            f"{r.completed} completed, {r.rejected} rejected, "
            f"{r.gpu_seconds / 3600.0:.3f} GPU-h"
            + (f", {crashes} crash recoveries" if crashes else "")
        )
    for e in report.scale_events:
        print(
            f"  t={e.at:.1f}s {e.pool}: {e.action} replica {e.replica_id} "
            f"(rho={e.utilization:.2f}, active={e.active_after})"
        )


def serve_main(argv: list[str] | None = None) -> int:
    """``llmpq-serve``: replay an arrival trace against a strategy online."""
    p = argparse.ArgumentParser(
        prog="llmpq-serve", description="LLM-PQ online trace replay"
    )
    p.add_argument("--strat-file-name", "--strat_file_name", dest="strategy",
                   required=True, help="strategy JSON from llmpq-algo")
    p.add_argument("--cluster", type=int, default=None,
                   help="paper cluster id to serve on (defaults to plan devices)")
    p.add_argument("--rate", type=float, default=2.0,
                   help="Poisson arrival rate, requests/s")
    p.add_argument("--duration", type=float, default=30.0,
                   help="trace duration, seconds")
    p.add_argument("--trace", choices=["poisson", "bursty", "diurnal", "pareto"],
                   default="poisson",
                   help="arrival process: homogeneous Poisson, periodic "
                        "bursts, a sinusoidal diurnal cycle, or Pareto "
                        "heavy-tailed lengths")
    p.add_argument("--trace-file", default=None,
                   help="replay a saved arrival trace (JSON from "
                        "--save-trace) instead of sampling; --trace/--rate/"
                        "--duration/--seed are ignored")
    p.add_argument("--save-trace", default=None,
                   help="write the sampled trace to this JSON file for "
                        "exact replay via --trace-file")
    p.add_argument("--policy", choices=["continuous", "wave"],
                   default="continuous",
                   help="iteration-level continuous batching, or the "
                        "wave (offline-style gang) baseline")
    p.add_argument("--engine", choices=["analytic", "des"], default="analytic",
                   help="simulator iteration pricing: the closed form, or "
                        "the event-driven flow-shop schedule")
    p.add_argument("--cost-source", choices=["kernels", "model"],
                   default="kernels",
                   help="stage-time source for the simulator path: "
                        "ground-truth roofline kernels, or a latency model "
                        "fitted on the fly (ignored for tiny-* real runtime)")
    p.add_argument("--kv-bits", choices=["auto", "4", "8", "16"], default="auto",
                   help="override every stage's KV-cache bitwidth at serve "
                        "time ('auto' keeps the per-stage values from the "
                        "strategy file)")
    p.add_argument("--seed", type=int, default=0,
                   help="single seed for every stochastic component: trace "
                        "samplers, request token generators, and the fault "
                        "injector")
    p.add_argument("--fault-spec", default=None,
                   help="deterministic fault injection spec for the real "
                        "runtime (tiny-* models), e.g. 'crash:stage=1,at=5'; "
                        "seeded from --seed")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="hard concurrency cap on top of the memory model")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="arrival-time multiplier for real-runtime replay "
                        "(0 = the whole trace arrives at once)")
    p.add_argument("--max-prompt", type=int, default=None,
                   help="clip sampled prompt lengths (default: the plan's s)")
    p.add_argument("--max-gen", type=int, default=None,
                   help="clip sampled generation lengths (default: the plan's n)")
    p.add_argument("--replan-on-drift", action="store_true",
                   help="watch the trace for workload drift and migrate the "
                        "running pipeline to a refitted plan at a token "
                        "boundary, without dropping traffic (continuous "
                        "policy only)")
    p.add_argument("--drift-window", type=float, default=10.0,
                   help="drift-detector observation window, virtual seconds")
    p.add_argument("--drift-threshold", type=float, default=0.5,
                   help="relative deviation from the baseline that counts "
                        "as drift")
    p.add_argument("--drift-hysteresis", type=int, default=2,
                   help="consecutive drifted windows before a re-solve fires")
    p.add_argument("--drift-cooldown", type=float, default=30.0,
                   help="minimum seconds between drift triggers")
    g = p.add_argument_group("fleet", "multi-replica serving")
    g.add_argument("--replicas", type=int, default=1,
                   help="serve through a fleet of this many identical "
                        "replicas of the strategy (1 = one pipeline, "
                        "reported as one)")
    g.add_argument("--router",
                   choices=["round-robin", "least-loaded", "ttft", "prefix"],
                   default="round-robin",
                   help="fleet request-routing policy")
    g.add_argument("--autoscale", action="store_true",
                   help="scale the replica pools up/down from windowed "
                        "utilization (starts with --autoscale-min-active "
                        "replicas active, the rest in idle reserve)")
    g.add_argument("--autoscale-window", type=float, default=10.0,
                   help="utilization window, virtual seconds")
    g.add_argument("--autoscale-high", type=float, default=0.85,
                   help="scale-up utilization threshold")
    g.add_argument("--autoscale-low", type=float, default=0.30,
                   help="scale-down utilization threshold")
    g.add_argument("--autoscale-hysteresis", type=int, default=2,
                   help="consecutive windows beyond a threshold before acting")
    g.add_argument("--autoscale-cooldown", type=float, default=60.0,
                   help="minimum seconds between scale actions per pool")
    g.add_argument("--autoscale-min-active", type=int, default=1,
                   help="replicas active at start and floor for scale-down")
    g.add_argument("--disaggregate", action="store_true",
                   help="split the replicas into prefill/decode pools "
                        "(even ids prefill, odd ids decode; needs "
                        "--replicas >= 2)")
    g.add_argument("--slo-ttft", type=float, default=None,
                   help="TTFT SLO in seconds: report fleet attainment")
    g.add_argument("--slo-tpot", type=float, default=None,
                   help="per-output-token SLO in seconds: report attainment")
    g.add_argument("--fleet-json", default=None,
                   help="write the fleet report (per-replica stats, scale "
                        "events) to this JSON file; one replica writes a "
                        "one-replica report")
    args = p.parse_args(argv)

    bad = _flag_error(
        args,
        positive=(() if args.trace_file else ("--rate", "--duration"))
        + ("--slo-ttft", "--slo-tpot"),
        nonneg=("--time-scale",),
        counts=("--max-prompt", "--max-gen", "--autoscale-min-active"),
    ) or _output_error("--fleet-json", args.fleet_json) or (
        _output_error("--save-trace", args.save_trace)
    )
    if bad:
        return _fail(bad)
    if args.replan_on_drift and args.policy != "continuous":
        return _fail("--replan-on-drift requires --policy continuous")
    if args.max_inflight is not None and args.max_inflight <= 0:
        return _fail("--max-inflight must be positive")
    drift = None
    if args.replan_on_drift:
        from .runtime.replan import DriftConfig

        try:
            drift = DriftConfig(
                window=args.drift_window,
                threshold=args.drift_threshold,
                hysteresis=args.drift_hysteresis,
                cooldown=args.drift_cooldown,
            )
        except ValueError as e:
            return _fail(f"invalid drift settings: {e}")
    fleet_mode = args.replicas > 1 or args.autoscale
    if args.replicas < 1:
        return _fail("--replicas must be >= 1")
    if args.disaggregate and args.replicas < 2:
        return _fail("--disaggregate needs --replicas >= 2")
    if fleet_mode and args.policy != "continuous":
        return _fail("fleet serving requires --policy continuous")
    if args.autoscale and args.autoscale_min_active > args.replicas:
        return _fail("--autoscale-min-active cannot exceed --replicas")
    autoscaler = active = None
    if args.autoscale:
        from .fleet import AutoscaleConfig, FleetAutoscaler

        try:
            autoscaler = FleetAutoscaler(AutoscaleConfig(
                window=args.autoscale_window,
                high=args.autoscale_high,
                low=args.autoscale_low,
                hysteresis=args.autoscale_hysteresis,
                cooldown=args.autoscale_cooldown,
                min_active=args.autoscale_min_active,
            ))
        except ValueError as e:
            return _fail(f"invalid autoscale settings: {e}")
        active = list(range(args.autoscale_min_active))
    plan = _load_plan(args.strategy)
    if args.kv_bits != "auto":
        plan = plan.with_kv_bits(int(args.kv_bits))
    cfg = get_model(plan.model_name)
    max_prompt = args.max_prompt or plan.workload.prompt_len
    max_gen = args.max_gen or plan.workload.gen_len
    from .fleet import RuntimeReplica, SimReplica, serve_fleet

    pools = _fleet_pool_labels(args.replicas, args.disaggregate)

    if plan.model_name.startswith("tiny-"):
        # real execution: each replica's scheduler over its own runtime
        from .models.transformer import TinyDecoderLM
        from .runtime.faults import FaultInjector
        from .runtime.replan import workload_refit_replanner
        from .runtime.scheduler import requests_from_arrivals

        arrivals = _sample_trace(args, max_prompt, max_gen)
        if not arrivals:
            return _fail("trace is empty — raise --rate or --duration")
        if args.trace_file:  # a replayed trace brings its own lengths
            k = int(np.argmax(arrivals.prompt_lens + arrivals.gen_lens))
            max_prompt, max_gen = arrivals.prompt_lens[k], arrivals.gen_lens[k]
        try:
            cfg.check_positions(int(max_prompt), int(max_gen))
        except ValueError as e:
            return _fail(str(e))
        work = requests_from_arrivals(arrivals, cfg.vocab_size, seed=args.seed)
        ref = TinyDecoderLM(cfg, seed=args.seed)
        try:
            injectors = [
                FaultInjector.from_spec(args.fault_spec, seed=args.seed + i)
                if args.fault_spec else None
                for i in range(args.replicas)
            ]
        except ValueError as e:
            return _fail(f"invalid --fault-spec: {e}")
        reps = [
            RuntimeReplica(
                i, ref, plan, pool=pools[i], policy=args.policy,
                max_inflight=args.max_inflight, time_scale=args.time_scale,
                drift=drift,
                replanner=workload_refit_replanner if drift else None,
                fault_injector=injectors[i],
            )
            for i in range(args.replicas)
        ]
    else:
        # simulated execution for big models
        try:
            cluster = _serving_cluster(args, plan)
        except ValueError as e:
            return _fail(str(e))
        work = _sample_trace(args, max_prompt, max_gen)
        if not work:
            return _fail("trace is empty — raise --rate or --duration")
        latency_model = None
        if args.cost_source == "model":
            from .cost.profiler import build_latency_model

            latency_model = build_latency_model(
                sorted({d.type_name for d in cluster.devices}), cfg
            )
        replanner = None
        if drift is not None:
            from .runtime.replan import make_search_replanner

            replanner = make_search_replanner(cluster, latency_model=latency_model)
        reps = [
            SimReplica(
                i, plan, cluster, pool=pools[i], policy=args.policy,
                max_batch=args.max_inflight, engine=args.engine,
                source=args.cost_source, latency_model=latency_model,
                drift=drift, replanner=replanner,
            )
            for i in range(args.replicas)
        ]

    try:
        freport = serve_fleet(
            reps, work, router=args.router, autoscaler=autoscaler,
            active=active, slo_ttft=args.slo_ttft, slo_tpot=args.slo_tpot,
        )
    except RuntimeError as e:
        return _fail(f"serving failed: {e}", code=3)

    res = freport.replica_results[0]
    if args.fleet_json:  # every replay, one replica included
        with open(args.fleet_json, "w") as f:
            json.dump(freport.to_json(), f, indent=2)
    if fleet_mode:
        _emit_fleet(freport)
    elif res.online is not None:
        print(res.online.summary())
    else:
        report, st = res.report, reps[0].runtime_stats
        print(
            f"[{report.policy}] {len(report.completed)} completed, "
            f"{len(report.rejected)} rejected in {report.makespan:.2f}s | "
            f"{report.throughput_tokens_per_s:.1f} tok/s"
        )
        print(_latency_line(report))
        print(_fused_decode_line(st))
        print(_kv_slab_line(st))
        if args.replan_on_drift or report.migrations or report.crash_recoveries:
            print(
                f"reconfig: {report.drift_triggers} drift triggers, "
                f"{report.migrations} migrations ({report.replans} replans), "
                f"{report.crash_recoveries} crash recoveries; quiesce "
                f"{report.quiesce_seconds:.3f}s, {report.replayed_tokens} "
                f"tokens replayed ({report.replay_divergences} divergences)"
            )
        if st.retries or st.replans:
            print(_recovery_line(st))
    return 0 if freport.completed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(algo_main())

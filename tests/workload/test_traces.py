"""Unit tests for the ShareGPT-like prompt trace."""

import numpy as np
import pytest

from repro.workload import sample_sharegpt_like, workloads_from_trace


def test_trace_shape_and_determinism():
    a = sample_sharegpt_like(1000, seed=0)
    b = sample_sharegpt_like(1000, seed=0)
    assert a.size == 1000
    np.testing.assert_array_equal(a.prompt_lens, b.prompt_lens)


def test_substantial_short_fraction():
    """Sec. 2.1's observation: a large share of prompts are short."""
    tr = sample_sharegpt_like(10_000, seed=1)
    assert 0.3 < tr.fraction_short(128) < 0.6


def test_long_tail_capped():
    tr = sample_sharegpt_like(10_000, seed=2, max_prompt=2048)
    assert tr.prompt_lens.max() <= 2048
    assert tr.prompt_lens.min() >= 1
    # heavy tail: some prompts exceed 1024
    assert (tr.prompt_lens > 1024).sum() > 0


def test_workloads_from_trace_buckets():
    tr = sample_sharegpt_like(5000, seed=3)
    ws = workloads_from_trace(tr, batch=16)
    assert ws
    pads = [w.prompt_len for w in ws]
    assert pads == sorted(pads)
    assert all(w.global_batch == 16 for w in ws)
    assert all(w.gen_len >= 1 for w in ws)


def test_mismatched_arrays_rejected():
    from repro.workload import PromptTrace

    with pytest.raises(ValueError):
        PromptTrace(prompt_lens=np.zeros(3), gen_lens=np.zeros(4))


# ---------------------------------------------------------------------------
# Timed Poisson arrivals (online serving)
# ---------------------------------------------------------------------------


def test_poisson_arrivals_shape_and_bounds():
    from repro.workload import RequestArrival, sample_poisson_arrivals

    arr = sample_poisson_arrivals(rate=2.0, duration=100.0, seed=1)
    assert 120 < len(arr) < 280  # ~200 expected
    times = np.array([r.arrival for r in arr])
    assert np.all(np.diff(times) > 0)
    assert all(isinstance(r, RequestArrival) for r in arr)
    assert all(4 <= r.prompt_len <= 512 for r in arr)
    assert all(4 <= r.gen_len <= 128 for r in arr)


def test_poisson_arrivals_deterministic_and_mixed_lengths():
    from repro.workload import sample_poisson_arrivals

    a = sample_poisson_arrivals(3.0, 50.0, seed=7)
    b = sample_poisson_arrivals(3.0, 50.0, seed=7)
    assert [(r.arrival, r.prompt_len, r.gen_len) for r in a] == [
        (r.arrival, r.prompt_len, r.gen_len) for r in b
    ]
    lens = np.array([r.prompt_len for r in a])
    # the mix must contain both short (<128) and long prompts
    assert (lens < 128).any() and (lens >= 128).any()


def test_poisson_arrivals_caps_and_validation():
    from repro.workload import RequestArrival, sample_poisson_arrivals

    arr = sample_poisson_arrivals(5.0, 40.0, seed=3, max_prompt=64, max_gen=16)
    assert all(r.prompt_len <= 64 and r.gen_len <= 16 for r in arr)
    with pytest.raises(ValueError):
        sample_poisson_arrivals(rate=0.0, duration=10.0)
    with pytest.raises(ValueError):
        sample_poisson_arrivals(rate=1.0, duration=0.0)
    with pytest.raises(ValueError):
        RequestArrival(arrival=-1.0, prompt_len=8, gen_len=4)
    with pytest.raises(ValueError):
        RequestArrival(arrival=0.0, prompt_len=0, gen_len=4)
    with pytest.raises(ValueError):
        RequestArrival(arrival=0.0, prompt_len=8, gen_len=0)


# ---------------------------------------------------------------------------
# Drift-exercising arrival processes (bursty / diurnal / Pareto)
# ---------------------------------------------------------------------------


def test_bursty_arrivals_deterministic_and_bursty():
    from repro.workload import sample_bursty_arrivals

    a = sample_bursty_arrivals(1.0, 300.0, seed=4, burst_duration=5.0,
                               burst_period=30.0)
    b = sample_bursty_arrivals(1.0, 300.0, seed=4, burst_duration=5.0,
                               burst_period=30.0)
    assert [(r.arrival, r.prompt_len, r.gen_len) for r in a] == [
        (r.arrival, r.prompt_len, r.gen_len) for r in b
    ]
    times = np.array([r.arrival for r in a])
    assert np.all(np.diff(times) > 0)
    # arrivals inside the 5s burst windows run at ~8x the base rate
    in_burst = (times % 30.0) < 5.0
    burst_rate = in_burst.sum() / (300.0 / 30.0 * 5.0)
    base_rate = (~in_burst).sum() / (300.0 / 30.0 * 25.0)
    assert burst_rate > 3.0 * base_rate
    with pytest.raises(ValueError):
        sample_bursty_arrivals(0.0, 10.0)
    with pytest.raises(ValueError):
        sample_bursty_arrivals(1.0, 10.0, burst_duration=30.0, burst_period=30.0)
    with pytest.raises(ValueError):
        sample_bursty_arrivals(2.0, 10.0, burst_rate=1.0)


def test_diurnal_arrivals_follow_the_cycle():
    from repro.workload import sample_diurnal_arrivals

    a = sample_diurnal_arrivals(2.0, 240.0, seed=5, amplitude=0.9, period=120.0)
    b = sample_diurnal_arrivals(2.0, 240.0, seed=5, amplitude=0.9, period=120.0)
    assert [(r.arrival, r.prompt_len) for r in a] == [
        (r.arrival, r.prompt_len) for r in b
    ]
    times = np.array([r.arrival for r in a])
    assert np.all(np.diff(times) > 0)
    # the rising half of the sine carries more arrivals than the falling
    phase = times % 120.0
    day = (phase < 60.0).sum()
    night = (phase >= 60.0).sum()
    assert day > 1.5 * night
    with pytest.raises(ValueError):
        sample_diurnal_arrivals(2.0, 10.0, amplitude=1.0)
    with pytest.raises(ValueError):
        sample_diurnal_arrivals(0.0, 10.0)


def test_pareto_arrivals_heavy_tail():
    from repro.workload import sample_pareto_arrivals

    a = sample_pareto_arrivals(3.0, 200.0, seed=6, shape=1.2)
    b = sample_pareto_arrivals(3.0, 200.0, seed=6, shape=1.2)
    assert [(r.arrival, r.prompt_len, r.gen_len) for r in a] == [
        (r.arrival, r.prompt_len, r.gen_len) for r in b
    ]
    lens = np.array([r.prompt_len for r in a])
    assert lens.min() >= 16 and lens.max() <= 2048
    # heavy tail: the max dwarfs the median, and some prompts blow past 8x
    assert lens.max() > 8 * np.median(lens)
    assert all(r.gen_len >= 4 and r.gen_len <= 512 for r in a)
    with pytest.raises(ValueError):
        sample_pareto_arrivals(1.0, 10.0, shape=0.0)


def test_concat_arrival_phases_offsets_clocks():
    from repro.workload import (
        concat_arrival_phases,
        sample_pareto_arrivals,
        sample_poisson_arrivals,
    )

    calm = sample_poisson_arrivals(1.0, 60.0, seed=1)
    heavy = sample_pareto_arrivals(4.0, 60.0, seed=2)
    trace = concat_arrival_phases([calm, heavy])
    assert len(trace) == len(calm) + len(heavy)
    times = np.array([r.arrival for r in trace])
    assert np.all(np.diff(times) >= 0)  # monotone across the phase seam
    # the second phase really starts after the first ends
    assert trace[len(calm)].arrival > calm[-1].arrival


def test_malformed_traces_are_value_errors(tmp_path):
    """One validation site: a record list, raw columns and a saved file
    all refuse non-finite arrivals and lengths that are not positive
    integers, naming the column — never a KeyError, never a silent
    truncation of 8.7 to 8."""
    import json

    from repro.workload import ArrivalTrace, RequestArrival
    from repro.workload.traces import load_trace, save_trace

    good = dict(arrivals=[0.0, 1.0], prompt_lens=[8, 8], gen_lens=[4, 4])
    whole = ArrivalTrace(**{**good, "prompt_lens": np.array([8.0, 9.0])})
    assert whole.prompt_lens.dtype == np.int64 and whole.prompt_lens[1] == 9
    for column, value in (
        ("arrivals", [0.0, float("nan")]), ("arrivals", [-1.0, 0.0]),
        ("prompt_lens", [8.7, 8]), ("prompt_lens", [0, 8]),
        ("gen_lens", [4, -1]), ("gen_lens", [4, float("nan")]),
    ):
        with pytest.raises(ValueError, match=column):
            ArrivalTrace(**{**good, column: np.array(value)})
    with pytest.raises(ValueError, match="arrival"):
        ArrivalTrace.from_requests(
            [RequestArrival(0.0, 8, 4), RequestArrival(float("inf"), 8, 4)]
        )

    path = tmp_path / "trace.json"
    save_trace(ArrivalTrace(**good), path)
    assert len(load_trace(path)) == 2
    for payload, column in (
        ({k: v for k, v in good.items() if k != "prompt_lens"}, "prompt_lens"),
        ({k: v for k, v in good.items() if k != "gen_lens"}, "gen_lens"),
        ({**good, "prompt_lens": [8.7, 8]}, "prompt_lens"),
        ({**good, "gen_lens": [4, None]}, "malformed"),
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=column):
            load_trace(path)


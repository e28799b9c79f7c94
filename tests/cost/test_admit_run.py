"""``admit_run`` against the per-request admission loops it replaced.

The runtime scheduler used to pop its queue one request at a time; the
trace engine admitted with prefix-sum searches.  Both now call
:func:`repro.cost.stagecosts.admit_run`, so this file pins it against the
plain loops, written over lists: FIFO head-of-line admission within the
free token slots and in-flight cap, rejection of heads that never fit
only into an empty system, and the wave's padded prefix.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.stagecosts import admit_run


def _continuous_loop(spr, sgen, ptr, arrived, held, b, budget, cap):
    """Pop arrived heads while they fit; an unfit head is rejected only
    when nothing is in flight and nothing was admitted yet."""
    k, newly, rejected = ptr, 0, 0
    while k < arrived and b + newly < cap:
        need = spr[k] + sgen[k]
        if held + need > budget:
            if b == 0 and newly == 0:
                rejected += 1
                k += 1
                continue
            break
        held += need
        newly += 1
        k += 1
    return ptr + rejected, ptr + rejected + newly


def _wave_loop(spr, sgen, ptr, arrived, b, budget, cap):
    """Into an empty system only: reject the unfit heads, then admit the
    members while ``count x (s_max + n_max)`` stays within the budget."""
    if b:
        return ptr, ptr
    r = ptr
    while r < arrived and spr[r] + sgen[r] > budget:
        r += 1
    n = s_max = n_max = 0
    for k in range(r, min(arrived, r + cap)):
        s_max, n_max = max(s_max, spr[k]), max(n_max, sgen[k])
        if (n + 1) * (s_max + n_max) > budget:
            break
        n += 1
    return r, r + n


@st.composite
def _queues(draw):
    n = draw(st.integers(0, 12))
    spr = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
    sgen = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
    ptr = draw(st.integers(0, n))
    arrived = draw(st.integers(ptr, n))
    cap = draw(st.integers(1, 8))
    b = draw(st.integers(0, cap))
    # every in-flight request holds at least 2 slots; none held when empty
    held = draw(st.integers(2 * b, 120)) if b else 0
    budget = draw(st.integers(0, 120))
    return spr, sgen, ptr, arrived, held, b, budget, cap


@settings(max_examples=400, deadline=None)
@given(q=_queues(), wave=st.booleans())
def test_admit_run_equals_the_per_request_loop(q, wave):
    spr, sgen, ptr, arrived, held, b, budget, cap = q
    s, g = np.array(spr, dtype=np.int64), np.array(sgen, dtype=np.int64)
    cumq = np.concatenate(((0,), np.cumsum(s + g)))
    got = admit_run(
        cumq, s, g, ptr, arrived,
        held=held, b=b, budget=budget, cap=cap, wave=wave,
    )
    if wave:
        want = _wave_loop(spr, sgen, ptr, arrived, b, budget, cap)
    else:
        want = _continuous_loop(spr, sgen, ptr, arrived, held, b, budget, cap)
    assert got == want

"""Tests of the benchmark's own arithmetic: the tail-percentile rule and span self times.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from measure import MIN_BEYOND, YARDSTICK_REF_S, local_scales, tail_percentile, time_yardstick, yardstick  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402


@pytest.mark.parametrize("n", [20, 21, 99, 100, 101, 199, 200, 999, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]  # unsorted on purpose
    p, value, beyond = tail_percentile(samples)
    assert beyond == MIN_BEYOND == 10
    assert value == float(n - 10)  # rank n - 10 in the sorted samples
    assert p == pytest.approx(100 * (n - 10) / n)
    assert sum(1 for x in samples if x > value) == beyond


@pytest.mark.parametrize("n", [1000, 1001, 12345, 28000])
def test_tail_stops_at_the_99th_percentile(n):
    p, value, beyond = tail_percentile(range(1, n + 1))
    assert value == math.ceil(0.99 * n)
    assert beyond == n - value >= MIN_BEYOND
    assert 99.0 <= p < 99.1


def test_tail_percentile_for_five_hundred_samples():
    p, value, beyond = tail_percentile(range(1, 501))
    assert (p, value, beyond) == (98.0, 490, 10)


@pytest.mark.parametrize("samples, expected", [([5.0, 1.0, 3.0], (3.0, 1)), ([float(x) for x in range(19)], (9.0, 9))])
def test_tail_with_too_few_samples_falls_back_to_the_median(samples, expected):
    p, value, beyond = tail_percentile(samples)
    assert (value, beyond) == expected
    assert beyond < MIN_BEYOND


def test_local_scale_is_the_reference_over_the_median_of_nearby_samples():
    r = YARDSTICK_REF_S
    samples = [r, r, r, 2 * r, 2 * r, 2 * r, 2 * r]
    # width 1: position p takes samples p - 1 and p
    assert local_scales([0, 1, 4, 7], samples, 1) == pytest.approx([1.0, 1.0, 0.5, 0.5])
    # width 3 around position 3 (samples 0..5): median of r, r, r, 2r, 2r, 2r is 1.5 r
    assert local_scales([3], samples, 3) == pytest.approx([1 / 1.5])


def test_yardstick_does_fixed_work():
    assert yardstick() == yardstick()
    samples = [0.5]
    time_yardstick(samples, 3)
    assert len(samples) == 4 and all(t > 0 for t in samples)


def _span(sid, start, end, parent=-1, excluded=0.0, thread=1, name=0):
    return (sid, name, start, end, parent, 0, thread, excluded, None)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; a's wrapper
    # bookkeeping for its children (0.5 s) is excluded from a.
    names = ["a", "b", "c", "d"]
    spans = [
        _span(3, 6.0, 7.0, parent=2, name=3),
        _span(1, 1.0, 4.0, parent=0, name=1),
        _span(2, 5.0, 9.0, parent=0, excluded=0.25, name=2),
        _span(0, 0.0, 10.0, excluded=0.5, name=0),
    ]
    ix = SpanIndex(names, spans)
    assert ix.self_time == {0: 2.5, 1: 3.0, 2: 2.75, 3: 1.0}
    assert ix.self_ms("a", "b", "c", "d") == pytest.approx(1000 * (10.0 - 0.75))
    assert ix.busy_ms("c", "d") == pytest.approx(4000.0)  # d lies inside c
    assert list(ix.ancestors(3)) == ["c", "a"]


def test_self_time_of_spans_on_two_threads():
    # Two threads each run a [0, 10] holding b [2, 8] at the same time; a
    # child only covers its own thread's parent.
    names = ["a", "b"]
    spans = [
        _span(0, 0.0, 10.0, thread=1, name=0),
        _span(1, 0.0, 10.0, thread=2, name=0),
        _span(2, 2.0, 8.0, parent=0, thread=1, name=1),
        _span(3, 2.0, 8.0, parent=1, thread=2, name=1),
    ]
    assert SpanIndex(names, spans).self_time == {0: 4.0, 1: 4.0, 2: 6.0, 3: 6.0}


def test_worker_spans_cover_the_op_thread_span_that_waits_for_them():
    # The op thread runs op [0, 10] holding cmd [1, 9]; two pool threads run
    # trials [2, 5] and [3, 8] for the same op.  cmd waits from 2 to 8.
    names = ["bench.op", "cmd", "trial"]
    spans = [
        (0, 0, 0.0, 10.0, -1, 7, 1, 0.0, None),
        (1, 1, 1.0, 9.0, 0, 7, 1, 0.0, None),
        (2, 2, 2.0, 5.0, -1, 7, 2, 0.0, None),
        (3, 2, 3.0, 8.0, -1, 7, 3, 0.0, None),
    ]
    ix = SpanIndex(names, spans)
    assert ix.self_time == {0: 2.0, 1: 2.0, 2: 3.0, 3: 5.0}
    assert [ix.parent_named(s) for s in ix.spans("trial")] == ["cmd", "cmd"]


def test_tracer_keeps_a_span_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=10)
        time.sleep(0.05)

    traced_inner = tracer.wrap(inner, "t.inner")
    outer = tracer.wrap(lambda: traced_inner(), "t.outer")
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s[0]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if tracer.names[s[1]] == "t.inner"]
    assert len(inners) == 2
    for s in inners:
        assert by_id[s[4]][6] == s[6]  # the parent ran on the same thread
    ix = SpanIndex(tracer.names, tracer.spans)
    for s in tracer.spans:
        own = ix.self_time[s[0]]
        assert own >= 0.05 if tracer.names[s[1]] == "t.inner" else 0 <= own < 0.04


def test_generator_yields_are_counted_under_their_consumer():
    tracer = Tracer()
    branches = tracer.wrap_generator(lambda n: iter(range(n)), "g.branch")
    consume = tracer.wrap(lambda: next(x for x in branches(5) if x == 2), "g.consumer")
    assert consume() == 2
    ix = SpanIndex(tracer.names, tracer.spans)
    events = ix.spans("g.branch")
    assert len(events) == 3
    assert {ix.parent_named(s) for s in events} == {"g.consumer"}


def test_missing_boundary_is_reported_absent():
    tracer = Tracer()
    lib = SimpleNamespace(cli=SimpleNamespace(), feasibility=SimpleNamespace())
    tracer.install(lib)
    assert "cli.main" in tracer.absent
    assert "feasibility.sector_branches" in tracer.absent
    tracer.uninstall()

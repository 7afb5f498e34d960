"""Busy-time bookkeeping of the call wrappers."""

import threading
import time
import types

import pytest

from layers import CallTimer, span_seconds


def _namespace():
    ns = types.SimpleNamespace()

    def work(seconds, rows):
        time.sleep(seconds)
        return rows

    def outer(seconds):
        return ns.work(seconds, 7)

    ns.work = work
    ns.outer = outer
    return ns


def test_busy_time_sums_over_two_threads():
    ns = _namespace()
    original = ns.work
    timer = CallTimer()
    timer.wrap(ns, "work", "w", units=lambda args, kwargs, result: result)
    barrier = threading.Barrier(2)

    def call():
        barrier.wait(timeout=5)
        ns.work(0.2, 3)

    threads = [threading.Thread(target=call, name=f"ingest-worker-{i}")
               for i in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    wall = time.perf_counter() - start
    stat = timer.stat("w")
    assert stat.calls == 2
    assert stat.units == 6
    assert set(stat.by_thread) == {"ingest-worker-0", "ingest-worker-1"}
    # Two threads busy at once: busy time is about twice the wall time.
    assert stat.busy_s >= 0.39
    assert wall < stat.busy_s
    assert timer.busy("w", worker=True) == pytest.approx(stat.busy_s)
    assert timer.busy("w", worker=False) == 0.0
    timer.uninstall()
    assert ns.work is original


def test_calls_inside_a_skipped_wrapper_are_not_counted():
    ns = _namespace()
    timer = CallTimer()
    timer.wrap(ns, "outer", "outer")
    timer.wrap(ns, "work", "work", skip_inside=("outer",))
    ns.outer(0.0)
    ns.work(0.0, 1)
    assert timer.stat("outer").calls == 1
    assert timer.stat("work").calls == 1      # only the direct call
    timer.uninstall()


def test_failed_calls_are_timed_and_reraised():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    timer = CallTimer()
    timer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert timer.stat("boom").calls == 1
    timer.uninstall()


def test_classmethods_stay_classmethods():
    class Store:
        @classmethod
        def build(cls, rows):
            return cls, len(rows)

    timer = CallTimer()
    timer.wrap(Store, "build", "build",
               units=lambda args, kwargs, result: len(args[1]))
    assert Store.build([1, 2, 3]) == (Store, 3)
    assert timer.stat("build").units == 3
    timer.uninstall()
    assert isinstance(vars(Store)["build"], classmethod)


def test_span_seconds_finds_nested_spans():
    spans = {"detect": {"wall_seconds": 5.0, "children": {
        "iteration": {"wall_seconds": 4.0, "children": {
            "fine_tune": {"wall_seconds": 3.0},
            "vote": {"wall_seconds": 0.5}}},
        "vote_fuse": {"wall_seconds": 0.25}}}}
    assert span_seconds(spans, ("fine_tune",)) == 3.0
    assert span_seconds(spans, ("vote", "vote_fuse")) == 0.75
    assert span_seconds(spans, ("missing",)) == 0.0

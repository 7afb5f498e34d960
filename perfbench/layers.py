"""Per-layer timing of the traced run, taken from outside the program.

:class:`CallTimer` replaces a public function at the name its caller
resolves (a module global such as ``repro.core.detector.fit_epoch``, or
a class attribute such as ``Classifier.predict_view``) with a wrapper
that counts calls, busy seconds and work units, then puts the original
back.  Busy seconds are summed over threads, so two workers busy for
one wall second report two; the traced run reports its wall time
apart (``obs.timed_wall_s``).

:func:`layer_metrics` turns the timer's tallies, plus the spans and
counters :mod:`repro.obs` already emits, into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``units(args, kwargs, result) -> int``: work done by one call.
UnitsFn = Callable[[tuple, dict, Any], int]
#: ``on_call(args, kwargs, start, end)``: runs after each timed call.
OnCallFn = Callable[[tuple, dict, float, float], None]

#: Threads of the ingestion worker pool (``IngestPipeline`` names them).
WORKER_PREFIX = "ingest-worker"


@dataclass
class CallStat:
    """Tally of one wrapped call site (or a group sharing a key)."""

    calls: int = 0
    busy_s: float = 0.0
    units: int = 0
    by_thread: Dict[str, float] = field(default_factory=dict)


class CallTimer:
    """Install timing wrappers; tallies are safe to update from threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: Dict[str, CallStat] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, key: str, elapsed: float, units: int) -> None:
        thread = threading.current_thread().name
        with self._lock:
            stat = self.stats.setdefault(key, CallStat())
            stat.calls += 1
            stat.busy_s += elapsed
            stat.units += units
            stat.by_thread[thread] = stat.by_thread.get(thread, 0.0) + elapsed

    def stat(self, key: str) -> CallStat:
        with self._lock:
            return self.stats.get(key, CallStat())

    def busy(self, *keys: str, worker: Optional[bool] = None) -> float:
        """Busy seconds of ``keys``; ``worker`` keeps only worker-pool
        threads (True) or only the others (False)."""
        total = 0.0
        with self._lock:
            for key in keys:
                stat = self.stats.get(key)
                if stat is None:
                    continue
                for thread, seconds in stat.by_thread.items():
                    if (worker is None
                            or thread.startswith(WORKER_PREFIX) == worker):
                        total += seconds
        return total

    def wrap(self, owner: Any, attr: str, key: str,
             units: Optional[UnitsFn] = None,
             skip_inside: Tuple[str, ...] = (),
             on_call: Optional[OnCallFn] = None) -> None:
        """Time every call of ``owner.attr`` under ``key``.

        Calls made while a wrapper whose key is in ``skip_inside`` is
        active on the same thread are passed through untimed (a shard
        add inside a shard build is part of the build).
        """
        raw = vars(owner)[attr]
        binder: Optional[type] = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
            func = raw.__func__
        timer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = timer._stack()
            if skip_inside and any(k in stack for k in skip_inside):
                return func(*args, **kwargs)
            stack.append(key)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stack.pop()
                timer._record(key, time.perf_counter() - start, 0)
                raise
            end = time.perf_counter()
            stack.pop()
            timer._record(key, end - start,
                          units(args, kwargs, result) if units else 0)
            if on_call is not None:
                on_call(args, kwargs, start, end)
            return result

        setattr(owner, attr, binder(wrapper) if binder else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


def _len_arg(position: int) -> UnitsFn:
    """Units = ``len`` of the positional argument at ``position``."""
    return lambda args, kwargs, result: len(args[position])


def _saved_bytes(args: tuple, kwargs: dict, manifest_path: str) -> int:
    """Bytes of a shard checkpoint: its manifest plus every file named."""
    directory = os.path.dirname(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    files = [entry["file"] for entry in manifest["shards"]]
    files.append(manifest["order_file"])
    return os.path.getsize(manifest_path) + sum(
        os.path.getsize(os.path.join(directory, name)) for name in files)


class QueueWait:
    """Time from admission to a worker starting detection, per arrival."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._admitted: Dict[str, float] = {}
        self.seconds = 0.0

    def admitted(self, args: tuple, kwargs: dict, start: float,
                 end: float) -> None:
        with self._lock:
            self._admitted[args[1].name] = end

    def started(self, args: tuple, kwargs: dict, start: float,
                end: float) -> None:
        if not threading.current_thread().name.startswith(WORKER_PREFIX):
            return
        with self._lock:
            admitted = self._admitted.pop(args[2].name, None)
            if admitted is not None:
                self.seconds += start - admitted


def install(timer: CallTimer, queue_wait: QueueWait) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    from repro.core import detector, enld, update
    from repro.datalake import ingest, platform, shards, updater
    from repro.index import classindex
    from repro.nn import models

    wrap = timer.wrap
    ENLD = enld.ENLD
    Platform = platform.NoisyLabelPlatform
    Index = classindex.ClassFeatureIndex
    Shards = shards.ShardedInventory

    # repro.nn
    wrap(models.Classifier, "predict_view", "nn.forward", _len_arg(1))
    wrap(models.Classifier, "predict", "nn.forward", _len_arg(1))
    wrap(detector, "fit_epoch", "nn.finetune",
         lambda args, kwargs, result: int(result[1]))
    wrap(enld, "fit", "nn.train")
    wrap(update, "fit", "nn.train")
    # repro.index
    wrap(Index, "__init__", "index.build", _len_arg(1))
    wrap(Index, "add", "index.build", _len_arg(1))
    wrap(Index, "query", "index.query", lambda args, kwargs, result: 1)
    wrap(Index, "query_batch", "index.query", _len_arg(1))
    # repro.core
    wrap(ENLD, "detect", "core.detect")
    wrap(ENLD, "detect_stateless", "core.detect")
    wrap(ENLD, "initialize", "core.initialize")
    wrap(ENLD, "install_update", "core.install_update")
    wrap(ENLD, "commit_detection", "core.commit")
    wrap(enld, "estimate_conditional", "core.estimate_conditional")
    wrap(update, "estimate_conditional", "core.estimate_conditional")
    wrap(enld, "model_update", "core.model_update")
    wrap(updater, "model_update", "core.model_update")
    # repro.datalake
    wrap(Shards, "from_dataset", "datalake.shards.build", _len_arg(1))
    wrap(Shards, "add", "datalake.shards.add", _len_arg(1),
         skip_inside=("datalake.shards.build",))
    wrap(Shards, "as_dataset", "datalake.shards.view")
    wrap(Shards, "class_subset", "datalake.shards.view")
    wrap(Shards, "save", "datalake.shards.save", _saved_bytes)
    wrap(Platform, "checkpoint", "datalake.platform.checkpoint")
    wrap(platform, "append_journal", "datalake.persistence.journal")
    wrap(updater.ModelUpdateService, "run_sync", "datalake.updater.refresh")
    wrap(Platform, "admit_arrival", "datalake.platform.admit",
         on_call=queue_wait.admitted)
    wrap(Platform, "commit_detection", "datalake.platform.commit")
    wrap(Platform, "absorb_arrival", "datalake.platform.absorb")
    wrap(Platform, "journal_report", "datalake.platform.journal_report")
    wrap(Platform, "poll_updates", "datalake.platform.poll")
    wrap(Platform, "similar_clean", "datalake.platform.similar_clean")
    wrap(ingest, "detect_resilient_stateless", "datalake.ingest.detect",
         on_call=queue_wait.started)


@contextmanager
def traced() -> Iterator[Tuple[CallTimer, QueueWait, Any]]:
    """Install the wrappers and an ambient :class:`repro.obs.Tracer`."""
    from repro.obs import Tracer, use_tracer

    timer, queue_wait, tracer = CallTimer(), QueueWait(), Tracer()
    install(timer, queue_wait)
    try:
        with use_tracer(tracer):
            yield timer, queue_wait, tracer
    finally:
        timer.uninstall()


#: Stage spans ``ENLD`` opens inside ``detect``, by per-layer metric.
STAGE_SPANS = {
    "core.initial_views_s": ("initial_views",),
    "core.contrastive_sampling_s": ("contrastive_sampling",),
    "core.warmup_s": ("warmup",),
    "core.fine_tune_s": ("fine_tune",),
    "core.vote_s": ("vote", "vote_fuse"),
    "core.recompute_views_s": ("recompute_views",),
    "core.resample_s": ("resample",),
}

#: Owner-thread platform calls of the ingestion pipeline.
OWNER_KEYS = ("datalake.platform.admit", "datalake.platform.commit",
              "datalake.platform.absorb", "datalake.platform.journal_report",
              "datalake.platform.poll", "core.commit")


def span_seconds(spans: Dict[str, dict], names: Tuple[str, ...]) -> float:
    """Wall seconds of every span named in ``names``, anywhere in the
    tree (the tracer already sums them over threads)."""
    total = 0.0
    for name, node in spans.items():
        if name in names:
            total += float(node.get("wall_seconds", 0.0))
        total += span_seconds(node.get("children", {}), names)
    return total


def layer_metrics(timer: CallTimer, queue_wait: QueueWait, trace: dict,
                  pipeline: bool, traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    counters = trace.get("counters", {})
    gauges = trace.get("metrics", {})
    spans = trace.get("spans", {})
    s = timer.stat
    out: Dict[str, Tuple[float, str]] = {
        "nn.forward_rows": (s("nn.forward").units, "rows"),
        "nn.forward_s": (s("nn.forward").busy_s, "s"),
        "nn.finetune_samples": (s("nn.finetune").units, "samples"),
        "nn.finetune_s": (s("nn.finetune").busy_s, "s"),
        "nn.train_s": (s("nn.train").busy_s, "s"),
        "nn.featurecache_hits": (counters.get("featurecache.hits", 0),
                                 "count"),
        "nn.featurecache_misses": (counters.get("featurecache.misses", 0),
                                   "count"),
        "index.builds": (s("index.build").calls, "count"),
        "index.build_rows": (s("index.build").units, "rows"),
        "index.build_s": (s("index.build").busy_s, "s"),
        "index.queries": (s("index.query").units, "count"),
        "index.query_s": (s("index.query").busy_s, "s"),
        "core.detect_s": (s("core.detect").busy_s, "s"),
    }
    for metric, names in STAGE_SPANS.items():
        out[metric] = (span_seconds(spans, names), "s")
    out.update({
        "core.initialize_s": (s("core.initialize").busy_s, "s"),
        "core.estimate_conditional_s": (
            s("core.estimate_conditional").busy_s, "s"),
        "core.model_update_s": (s("core.model_update").busy_s, "s"),
        "core.install_update_s": (s("core.install_update").busy_s, "s"),
        "datalake.shards.build_s": (s("datalake.shards.build").busy_s, "s"),
        "datalake.shards.add_rows": (s("datalake.shards.add").units, "rows"),
        "datalake.shards.add_s": (s("datalake.shards.add").busy_s, "s"),
        "datalake.shards.view_s": (s("datalake.shards.view").busy_s, "s"),
        "datalake.shards.save_s": (s("datalake.shards.save").busy_s, "s"),
        "datalake.shards.save_bytes": (s("datalake.shards.save").units,
                                       "bytes"),
        "datalake.platform.checkpoint_s": (
            s("datalake.platform.checkpoint").busy_s, "s"),
        "datalake.persistence.journal_appends": (
            s("datalake.persistence.journal").calls, "count"),
        "datalake.persistence.journal_s": (
            s("datalake.persistence.journal").busy_s, "s"),
        "datalake.updater.refreshes": (
            s("datalake.updater.refresh").calls, "count"),
        "datalake.updater.refresh_s": (
            s("datalake.updater.refresh").busy_s, "s"),
        "datalake.platform.admit_s": (
            s("datalake.platform.admit").busy_s, "s"),
        "datalake.platform.commit_s": (
            s("datalake.platform.commit").busy_s, "s"),
        "datalake.platform.similar_clean_s": (
            s("datalake.platform.similar_clean").busy_s, "s"),
    })
    depth = gauges.get("ingest.queue_depth", {})
    out.update({
        "datalake.ingest.worker_busy_s": (
            timer.busy("datalake.ingest.detect", worker=True), "s"),
        "datalake.ingest.owner_busy_s": (
            timer.busy(*OWNER_KEYS) if pipeline else 0.0, "s"),
        "datalake.ingest.queue_wait_s": (queue_wait.seconds, "s"),
        "datalake.ingest.max_queue_depth": (
            depth.get("max", 0) if depth.get("count") else 0, "count"),
        "datalake.ingest.epoch_redetects": (
            counters.get("ingest.epoch_redetect", 0), "count"),
        "obs.timed_wall_s": (traced_wall_s, "s"),
        "obs.trace_overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    })
    return out

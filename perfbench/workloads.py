"""The three closed-loop workloads, driven through the platform's API.

Each workload is one caller.  ``paper_stream`` and ``update_churn``
hand arrivals to ``NoisyLabelPlatform.submit`` one at a time;
``lake_ingest`` hands its single stream to an ``IngestPipeline`` whose
backpressure keeps ``QUEUE_CAPACITY`` arrivals in flight.  Verdicts are
a function of the seed alone: model refreshes run ``inline``, there is
no simulated fetch latency, and every detection RNG is keyed on
``(ENLD_SEED, dataset name)`` or comes from the platform's seeded
generator.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Program worker threads of lake_ingest.  One, not one per core: the
#: autograd's gradient table (``repro.nn.tensor.Tensor._active``) is a
#: class attribute shared by every thread, so two workers fine-tuning at
#: once corrupt each other's backward pass.  Their detections then raise
#: and are retried under another RNG, or train on wrong gradients, and
#: the verdicts change from run to run.  With one worker, detection
#: still overlaps the owner thread's admission, commits and shard growth.
WORKERS = 1
#: Arrivals lake_ingest keeps in flight (admitted, not yet committed):
#: the one being detected and the next, queued so the worker never
#: waits on the owner thread's commit.
QUEUE_CAPACITY = 2
#: update_churn: refresh θ after this many arrivals (EveryNArrivals);
#: the arrival that triggers a refresh also checkpoints the platform and
#: saves the shards.  Every third arrival of 40 gives 13 such arrivals,
#: more than the 10 beyond the tail percentile, so ``arrival_tail_s``
#: falls among them and ``arrival_p50_s`` among the plain arrivals.
REFRESH_EVERY = 3
#: update_churn: similar_clean queries per arrival, and their k.
QUERIES_PER_ARRIVAL = 3
QUERY_K = 3
#: Shard buckets per class of the sharded inventories.
BUCKETS_PER_CLASS = 4


#: ENLD's own seed (inventory split, model initialisation, detection
#: RNG base).  Fixed, like the inventory, so every run starts from the
#: same general model; arrival names carry the run's seed into each
#: arrival's detection RNG.
ENLD_SEED = 7


def enld_config(workload: str, scale: str) -> object:
    """The ENLD configuration of a workload."""
    from repro.core.config import ENLDConfig

    if workload == "paper_stream":
        # The paper's detection settings (§V-A6): t=5, s=5, k=3, two
        # warm-up epochs, on the tiny residual network.
        return ENLDConfig(model_name="tinyresnet", iterations=5,
                          steps_per_iteration=5, contrastive_k=3,
                          warmup_epochs=2,
                          init_epochs=15 if scale == "full" else 10,
                          seed=ENLD_SEED)
    # The throughput configuration of the ingest_storm experiment:
    # detection is bound by forward passes over the class-subset pool.
    fraction = 0.02 if workload == "lake_ingest" else 0.5
    return ENLDConfig(model_name="mlp", model_kwargs={"hidden": 48},
                      init_epochs=2, iterations=1, steps_per_iteration=1,
                      warmup_epochs=0, contrastive_k=1,
                      inventory_train_fraction=fraction,
                      seed=ENLD_SEED)


@dataclass
class Ops:
    """Attempted and failed operations, by kind."""

    counts: Dict[str, List[int]] = field(default_factory=dict)

    def add(self, kind: str, failed: bool = False) -> None:
        entry = self.counts.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += int(failed)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


@dataclass
class Timed:
    """What one timed phase produced."""

    latencies: List[float]
    reports: Dict[str, object]
    wall_s: float
    cpu_s: float
    ops: Ops
    absorbed: List[object] = field(default_factory=list)
    refreshes: int = 0


class Workload:
    """Set-up and timed phase of one workload over loaded inputs."""

    def __init__(self, name: str, scale: str, seed: int, inputs: object,
                 workdir: str, ingest_mode: str = "thread") -> None:
        self.name = name
        self.ingest_mode = ingest_mode
        self.seed = seed
        self.inputs = inputs
        self.workdir = workdir
        self.config = enld_config(name, scale)
        self.sharded: Optional[object] = None

    # ------------------------------------------------------------------
    def setup(self, tag: str) -> object:
        """Build the platform from the in-memory inventory."""
        from repro.core.scheduler import EveryNArrivals
        from repro.datalake.platform import NoisyLabelPlatform
        from repro.datalake.shards import ShardedInventory
        from repro.datalake.updater import UpdaterConfig

        inventory = self.inputs.inventory
        classes = self.inputs.num_classes
        if self.name == "paper_stream":
            self.sharded = None
            return NoisyLabelPlatform(inventory, config=self.config,
                                      num_classes=classes)
        self.sharded = ShardedInventory.from_dataset(
            inventory, num_classes=classes,
            buckets_per_class=BUCKETS_PER_CLASS)
        if self.name == "lake_ingest":
            return NoisyLabelPlatform(self.sharded, config=self.config,
                                      num_classes=classes)
        return NoisyLabelPlatform(
            self.sharded, config=self.config, num_classes=classes,
            scheduler=EveryNArrivals(REFRESH_EVERY),
            journal_path=os.path.join(self.workdir, tag, "journal.jsonl"),
            updater=UpdaterConfig(mode="inline"))

    def run(self, platform: object, tag: str) -> Timed:
        """The timed phase: every arrival once, in order."""
        if self.name == "lake_ingest":
            return self._run_pipeline(platform)
        return self._run_serial(platform, tag)

    # ------------------------------------------------------------------
    def _run_serial(self, platform: object, tag: str) -> Timed:
        churn = self.name == "update_churn"
        ckpt_dir = os.path.join(self.workdir, tag, "checkpoint")
        shard_dir = os.path.join(self.workdir, tag, "shards")
        ops = Ops()
        latencies: List[float] = []
        reports: Dict[str, object] = {}
        absorbed: List[object] = []
        refreshes = 0
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for i, dataset in enumerate(self.inputs.arrivals, start=1):
            start = time.perf_counter()
            try:
                report = platform.submit(dataset)
            except Exception:  # noqa: BLE001 — a raised arrival fails
                traceback.print_exc()
                ops.add("arrival", failed=True)
                latencies.append(time.perf_counter() - start)
                continue
            ops.add("arrival", failed=not report.ok)
            reports[dataset.name] = report
            if churn:
                due = i % REFRESH_EVERY == 0
                if due:
                    ops.add("refresh", failed=not report.updated_model)
                refreshes += int(report.updated_model)
                if report.ok:
                    clean = dataset.mask(report.result.clean_mask,
                                         name=f"{dataset.name}/clean")
                    platform.absorb_arrival(clean)
                    absorbed.append(clean)
                if due:
                    self._persist(platform, ckpt_dir, shard_dir, ops)
            latencies.append(time.perf_counter() - start)
            if churn:
                for row in range(min(QUERIES_PER_ARRIVAL, len(dataset))):
                    try:
                        platform.similar_clean(dataset.x[row],
                                               int(dataset.y[row]),
                                               k=QUERY_K)
                        ops.add("similar_clean")
                    except Exception:  # noqa: BLE001
                        traceback.print_exc()
                        ops.add("similar_clean", failed=True)
        wall = time.perf_counter() - wall0
        return Timed(latencies, reports, wall, time.process_time() - cpu0,
                     ops, absorbed, refreshes)

    def _persist(self, platform: object, ckpt_dir: str, shard_dir: str,
                 ops: Ops) -> None:
        for kind, call, directory in (
                ("checkpoint", platform.checkpoint, ckpt_dir),
                ("shard_save", self.sharded.save, shard_dir)):
            try:
                call(directory)
                ops.add(kind)
            except Exception:  # noqa: BLE001
                traceback.print_exc()
                ops.add(kind, failed=True)

    def _run_pipeline(self, platform: object) -> Timed:
        from repro.datalake.ingest import IngestConfig, IngestPipeline

        admitted: Dict[str, float] = {}
        committed: Dict[str, float] = {}
        admit, journal = platform.admit_arrival, platform.journal_report

        # Per-arrival latency: handed to the platform (admission on the
        # pipeline's owner thread) to its committed, journaled report.
        def timed_admit(dataset: object) -> object:
            admitted[dataset.name] = time.perf_counter()
            return admit(dataset)

        def timed_journal(dataset: object, report: object) -> None:
            journal(dataset, report)
            committed[dataset.name] = time.perf_counter()

        platform.admit_arrival = timed_admit
        platform.journal_report = timed_journal
        pipeline = IngestPipeline(platform, IngestConfig(
            mode=self.ingest_mode, workers=WORKERS,
            queue_capacity=QUEUE_CAPACITY,
            absorb=True))
        ops = Ops()
        arrivals = self.inputs.arrivals
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            storm = pipeline.run([list(arrivals)])
            reports = dict(storm.reports)
        except Exception:  # noqa: BLE001 — the rest of the storm fails
            traceback.print_exc()
            reports = {}
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            del platform.admit_arrival, platform.journal_report
        latencies = []
        absorbed = []
        for dataset in arrivals:
            report = reports.get(dataset.name)
            ok = (report is not None and report.ok
                  and dataset.name in committed)
            ops.add("arrival", failed=not ok)
            if report is not None and dataset.name in committed:
                latencies.append(committed[dataset.name]
                                 - admitted[dataset.name])
            if ok:
                absorbed.append(dataset.mask(report.result.clean_mask))
        return Timed(latencies, reports, wall, cpu, ops, absorbed)


def query_rows(arrivals: List[object], seed: int, count: int = 4
               ) -> List[tuple]:
    """``(x, label)`` of a few arrival rows, chosen by the seed."""
    rng = np.random.default_rng([seed, 5])
    rows = []
    for index in rng.choice(len(arrivals), size=count, replace=False):
        dataset = arrivals[int(index)]
        row = int(rng.integers(len(dataset)))
        rows.append((dataset.x[row], int(dataset.y[row])))
    return rows

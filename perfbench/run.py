#!/usr/bin/env python3
"""ENLD benchmark: one workload, one run, one JSON line of results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_stream --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the timed phase once untraced and once with the
per-layer call wrappers and a ``repro.obs`` tracer installed, and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it say what ran, on what, and what each check found.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller asks otherwise: the program's own
# workers are the concurrency under test, and a second OpenBLAS thread
# doubles set-up CPU here without lowering wall time (README).  Must
# precede the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("paper_stream", "lake_ingest", "update_churn")
#: Platform set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Arrivals per second, near what every workload sustains on the
#: reference box (2 cores); a run submits ``--seconds`` worth, and never
#: fewer than the 40 a tail percentile needs.
ARRIVALS_PER_SECOND = 2.0
#: Limit on the world generator's process.
GENERATE_TIMEOUT_S = 150


def arrivals_for(seconds: float) -> int:
    from stats import MIN_TAIL_SAMPLES

    return max(MIN_TAIL_SAMPLES, math.ceil(seconds * ARRIVALS_PER_SECOND))


def blas_threads() -> str:
    """OpenBLAS's live thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            try:
                fn = getattr(lib, name)
            except AttributeError:
                continue
            fn.restype = ctypes.c_int
            return str(fn())
    return ("unknown (OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS')})")


def host_steal_s() -> float:
    """CPU seconds the hypervisor gave to other guests, all cores, since
    boot (``steal`` in ``/proc/stat``); NaN where the kernel has none."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def describe_host(args: argparse.Namespace, arrivals: int) -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (f"perfbench workload={args.workload} seed={args.seed} "
            f"scale={args.scale} trace={args.trace} arrivals={arrivals} "
            f"cores={os.cpu_count()} numpy={np.__version__} "
            f"blas={blas.get('name', '?')}-{blas.get('version', '?')} "
            f"blas_threads={blas_threads()}")


def generate(args: argparse.Namespace, arrivals: int, workdir: str):
    """Build the world in a child process and load it here."""
    import worlds

    path = os.path.join(workdir, "inputs.npz")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worlds.py"),
         "--workload", args.workload, "--scale", args.scale,
         "--seed", str(args.seed), "--arrivals", str(arrivals),
         "--out", path],
        check=True, timeout=GENERATE_TIMEOUT_S)
    inputs = worlds.load(path)
    os.remove(path)
    return inputs


def run_checks(workload, platform, timed) -> Tuple[float, float, List[str]]:
    """Every correctness check; returns ``(noisy_f1, precision, errors)``."""
    import checks
    from stats import MIN_TAIL_SAMPLES

    inputs = workload.inputs
    arrivals = inputs.arrivals
    errors = checks.check_masks(arrivals, timed.reports)
    f1, more = checks.noisy_f1(arrivals, timed.reports)
    errors += more
    precision, more = checks.clean_inventory_precision(platform,
                                                       inputs.inventory)
    errors += more
    if len(timed.latencies) < MIN_TAIL_SAMPLES:
        errors.append(f"only {len(timed.latencies)} arrival latencies")
    rng = np.random.default_rng([workload.seed, 4])
    if workload.name == "paper_stream":
        default = checks.default_detector_f1(platform.enld.model, arrivals)
        print(f"check paper_stream: ENLD F1 {f1:.4f} vs Default F1 "
              f"{default:.4f}")
        if f1 < default:
            errors.append(f"ENLD F1 {f1:.4f} is below the Default "
                          f"detector's {default:.4f}")
    elif workload.name == "lake_ingest":
        picked = [arrivals[int(i)] for i in
                  rng.choice(len(arrivals), size=3, replace=False)]
        errors += checks.check_replay(platform, picked, timed.reports)
        classes = sorted(set(int(c) for c in np.unique(picked[0].y)))
        errors += checks.check_shards(workload.sharded, inputs.inventory,
                                      timed.absorbed, classes)
    else:
        errors += check_churn(workload, platform, timed)
    return f1, precision, errors


def check_churn(workload, platform, timed) -> List[str]:
    import checks
    from repro.datalake.platform import NoisyLabelPlatform
    from repro.datalake.shards import ShardedInventory
    from repro.datalake.updater import UpdaterConfig
    from workloads import QUERY_K, query_rows

    errors = checks.check_versions(platform, timed.refreshes)
    final = os.path.join(workload.workdir, "final")
    ckpt_dir = os.path.join(final, "checkpoint")
    shard_dir = os.path.join(final, "shards")
    platform.checkpoint(ckpt_dir)
    workload.sharded.save(shard_dir)
    loaded = ShardedInventory.load(shard_dir)
    errors += checks.check_same_dataset(
        loaded.as_dataset(), workload.sharded.as_dataset(),
        "ShardedInventory.load")
    errors += checks.check_similar_clean(
        platform, query_rows(workload.inputs.arrivals, workload.seed),
        QUERY_K)
    committed = [d for d in workload.inputs.arrivals
                 if d.name in timed.reports]
    resumed = NoisyLabelPlatform.resume(
        ckpt_dir, loaded, arrivals=committed,
        updater=UpdaterConfig(mode="inline"))
    holdout = workload.inputs.holdout
    errors += checks.check_same_verdict(
        resumed.submit(holdout), platform.submit(holdout),
        "resume from the last checkpoint")
    return errors


def end_to_end(setups: List[float], timed, peak_rss_mb: float, f1: float,
               precision: float) -> Dict[str, Tuple[float, str]]:
    from stats import tail_value

    committed = sum(1 for r in timed.reports.values() if r.ok)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "arrival_p50_s": (statistics.median(timed.latencies), "s"),
        "arrival_tail_s": (tail_value(timed.latencies), "s"),
        "datasets_per_s": (committed / timed.wall_s, "1/s"),
        "cpu_s_per_arrival": (timed.cpu_s / len(timed.latencies), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "noisy_f1": (f1, "frac"),
        "clean_inventory_precision": (precision, "frac"),
    }


def measure(args: argparse.Namespace, workdir: str) -> dict:
    import checks
    from layers import layer_metrics, traced
    from stats import MIN_TAIL_SAMPLES, tail_rank
    from workloads import Workload

    arrivals = arrivals_for(args.seconds)
    inputs = generate(args, arrivals, workdir)
    print(describe_host(args, arrivals))
    label_sets = {tuple(np.unique(d.y)) for d in inputs.arrivals}
    print(f"world: {len(inputs.inventory)} inventory rows, "
          f"{inputs.num_classes} classes, arrivals of "
          f"{min(map(len, inputs.arrivals))}-"
          f"{max(map(len, inputs.arrivals))} rows, "
          f"{len(label_sets)} distinct label sets")
    workload = Workload(args.workload, args.scale, args.seed, inputs,
                        workdir, ingest_mode=args.ingest_mode)
    errors: List[str] = []
    if not args.trace:
        setups, setup_cpu = [], []
        platform = None
        for i in range(SETUPS):
            platform = workload.sharded = None
            gc.collect()
            cpu = time.process_time()
            start = time.perf_counter()
            platform = workload.setup(f"setup{i}")
            setups.append(time.perf_counter() - start)
            setup_cpu.append(time.process_time() - cpu)
        print("setup s: " + " ".join(f"{v:.3f}" for v in setups)
              + "; CPU s: " + " ".join(f"{v:.3f}" for v in setup_cpu))
        steal = host_steal_s()
        timed = workload.run(platform, "timed")
        # Time the host took from this VM's cores: it explains a slow run
        # that the program did not cause.
        print(f"host steal during the timed phase: "
              f"{host_steal_s() - steal:.2f} s over all cores")
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        f1, precision, errors = run_checks(workload, platform, timed)
        metrics = end_to_end(setups, timed, peak_rss_mb, f1, precision)
    else:
        # One untraced pass, then the traced pass on a fresh platform: the
        # overhead is the difference of their timed phases, and both must
        # reach the same verdicts.
        untraced = workload.run(workload.setup("untraced"), "untraced")
        workload.sharded = None
        gc.collect()
        with traced() as (timer, queue_wait, tracer):
            platform = workload.setup("traced")
            timed = workload.run(platform, "traced")
        _, _, errors = run_checks(workload, platform, timed)
        if (checks.verdict_digest(inputs.arrivals, timed.reports)
                != checks.verdict_digest(inputs.arrivals, untraced.reports)):
            changed = checks.changed_verdicts(
                inputs.arrivals, untraced.reports, timed.reports)
            errors.append(f"the traced pass's verdicts differ from the "
                          f"untraced pass's on {', '.join(changed)}")
        metrics = layer_metrics(
            timer, queue_wait, tracer.to_dict(),
            pipeline=args.workload == "lake_ingest",
            traced_wall_s=timed.wall_s, untraced_wall_s=untraced.wall_s)
    _, percentile = tail_rank(max(len(timed.latencies), MIN_TAIL_SAMPLES))
    print(f"timed phase: {len(timed.latencies)} arrivals in "
          f"{timed.wall_s:.3f} s wall, {timed.cpu_s:.3f} s CPU; tail = "
          f"p{percentile:.0f}; verdict digest "
          f"{checks.verdict_digest(inputs.arrivals, timed.reports)}")
    lat = np.sort(timed.latencies)
    print("arrival latency s: " + " ".join(f"{v:.3f}" for v in lat))
    for kind, (attempted, failed) in sorted(timed.ops.counts.items()):
        print(f"ops {kind}: attempted={attempted} failed={failed}")
    # A retried detection raised once and was judged again under another
    # RNG; it is not a failure, but no workload here should need one.
    retried = sorted(name for name, report in timed.reports.items()
                     if report.retries)
    print(f"arrivals retried: {len(retried)}"
          + (f" ({', '.join(retried)})" if retried else ""))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    return {
        "correct": not errors,
        "attempted": timed.ops.attempted,
        "failed": timed.ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the seconds-long world of the tests")
    parser.add_argument("--ingest-mode", choices=("thread", "serial"),
                        default="thread",
                        help="lake_ingest pipeline mode; serial is the "
                             "single-threaded reference")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

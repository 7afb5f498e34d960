"""Summary statistics of the benchmark: latency percentiles and scores.

Pure numpy/stdlib, no program imports, so the benchmark's own tests can
check these rules in isolation.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Fewer samples than this and there is no tail to speak of (the median
#: would already be within ``TAIL_BEYOND`` of the maximum).
MIN_TAIL_SAMPLES = 4 * TAIL_BEYOND


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Tuple[int, float]:
    """0-based rank and percentile of the tail statistic for ``n`` samples.

    The tail is the highest order statistic with at least ``beyond``
    samples above it: the ``(n - beyond)``-th smallest value, i.e. the
    ``100 * (n - beyond) / n`` percentile.  With 40 samples that is the
    30th smallest (p75), with 100 the 90th smallest (p90).
    """
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"{n} samples cannot carry a tail with {beyond} beyond it "
            f"(need at least {MIN_TAIL_SAMPLES})")
    rank = n - beyond - 1
    return rank, 100.0 * (n - beyond) / n


def tail_value(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> float:
    """The tail statistic of :func:`tail_rank` over ``samples``."""
    values = np.sort(np.asarray(samples, dtype=float))
    rank, _ = tail_rank(len(values), beyond)
    return float(values[rank])


def micro_f1(flagged: np.ndarray, truth: np.ndarray) -> float:
    """F1 of the flagged rows against the true-noisy rows, pooled.

    ``flagged`` and ``truth`` are boolean masks over the same rows
    (every arrival's rows concatenated, so this is the micro average).
    Returns 0 when neither mask flags anything.
    """
    flagged = np.asarray(flagged, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if flagged.shape != truth.shape:
        raise ValueError(f"mask shapes differ: {flagged.shape} vs "
                         f"{truth.shape}")
    hits = int(np.count_nonzero(flagged & truth))
    denom = int(np.count_nonzero(flagged)) + int(np.count_nonzero(truth))
    return 2.0 * hits / denom if denom else 0.0


def label_precision(observed: np.ndarray, true: np.ndarray) -> float:
    """Share of rows whose observed label equals the true label."""
    observed = np.asarray(observed)
    true = np.asarray(true)
    if observed.shape != true.shape:
        raise ValueError(f"label shapes differ: {observed.shape} vs "
                         f"{true.shape}")
    if observed.size == 0:
        return 0.0
    return float(np.count_nonzero(observed == true)) / observed.size

"""The tail-percentile rule, micro-F1 and label precision."""

import numpy as np
import pytest

from stats import (MIN_TAIL_SAMPLES, label_precision, micro_f1, tail_rank,
                   tail_value)


def test_tail_leaves_exactly_ten_samples_beyond():
    assert tail_rank(40) == (29, 75.0)
    assert tail_rank(100) == (89, 90.0)
    values = np.arange(1.0, 41.0)[::-1]          # 40..1, unsorted order
    tail = tail_value(values)
    assert tail == 30.0
    assert int((values > tail).sum()) == 10


def test_tail_needs_forty_samples():
    assert MIN_TAIL_SAMPLES == 40
    with pytest.raises(ValueError):
        tail_rank(39)


def test_micro_f1_on_hand_built_masks():
    truth = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
    flagged = np.array([1, 1, 0, 0, 1, 0, 0, 0], dtype=bool)
    # 2 hits, 3 flagged, 4 truly noisy: P = 2/3, R = 1/2, F1 = 4/7.
    assert micro_f1(flagged, truth) == pytest.approx(4 / 7)
    assert micro_f1(truth, truth) == 1.0
    assert micro_f1(~truth, truth) == 0.0
    assert micro_f1(np.zeros(4, bool), np.zeros(4, bool)) == 0.0
    with pytest.raises(ValueError):
        micro_f1(flagged[:3], truth)


def test_micro_f1_pools_rows_rather_than_averaging_arrivals():
    # Arrival A: 1 of 1 noisy row found; arrival B: 0 of 3 found.
    flagged = np.array([1, 0, 0, 0], dtype=bool)
    truth = np.array([1, 1, 1, 1], dtype=bool)
    assert micro_f1(flagged, truth) == pytest.approx(2 / 5)


def test_label_precision():
    observed = np.array([3, 1, 2, 2])
    true = np.array([3, 1, 0, 2])
    assert label_precision(observed, true) == 0.75
    assert label_precision(np.array([], int), np.array([], int)) == 0.0

"""Naming the arrivals whose verdicts changed between two passes."""

from types import SimpleNamespace

import numpy as np

from checks import changed_verdicts


def report(clean, retries=0):
    clean = np.array(clean, dtype=bool)
    result = SimpleNamespace(clean_mask=clean, noisy_mask=~clean,
                             inventory_clean_positions=np.array([3, 1]),
                             pseudo_labels=np.full(len(clean), -1))
    return SimpleNamespace(result=result, retries=retries)


def test_changed_verdicts_names_each_changed_arrival_with_retries():
    arrivals = [SimpleNamespace(name=n) for n in ("a", "b", "c", "d")]
    first = {"a": report([1, 0]), "b": report([1, 1]), "c": report([0, 0])}
    second = {"a": report([1, 0]), "b": report([1, 0], retries=1),
              "d": report([0, 1])}
    assert changed_verdicts(arrivals, first, second) == [
        "b (retries 0/1)", "c (retries 0/-)", "d (retries -/0)"]
    assert changed_verdicts(arrivals, first, first) == []

"""Seeded inputs of the three workloads.

Run as a script, this builds one workload's world in its own process
and writes it to an ``.npz`` file, so the benchmark process that runs
the platform never holds the generator's temporaries (its peak RSS is
the platform's, not the generator's)::

    python3 perfbench/worlds.py --workload lake_ingest --seed 3 \\
        --arrivals 40 --out inputs.npz

The same ``(workload, scale, seed, arrivals)`` always gives the same
bytes.  Every world is a synthetic dataset from ``repro.datasets``: an
inventory and a stream shape fixed across seeds, and arrivals of a few
classes each drawn from disjoint rows (:func:`plan_arrivals`).  The inventory and every
arrival get pair-asymmetric label noise.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np


#: The synthetic data, the inventory (its rows and its label noise) and
#: the stream's shape (each arrival's classes and rows per class) are
#: the same for every run; ``--seed`` draws which rows of each class
#: arrive and their label noise.  Runs then differ in the samples the
#: lake receives, not in how easy the classes they stress are.
DATA_SEED = 0


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one workload's inputs."""

    preset: str               # repro.datasets preset the data comes from
    num_classes: int
    inventory: int            # inventory rows
    arrival_rows: int         # rows per arrival (split by Dirichlet)
    classes_per_arrival: int
    noise_rate: float = 0.3   # pair-asymmetric flip rate
    holdout: bool = False     # one extra arrival kept out of the stream
    dirichlet: Optional[float] = None  # class split; None splits evenly


#: ``(workload, scale) -> WorldSpec``.  ``full`` is what the benchmark
#: measures; ``tiny`` is the seconds-long world of the smoke tests.
WORLDS: Dict[Tuple[str, str], WorldSpec] = {
    ("paper_stream", "full"): WorldSpec(
        "cifar100_like", 100, inventory=6_000, arrival_rows=60,
        classes_per_arrival=10, dirichlet=0.6),
    ("lake_ingest", "full"): WorldSpec(
        "toy", 64, inventory=1_050_000, arrival_rows=150,
        classes_per_arrival=2),
    ("update_churn", "full"): WorldSpec(
        "toy", 8, inventory=200_000, arrival_rows=150,
        classes_per_arrival=2, holdout=True),
    ("paper_stream", "tiny"): WorldSpec(
        "cifar100_like", 20, inventory=800, arrival_rows=12,
        classes_per_arrival=4, dirichlet=0.6),
    ("lake_ingest", "tiny"): WorldSpec(
        "toy", 8, inventory=4_000, arrival_rows=20,
        classes_per_arrival=2),
    ("update_churn", "tiny"): WorldSpec(
        "toy", 8, inventory=3_000, arrival_rows=20,
        classes_per_arrival=2, holdout=True),
}


@dataclass
class Inputs:
    """A loaded world: the inventory plus the arrivals, in order."""

    inventory: "object"                 # repro.nn.data.LabeledDataset
    arrivals: List["object"]
    holdout: Optional["object"]
    num_classes: int


def plan_arrivals(spec: WorldSpec, count: int, rng: np.random.Generator
                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(classes, rows per class)`` of every arrival.

    An arrival takes ``classes_per_arrival`` distinct classes among the
    least used so far (ties broken at random, so every class appears in
    at most ``ceil(count * k / num_classes)`` arrivals) and splits its
    ``arrival_rows`` over them, evenly or with Dirichlet weights
    (unbalanced) and at least one row per class.  The total is fixed so
    that per-arrival cost varies with the classes and the noise drawn,
    not with length.
    """
    k = spec.classes_per_arrival
    usage = np.zeros(spec.num_classes)
    plan = []
    for _ in range(count):
        order = np.argsort(usage + rng.random(spec.num_classes),
                           kind="stable")
        classes = np.sort(order[:k])
        usage[classes] += 1
        if spec.dirichlet is None:
            rows = np.full(k, spec.arrival_rows // k)
            rows[:spec.arrival_rows % k] += 1
        else:
            rows = 1 + rng.multinomial(
                spec.arrival_rows - k,
                rng.dirichlet(np.full(k, spec.dirichlet)))
        plan.append((classes, rows))
    return plan


def build(workload: str, scale: str, seed: int, arrivals: int
          ) -> Dict[str, np.ndarray]:
    """Generate one world as plain arrays (see :func:`load`)."""
    from repro.datasets import generate, get_preset
    from repro.noise import corrupt_labels, pair_asymmetric

    spec = WORLDS[(workload, scale)]
    count = arrivals + int(spec.holdout)
    classes = spec.num_classes
    # Rows per class: an inventory share plus the most any class can
    # give to the arrivals, so the data do not depend on the seed.
    inventory_share = -(-spec.inventory // classes)
    arrival_share = (-(-count * spec.classes_per_arrival // classes)
                     * spec.arrival_rows)
    data = generate(replace(get_preset(spec.preset), num_classes=classes,
                            samples_per_class=inventory_share
                            + arrival_share), seed=DATA_SEED)
    fixed = np.random.default_rng([DATA_SEED, 1])
    by_class = [fixed.permutation(np.nonzero(data.y == c)[0])
                for c in range(classes)]
    transition = pair_asymmetric(classes, spec.noise_rate)
    candidates = np.concatenate([rows[:inventory_share]
                                 for rows in by_class])
    inventory = corrupt_labels(
        data.subset(np.sort(fixed.choice(candidates, size=spec.inventory,
                                         replace=False))),
        transition, fixed)

    plan = plan_arrivals(spec, count, np.random.default_rng([DATA_SEED, 2]))
    rng = np.random.default_rng([seed, 1])
    supply = [rng.permutation(rows[inventory_share:]) for rows in by_class]
    taken = np.zeros(classes, dtype=np.int64)
    parts = []
    for i, (chosen, rows) in enumerate(plan):
        picked = []
        for c, n in zip(chosen, rows):
            picked.append(supply[c][taken[c]:taken[c] + n])
            taken[c] += n
        parts.append(corrupt_labels(
            data.subset(np.sort(np.concatenate(picked))),
            transition, np.random.default_rng([seed, 3, i])))
    return {
        "num_classes": np.asarray(spec.num_classes),
        "holdout": np.asarray(spec.holdout),
        "inventory_x": inventory.x, "inventory_y": inventory.y,
        "inventory_true_y": inventory.true_y, "inventory_ids": inventory.ids,
        "arrival_x": np.concatenate([a.x for a in parts]),
        "arrival_y": np.concatenate([a.y for a in parts]),
        "arrival_true_y": np.concatenate([a.true_y for a in parts]),
        "arrival_ids": np.concatenate([a.ids for a in parts]),
        "arrival_sizes": np.asarray([len(a) for a in parts]),
        "arrival_names": np.asarray(
            [f"{workload}/s{seed}/a{i:03d}" for i in range(len(parts))]),
    }


def load(path: str) -> Inputs:
    """Rebuild the datasets :func:`build` wrote to ``path``."""
    from repro.nn.data import LabeledDataset

    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    inventory = LabeledDataset(
        arrays["inventory_x"], arrays["inventory_y"],
        true_y=arrays["inventory_true_y"], ids=arrays["inventory_ids"],
        name="inventory")
    arrivals = []
    start = 0
    for name, size in zip(arrays["arrival_names"], arrays["arrival_sizes"]):
        rows = slice(start, start + int(size))
        arrivals.append(LabeledDataset(
            arrays["arrival_x"][rows], arrays["arrival_y"][rows],
            true_y=arrays["arrival_true_y"][rows],
            ids=arrays["arrival_ids"][rows], name=str(name)))
        start += int(size)
    holdout = arrivals.pop() if bool(arrays["holdout"]) else None
    return Inputs(inventory, arrivals, holdout,
                  int(arrays["num_classes"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--arrivals", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    arrays = build(args.workload, args.scale, args.seed, args.arrivals)
    np.savez(args.out, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())

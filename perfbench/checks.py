"""Correctness checks of a workload's outputs.

Every check compares the platform's output with an independent
computation (a numpy forward pass of the general model, a brute-force
kNN, a serial replay, a numpy filter) or with a property of the method
(masks partition the labelled rows, the version chain is linked).  None
compares with a stored copy of an earlier run's output.  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from stats import label_precision, micro_f1

MISSING_LABEL = -1


# ----------------------------------------------------------------------
# An independent forward pass of the two model families the workloads use
# ----------------------------------------------------------------------
def _linear(x: np.ndarray, layer: object) -> np.ndarray:
    out = x @ layer.weight.data.T
    return out if layer.bias is None else out + layer.bias.data


def _batchnorm(x: np.ndarray, norm: object) -> np.ndarray:
    scale = np.sqrt(norm.running_var.data + norm.eps)
    return ((x - norm.running_mean.data) / scale * norm.gamma.data
            + norm.beta.data)


def numpy_forward(model: object, x: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``(logits, features)`` of an eval-mode forward, in plain numpy.

    Reads the parameters of ``MLPClassifier`` (two ReLU layers) or
    ``ResNetMLP`` (stem, pre-activation residual blocks, final norm)
    directly, without the program's tensor or layer code.
    """
    h = np.asarray(x, dtype=np.float64)
    h = h.reshape(h.shape[0], -1)
    kind = type(model).__name__
    if kind == "MLPClassifier":
        first, _, second, _ = model.body.layers
        feats = np.maximum(_linear(np.maximum(_linear(h, first), 0.0),
                                   second), 0.0)
    elif kind == "ResNetMLP":
        h = _linear(h, model.stem)
        for block in model.blocks:
            t = h if block.norm1 is None else _batchnorm(h, block.norm1)
            t = _linear(np.maximum(t, 0.0), block.fc1)
            t = t if block.norm2 is None else _batchnorm(t, block.norm2)
            h = h + _linear(np.maximum(t, 0.0), block.fc2)
        if model.final_norm is not None:
            h = _batchnorm(h, model.final_norm)
        feats = np.maximum(h, 0.0)
    else:
        raise TypeError(f"no numpy forward for model {kind}")
    return _linear(feats, model.head), feats


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------
def check_masks(arrivals: Sequence[object], reports: Dict[str, object]
                ) -> List[str]:
    """``clean_mask``/``noisy_mask`` are disjoint and cover exactly the
    labelled rows of every committed arrival."""
    errors = []
    for dataset in arrivals:
        report = reports.get(dataset.name)
        if report is None or report.result is None:
            continue
        clean = report.result.clean_mask
        noisy = report.result.noisy_mask
        labelled = dataset.y != MISSING_LABEL
        if (clean & noisy).any():
            errors.append(f"{dataset.name}: clean and noisy masks overlap")
        if not np.array_equal(clean | noisy, labelled):
            errors.append(f"{dataset.name}: masks do not cover exactly "
                          f"the labelled rows")
    return errors


def pooled_masks(arrivals: Sequence[object], reports: Dict[str, object]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Flagged and truly-noisy masks over every labelled arrival row."""
    flagged, truth = [], []
    for dataset in arrivals:
        report = reports.get(dataset.name)
        labelled = dataset.y != MISSING_LABEL
        noisy = (np.zeros(len(dataset), dtype=bool)
                 if report is None or report.result is None
                 else report.result.noisy_mask)
        flagged.append(noisy[labelled])
        truth.append((dataset.y != dataset.true_y)[labelled])
    return np.concatenate(flagged), np.concatenate(truth)


def noisy_f1(arrivals: Sequence[object], reports: Dict[str, object]
             ) -> Tuple[float, List[str]]:
    """Micro-F1 of the flagged rows, cross-checked with the program's
    own scorer (``repro.eval.metrics.score_masks``)."""
    from repro.eval.metrics import score_masks

    flagged, truth = pooled_masks(arrivals, reports)
    f1 = micro_f1(flagged, truth)
    theirs = score_masks(flagged, truth).f1
    errors = []
    if abs(f1 - theirs) > 1e-12:
        errors.append(f"noisy_f1 {f1!r} disagrees with score_masks "
                      f"{theirs!r}")
    return f1, errors


def clean_inventory_precision(platform: object, inventory: object
                              ) -> Tuple[float, List[str]]:
    """Share of ``catalog.clean_inventory_ids`` whose observed label is
    the true label; every such id must be an inventory id."""
    ids = platform.catalog.clean_inventory_ids
    order = np.argsort(inventory.ids, kind="stable")
    sorted_ids = inventory.ids[order]
    where = np.searchsorted(sorted_ids, ids)
    where = np.minimum(where, len(sorted_ids) - 1)
    found = sorted_ids[where] == ids
    errors = []
    if not found.all():
        errors.append(f"{int((~found).sum())} clean inventory ids are not "
                      f"inventory ids")
    if len(ids) == 0:
        errors.append("no clean inventory ids were accumulated")
    rows = order[where[found]]
    return label_precision(inventory.y[rows], inventory.true_y[rows]), errors


def verdict_digest(arrivals: Sequence[object], reports: Dict[str, object]
                   ) -> str:
    """BLAKE2b over every committed verdict, in arrival order."""
    import hashlib

    digest = hashlib.blake2b(digest_size=12)
    for dataset in arrivals:
        report = reports.get(dataset.name)
        digest.update(dataset.name.encode())
        if report is None or report.result is None:
            digest.update(b"-")
            continue
        result = report.result
        for array in (result.clean_mask, result.noisy_mask,
                      np.sort(np.asarray(result.inventory_clean_positions))):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def changed_verdicts(arrivals: Sequence[object], first: Dict[str, object],
                     second: Dict[str, object]) -> List[str]:
    """Names of the arrivals whose verdicts differ between two passes,
    each with its retry counts in the two passes."""
    changed = []
    for dataset in arrivals:
        a, b = first.get(dataset.name), second.get(dataset.name)
        if a is None or b is None:
            same = a is b
        elif a.result is None or b.result is None:
            same = a.result is b.result
        else:
            same = not check_same_verdict(a, b, dataset.name)
        if not same:
            changed.append(f"{dataset.name} (retries "
                           f"{getattr(a, 'retries', '-')}/"
                           f"{getattr(b, 'retries', '-')})")
    return changed


# ----------------------------------------------------------------------
# paper_stream
# ----------------------------------------------------------------------
def default_detector_f1(model: object, arrivals: Sequence[object]) -> float:
    """F1 of the Default detector, ``argmax θ(x) != ỹ``, pooled."""
    flagged, truth = [], []
    for dataset in arrivals:
        logits, _ = numpy_forward(model, dataset.x)
        flagged.append(logits.argmax(axis=1) != dataset.y)
        truth.append(dataset.y != dataset.true_y)
    return micro_f1(np.concatenate(flagged), np.concatenate(truth))


# ----------------------------------------------------------------------
# lake_ingest
# ----------------------------------------------------------------------
def check_replay(platform: object, arrivals: Sequence[object],
                 reports: Dict[str, object]) -> List[str]:
    """A serial ``detect_stateless`` with the arrival's own RNG gives the
    committed verdict bit for bit."""
    from repro.datalake.ingest import arrival_rng

    errors = []
    seed = platform.enld.config.seed
    for dataset in arrivals:
        committed = reports[dataset.name].result
        replay = platform.enld.detect_stateless(
            dataset, arrival_rng(seed, dataset.name))
        pairs = (("clean_mask", committed.clean_mask, replay.clean_mask),
                 ("noisy_mask", committed.noisy_mask, replay.noisy_mask),
                 ("inventory_clean_positions",
                  committed.inventory_clean_positions,
                  replay.inventory_clean_positions),
                 ("pseudo_labels", committed.pseudo_labels,
                  replay.pseudo_labels))
        for field_name, got, want in pairs:
            if not np.array_equal(got, want):
                errors.append(f"{dataset.name}: serial replay changed "
                              f"{field_name}")
    return errors


def check_shards(sharded: object, inventory: object,
                 absorbed: Sequence[object], classes: Sequence[int]
                 ) -> List[str]:
    """Shard rows are the inventory plus the absorbed rows, and
    ``class_subset(c)`` equals a numpy filter of those rows in order."""
    errors = []
    expected_rows = len(inventory) + sum(len(d) for d in absorbed)
    if len(sharded) != expected_rows:
        errors.append(f"shards hold {len(sharded)} rows, expected "
                      f"{expected_rows} (inventory + absorbed)")
    parts = [inventory, *absorbed]
    for cls in classes:
        got = sharded.class_subset([cls])
        keep = [p.y == cls for p in parts]
        for field_name in ("x", "y", "ids", "true_y"):
            want = np.concatenate([getattr(p, field_name)[k]
                                   for p, k in zip(parts, keep)])
            if not np.array_equal(getattr(got, field_name), want):
                errors.append(f"class_subset([{cls}]).{field_name} differs "
                              f"from a numpy filter of the rows")
    return errors


# ----------------------------------------------------------------------
# update_churn
# ----------------------------------------------------------------------
def check_versions(platform: object, refreshes: int) -> List[str]:
    """One version per refresh on top of setup, each the child of the
    previous one."""
    versions = platform.catalog.versions
    errors = []
    if len(versions) != 1 + refreshes:
        errors.append(f"{len(versions)} model versions after {refreshes} "
                      f"refreshes, expected {1 + refreshes}")
    if versions and versions[0].parent is not None:
        errors.append("the setup version has a parent")
    for prev, cur in zip(versions, versions[1:]):
        if cur.parent != prev.version_id:
            errors.append(f"version {cur.seq} is not a child of version "
                          f"{prev.seq}")
    return errors


def check_same_dataset(got: object, want: object, what: str) -> List[str]:
    errors = []
    for field_name in ("x", "y", "ids", "true_y"):
        if not np.array_equal(getattr(got, field_name),
                              getattr(want, field_name)):
            errors.append(f"{what}: {field_name} differs")
    return errors


def check_same_verdict(got: object, want: object, what: str) -> List[str]:
    if got.result is None or want.result is None:
        return [f"{what}: an arrival was not judged"]
    for field_name in ("clean_mask", "noisy_mask",
                       "inventory_clean_positions", "pseudo_labels"):
        if not np.array_equal(getattr(got.result, field_name),
                              getattr(want.result, field_name)):
            return [f"{what}: {field_name} differs"]
    return []


def check_similar_clean(platform: object, queries: Sequence[object],
                        k: int) -> List[str]:
    """``similar_clean`` returns the ``k`` nearest ``S_c`` rows of the
    query's class, as a brute-force numpy kNN over numpy features finds
    them (ties may swap ids of equal distance)."""
    enld = platform.enld
    positions = enld.clean_positions
    candidates = enld.inventory_candidates
    _, feats = numpy_forward(enld.model, candidates.x[positions])
    labels = candidates.y[positions]
    errors = [] if len(positions) else ["S_c is empty: similar_clean has "
                                        "nothing to return"]
    for x, label in queries:
        dists, ids = platform.similar_clean(x, int(label), k=k)
        _, emb = numpy_forward(enld.model, x[None])
        mine = labels == label
        brute = np.sqrt(((feats[mine] - emb) ** 2).sum(axis=1))
        brute_ids = candidates.ids[positions[mine]]
        want = np.sort(brute)[:k]
        if len(ids) != len(want):
            errors.append(f"similar_clean(label={label}) returned "
                          f"{len(ids)} ids, brute force finds {len(want)}")
            continue
        of_id = dict(zip(brute_ids.tolist(), brute.tolist()))
        returned = np.array([of_id.get(int(i), np.inf) for i in ids])
        if not (np.allclose(returned, want, rtol=1e-9, atol=1e-9)
                and np.allclose(dists, want, rtol=1e-9, atol=1e-9)):
            errors.append(f"similar_clean(label={label}) disagrees with "
                          f"the brute-force kNN")
    return errors

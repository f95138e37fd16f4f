"""Exact-answer gate: one ``dbscan()`` result against ``dbscan_seq``.

``dbscan_seq`` is itself held equal to brute-force DBSCAN by the repository's
tests, so agreeing with it exactly — same core flags, same canonical cluster
sets, one row per input id — is agreeing with DBSCAN.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.validate import canonical_labels


def permuted(
    core: np.ndarray, labels: list[frozenset[int]], perm: np.ndarray
) -> tuple[np.ndarray, list[frozenset[int]]]:
    """The DBSCAN answer for ``points[perm]`` from the answer for ``points``.

    Core flags follow the points; each cluster's canonical label becomes the
    least new id among its core points.
    """
    new_label: dict[int, int] = {}
    for k, i in enumerate(perm):  # ascending k: the first id seen is the least
        if core[i]:
            new_label.setdefault(next(iter(labels[i])), k)
    return core[perm], [frozenset(new_label[c] for c in labels[i]) for i in perm]


def check(result: pd.DataFrame, core_ref: np.ndarray, labels_ref: list[frozenset[int]]) -> list[str]:
    """Return what differs between ``result`` and the reference; empty if equal.

    ``result`` is a collected pipeline result (id, is_core, clusters as
    tuples), as ``repro.core.validate.result_to_pandas`` returns it.
    """
    n = len(core_ref)
    ids = result["id"].to_numpy()
    if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
        dup = int(len(ids) - len(np.unique(ids)))
        return [f"expected one row per id 0..{n - 1}; got {len(ids)} rows, {dup} duplicated"]
    pdf = result.sort_values("id", kind="stable").reset_index(drop=True)

    problems = []
    core = pdf["is_core"].to_numpy(dtype=bool)
    mism = np.flatnonzero(core != core_ref)
    if mism.size:
        problems.append(f"core flags differ at {mism.size} ids, first {mism[:5].tolist()}")
    multi = [int(i) for i, c, cls in zip(pdf["id"], core, pdf["clusters"]) if c and len(cls) != 1]
    if multi:
        problems.append(f"{len(multi)} core points without exactly one label, first {multi[:5]}")
    if problems:
        return problems
    try:
        labels = canonical_labels(pdf)
    except KeyError as e:
        return [f"a point carries label {e} that no core point has"]
    bad = [i for i in range(n) if labels[i] != labels_ref[i]]
    if bad:
        i = bad[0]
        problems.append(
            f"cluster sets differ at {len(bad)} points, first id {i}: "
            f"{sorted(labels[i])} != {sorted(labels_ref[i])}"
        )
    return problems

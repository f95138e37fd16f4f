"""Validation helpers: canonical cluster labels and the approx sandwich check.

``canonical_labels`` converts a pipeline result (internal cell-component
labels) into per-point frozensets keyed by the minimum core-point id of each
cluster — the same canonical form ``reference.dbscan_brute`` emits — so any
two implementations can be compared for *exact* equality of the clustering.

``check_approx_valid`` verifies Gan&Tao's rho-approximate DBSCAN semantics
(§2) without fixing one particular output: core flags must match exact
DBSCAN; any two core points within eps must share a cluster; every approx
cluster's core points must lie inside a single exact cluster at eps(1+rho);
and border assignments must correspond to a core point within eps.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.reference import dbscan_brute


def result_to_pandas(result) -> pd.DataFrame:
    """Collect a pipeline result DataFrame sorted by id."""
    pdf = result.toPandas().sort_values("id").reset_index(drop=True)
    pdf["clusters"] = pdf["clusters"].apply(lambda a: tuple(sorted(a)))
    return pdf


def canonical_labels(pdf: pd.DataFrame) -> list[frozenset[int]]:
    """Map internal cluster labels to min-core-point-id labels.

    ``pdf`` must have columns id, is_core, clusters (tuple). Core points have
    exactly one internal label.
    """
    ids = pdf["id"].to_numpy()
    min_id: dict[int, int] = {}
    for pid, is_core, cls in zip(ids, pdf["is_core"], pdf["clusters"]):
        if is_core:
            assert len(cls) == 1, f"core point {pid} has {len(cls)} labels"
            c = cls[0]
            if c not in min_id or pid < min_id[c]:
                min_id[c] = int(pid)
    out = []
    for pid, cls in zip(ids, pdf["clusters"]):
        out.append(frozenset(min_id[c] for c in cls))
    return out


def assert_same_clustering(result, pts: np.ndarray, eps: float, min_pts: int) -> None:
    """Assert a pipeline result equals brute-force DBSCAN exactly."""
    pdf = result_to_pandas(result)
    assert len(pdf) == len(pts), (len(pdf), len(pts))
    core_ref, labels_ref = dbscan_brute(pts, eps, min_pts)
    got_core = pdf["is_core"].to_numpy()
    mism = np.flatnonzero(got_core != core_ref)
    assert mism.size == 0, f"core flags differ at ids {mism[:10].tolist()}"
    got_labels = canonical_labels(pdf)
    bad = [i for i in range(len(pts)) if got_labels[i] != labels_ref[i]]
    assert not bad, (
        f"cluster labels differ at {len(bad)} points, first: "
        f"{[(i, sorted(got_labels[i]), sorted(labels_ref[i])) for i in bad[:5]]}"
    )


def check_approx_valid(result, pts: np.ndarray, eps: float, min_pts: int, rho: float) -> None:
    """Assert a result satisfies rho-approximate DBSCAN semantics."""
    pdf = result_to_pandas(result)
    n = len(pts)
    assert len(pdf) == n
    core_ref, labels_eps = dbscan_brute(pts, eps, min_pts)
    _, labels_outer = dbscan_brute(pts, eps * (1.0 + rho), min_pts)
    got_core = pdf["is_core"].to_numpy()
    assert (got_core == core_ref).all(), "approx DBSCAN must not change core flags"

    clusters = pdf["clusters"].tolist()
    core_idx = np.flatnonzero(core_ref)
    eps2 = eps * eps
    # (a) core points within eps share an approx cluster.
    cpts = pts[core_idx]
    d2 = ((cpts[:, None, :] - cpts[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(d2 <= eps2)
    for a, b in zip(ii, jj):
        ia, ib = int(core_idx[a]), int(core_idx[b])
        assert clusters[ia] == clusters[ib], (
            f"core points {ia},{ib} within eps but in different approx clusters"
        )
    # (b) every approx cluster's core points lie in ONE exact cluster at
    # eps(1+rho) — approx never merges beyond the outer radius.
    by_approx: dict[int, set[frozenset]] = {}
    for i in core_idx:
        lab = clusters[int(i)][0]
        by_approx.setdefault(lab, set()).add(labels_outer[int(i)])
    for lab, outs in by_approx.items():
        assert len(outs) == 1, f"approx cluster {lab} spans outer clusters {outs}"
    # (c) border membership: non-core assigned clusters == approx clusters of
    # core points within eps (border rule is exact in the definition).
    noncore_idx = np.flatnonzero(~core_ref)
    if len(core_idx):
        for i in noncore_idx:
            d2i = ((pts[int(i)] - cpts) ** 2).sum(axis=1)
            want = {clusters[int(core_idx[k])][0] for k in np.flatnonzero(d2i <= eps2)}
            assert set(clusters[int(i)]) == want, (
                f"border point {i}: got {set(clusters[int(i)])}, want {want}"
            )
    else:
        for i in noncore_idx:
            assert clusters[int(i)] == ()

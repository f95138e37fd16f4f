"""Cell-graph construction and core clustering (Algorithm 3, §4.4, §5.2).

Vertices are *core cells* (cells containing ≥1 core point); an edge connects
two neighboring core cells whose closest pair of core points is within eps.
Connectivity between a pair is decided by one of the paper's methods:

* ``bcp``   — blocked early-exit bichromatic closest pair (our-exact);
* ``qt``    — RangeCount on a quadtree over the other cell's core points
              (our-exact-qt);
* ``approx``— rho-approximate RangeCount on a depth-limited quadtree
              (our-approx / our-approx-qt; Gan&Tao semantics);
* ``usec``  — unit-spherical emptiness checking with line separation (2D);
* ``delaunay`` — edges of the Delaunay triangulation over all core points,
              filtered to cross-cell edges of length ≤ eps (2D).

Candidate edges are evaluated by Spark in parallel: each candidate pair
becomes a cogroup carrying both cells' core points, processed by a numpy
kernel.  The optimisations of §4.4 are reproduced:

* connectivity-query reduction — a driver-side union-find skips pairs whose
  cells are already in the same component;
* each pair is checked once (responsible cell = the one with more core
  points, ties by id);
* *bucketing* — cells are sorted by core-point count (non-increasing) and
  processed in batches; between batches the union-find prunes queries that
  earlier batches made redundant.  Without bucketing all candidate pairs are
  evaluated in a single parallel round (the racy-parallel behaviour the
  paper describes).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grid import xcols
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_approx, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected


N_EDGE_BUCKETS = 128


def _edge_kernel(d: int, eps: float, method: str, rho: float):
    """Bucketed kernel: each task evaluates many candidate edges, whose rows
    are tagged (eid, side 0/1); per-edge work is the chosen connectivity
    method on the two cells' core points."""
    xc = xcols(d)
    locols = [f"lo{j}" for j in range(d)]
    empty = pd.DataFrame(
        {"eid": pd.Series(dtype="int64"), "connected": pd.Series(dtype="boolean")}
    )

    def fn(pdf):
        if len(pdf) == 0:
            return empty
        arr = pdf[xc].to_numpy(dtype=np.float64)
        side = pdf["side"].to_numpy()
        out_e, out_c = [], []
        for eid, idx in pdf.groupby("eid", sort=False).indices.items():
            sides = side[idx]
            pa = arr[idx[sides == 0]]
            pb_idx = idx[sides == 1]
            pb = arr[pb_idx]
            if len(pa) == 0 or len(pb) == 0:
                conn = False
            elif method == "bcp":
                conn = bcp_connected(pa, pb, eps)
            elif method == "usec":
                conn = usec_connected(pa, pb, eps)
            elif method == "qt":
                lo = pdf.iloc[pb_idx[0]][locols].to_numpy(dtype=np.float64)
                conn = connected_via_quadtree(
                    pa, pb, eps, lo, float(pdf["side_box"].iloc[pb_idx[0]])
                )
            elif method == "approx":
                lo = pdf.iloc[pb_idx[0]][locols].to_numpy(dtype=np.float64)
                conn = connected_approx(
                    pa, pb, eps, rho, lo, float(pdf["side_box"].iloc[pb_idx[0]])
                )
            else:  # pragma: no cover - guarded by dbscan()
                raise ValueError(method)
            out_e.append(eid)
            out_c.append(bool(conn))
        return pd.DataFrame({"eid": out_e, "connected": out_c})

    return fn


def _evaluate_edges(
    spark,
    edges: pd.DataFrame,
    core_pts: DataFrame,
    boxes: pd.DataFrame,
    d: int,
    eps: float,
    method: str,
    rho: float,
) -> set[int]:
    """Run the connectivity kernel for a batch of candidate edges in parallel.

    ``edges``: pandas (eid, gcell, hcell).  Returns the set of eids connected.
    """
    if len(edges) == 0:
        return set()
    xc = xcols(d)
    locols = [f"lo{j}" for j in range(d)]
    edf = spark.createDataFrame(edges[["eid", "gcell", "hcell"]])
    bx = spark.createDataFrame(
        boxes.rename(columns={"side": "side_box"})[["cell"] + locols + ["side_box"]]
    )
    pts_g = (
        edf.join(core_pts, edf.gcell == core_pts.cell)
        .select("eid", F.lit(0).alias("side"), *xc)
        .withColumns({c: F.lit(0.0) for c in locols})
        .withColumn("side_box", F.lit(0.0))
    )
    pts_h = (
        edf.join(core_pts, edf.hcell == core_pts.cell)
        .join(bx, core_pts.cell == bx.cell)
        .select("eid", F.lit(1).alias("side"), *xc, *locols, "side_box")
    )
    both = pts_g.unionByName(pts_h).withColumn(
        "bucket", F.pmod(F.col("eid"), F.lit(N_EDGE_BUCKETS))
    )
    res = both.groupBy("bucket").applyInPandas(
        _edge_kernel(d, eps, method, rho), "eid long, connected boolean"
    )
    return {r["eid"] for r in res.collect() if r["connected"]}


def build_cell_graph(
    spark,
    core_pts: DataFrame,
    core_cells: pd.DataFrame,
    npairs: pd.DataFrame,
    boxes: pd.DataFrame,
    d: int,
    eps: float,
    method: str = "bcp",
    rho: float = 0.01,
    bucketing: bool = False,
    bucket_size: int = 4096,
) -> tuple[dict[str, int], dict[str, object]]:
    """Cluster core cells: returns (cell -> component label, stats); a
    component's label is its union-find root.

    Parameters
    ----------
    core_pts   : DataFrame (cell, x*) of core points only (cached upstream).
    core_cells : pandas (cell, core_cnt) — cells with ≥ 1 core point.
    npairs     : pandas neighbor pairs (cell, ncell) over all non-empty cells.
    boxes      : pandas per-cell quadtree root boxes (cell, lo*, side).
    """
    cells = core_cells.sort_values("cell", kind="stable").reset_index(drop=True)
    idx = {c: i for i, c in enumerate(cells["cell"])}
    counts = dict(zip(cells["cell"], cells["core_cnt"]))
    uf = UnionFind(len(cells))

    # Candidate edges: neighboring core-cell pairs, deduplicated; the
    # responsible cell (more core points, ties by key) is first.
    cand = npairs[npairs["cell"].isin(idx) & npairs["ncell"].isin(idx)]
    seen = set()
    edges = []
    for g, h in zip(cand["cell"], cand["ncell"]):
        a, b = (g, h) if (counts[g], g) >= (counts[h], h) else (h, g)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append((a, b))
    stats: dict[str, object] = {"n_core_cells": len(cells), "n_candidate_edges": len(edges)}

    if method == "delaunay":
        connected = _delaunay_cell_edges(core_pts, d, eps)
        n_eval = len(edges)
        for g, h in connected:
            if g in idx and h in idx:
                uf.union(idx[g], idx[h])
        stats["n_evaluated"] = n_eval
    elif not bucketing:
        # One fully-parallel round over all candidate edges.
        edf = pd.DataFrame(
            {"eid": range(len(edges)), "gcell": [e[0] for e in edges], "hcell": [e[1] for e in edges]}
        )
        conn = _evaluate_edges(spark, edf, core_pts, boxes, d, eps, method, rho)
        stats["n_evaluated"] = len(edges)
        for eid in conn:
            g, h = edges[eid]
            uf.union(idx[g], idx[h])
    else:
        # Bucketing: responsible cells in non-increasing core-count order;
        # batches pruned by the union-find between rounds.
        order = sorted(range(len(edges)), key=lambda e: (-counts[edges[e][0]], edges[e][0]))
        n_evaluated = 0
        pos = 0
        while pos < len(order):
            batch_ids = []
            while pos < len(order) and len(batch_ids) < bucket_size:
                e = order[pos]
                pos += 1
                g, h = edges[e]
                if uf.find(idx[g]) != uf.find(idx[h]):
                    batch_ids.append(e)
            if not batch_ids:
                continue
            edf = pd.DataFrame(
                {
                    "eid": batch_ids,
                    "gcell": [edges[e][0] for e in batch_ids],
                    "hcell": [edges[e][1] for e in batch_ids],
                }
            )
            conn = _evaluate_edges(spark, edf, core_pts, boxes, d, eps, method, rho)
            n_evaluated += len(batch_ids)
            for eid in conn:
                g, h = edges[eid]
                uf.union(idx[g], idx[h])
        stats["n_evaluated"] = n_evaluated

    labels = {c: uf.find(i) for c, i in idx.items()}
    stats["n_clusters"] = uf.n_components
    return labels, stats


def _delaunay_cell_edges(core_pts: DataFrame, d: int, eps: float) -> set[tuple[str, str]]:
    """2D Delaunay-based cell edges: DT over all core points, keep cross-cell
    edges with length ≤ eps (Figure 3)."""
    if d != 2:
        raise ValueError("delaunay cell graph requires d=2")
    pdf = core_pts.select("cell", "x0", "x1").toPandas()
    if len(pdf) == 0:
        return set()
    pts = pdf[["x0", "x1"]].to_numpy(dtype=np.float64)
    cells = pdf["cell"].to_numpy()
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    # Representative cell per unique coordinate (duplicates share a cell —
    # identical points always land in the same grid/box cell).
    rep = np.zeros(len(uniq), dtype=np.int64)
    rep[inv] = np.arange(len(pts))
    e = delaunay_edges(uniq)
    if len(e) == 0:
        return set()
    pa = uniq[e[:, 0]]
    pb = uniq[e[:, 1]]
    ok = ((pa - pb) ** 2).sum(axis=1) <= eps * eps
    out = set()
    for i, j in e[ok]:
        ca, cb = cells[rep[i]], cells[rep[j]]
        if ca != cb:
            out.add((ca, cb) if ca < cb else (cb, ca))
    return out

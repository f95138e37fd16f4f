"""Parallel MarkCore (Algorithm 2) on Spark DataFrames.

Dense cells (≥ minPts points) mark all their points core directly — any two
points in a cell are within eps.  Points of sparse cells count neighbors:
their own cell's full count plus a RangeCount against each neighboring cell.

The RangeCount fan-out is the paper's data-parallel loop expressed as a
cogrouped ``applyInPandas`` (``neighbor_scan``, shared with ClusterBorder).
Cells are hashed into a fixed number of buckets and the cogroup runs per
*bucket*, so each Spark task serves many cells through a local dict index
(the mapPartitions-with-local-grid-index idiom): per-group overhead is
amortised while the computation per cell — a vectorised scan (our-exact) or
a per-cell quadtree (our-exact-qt, §5.2) — stays identical to the paper's.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grid import xcols
from repro.spatial.quadtree import QuadTree

N_BUCKETS = 256


def _bucket(col):
    """Deterministic bucket id for a cell key column."""
    return F.pmod(F.xxhash64(col), F.lit(N_BUCKETS))


def _scan_kernel(d: int, eps: float, cols: tuple[str, str], emit=None, range_count=None):
    """Per-bucket pandas kernel of ``neighbor_scan``.

    ``left``: queries (id, x*, tcell); ``right``: the bucket's cell points
    (rcell, rx*, ...).  For each target cell on both sides, count each
    query's points of that cell within eps — a blocked float64 scan, unless
    ``range_count(q, p, right, first)`` returns the counts — and map (query
    ids, counts) through ``emit(ids, cnt, right, first)`` to the output
    columns ``cols``.  ``first`` is the cell's first row in ``right``.
    """
    xc = xcols(d)
    rxc = [f"r{c}" for c in xc]
    eps2 = eps * eps

    def fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        out = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
        if len(left) and len(right):
            p_all = right[rxc].to_numpy(dtype=np.float64)
            q_all = left[xc].to_numpy(dtype=np.float64)
            id_all = left["id"].to_numpy()
            rgroups = right.groupby("rcell", sort=False).indices
            for tcell, lidx in left.groupby("tcell", sort=False).indices.items():
                ridx = rgroups.get(tcell)
                if ridx is None:
                    continue
                q, p = q_all[lidx], p_all[ridx]
                cnt = range_count(q, p, right, ridx[0]) if range_count else None
                if cnt is None:
                    cnt = np.zeros(len(q), dtype=np.int64)
                    block = max(1, (1 << 22) // len(p))
                    for i in range(0, len(q), block):
                        d2 = ((q[i : i + block, None, :] - p[None, :, :]) ** 2).sum(axis=2)
                        cnt[i : i + block] = (d2 <= eps2).sum(axis=1)
                ids = id_all[lidx]
                out.append(emit(ids, cnt, right, ridx[0]) if emit else (ids, cnt))
        return pd.DataFrame({c: np.concatenate(v) for c, v in zip(cols, zip(*out))})

    return fn


def neighbor_scan(queries, right, d, eps, cols, emit=None, range_count=None) -> DataFrame:
    """Cogroup queries with their target cells' points per cell-hash bucket
    and run ``_scan_kernel``; returns the long columns ``cols``."""
    return (
        queries.withColumn("bucket", _bucket(F.col("tcell")))
        .groupBy("bucket")
        .cogroup(right.withColumn("bucket", _bucket(F.col("rcell"))).groupBy("bucket"))
        .applyInPandas(
            _scan_kernel(d, eps, cols, emit, range_count), ", ".join(f"{c} long" for c in cols)
        )
    )


def mark_core(
    spark,
    pts_cells: DataFrame,
    d: int,
    eps: float,
    min_pts: int,
    npairs: pd.DataFrame,
    boxes: pd.DataFrame,
    use_quadtree: bool = False,
) -> DataFrame:
    """Return DataFrame (id, is_core) for all points.

    Parameters
    ----------
    pts_cells : points with ``cell`` key (id, x*, cell).
    npairs    : driver neighbor-pair table (cell, ncell), both directions.
    boxes     : per-cell square box (cell, lo*, side) for quadtree roots.
    """
    xc = xcols(d)
    stats = pts_cells.groupBy("cell").agg(F.count("*").alias("cnt"))
    dense = stats.where(F.col("cnt") >= min_pts).select("cell")
    core_dense = pts_cells.join(dense, "cell").select("id", F.lit(True).alias("is_core"))

    sparse = pts_cells.join(dense, "cell", "left_anti").select("id", "cell", *xc)
    if sparse.isEmpty():
        return core_dense

    if len(npairs):
        npairs_df = spark.createDataFrame(npairs)
        queries = sparse.join(npairs_df, "cell").select("id", *xc, F.col("ncell").alias("tcell"))
        # Rename the right side's columns so the cogroup's two branches (both
        # derived from pts_cells) carry distinct attributes.
        right = (
            pts_cells.select(
                F.col("cell").alias("rcell"), *[F.col(c).alias(f"r{c}") for c in xc]
            )
            .join(
                spark.createDataFrame(boxes).select(
                    F.col("cell").alias("rcell"),
                    *[F.col(f"lo{j}").alias(f"rlo{j}") for j in range(d)],
                    F.col("side").alias("rside"),
                ),
                "rcell",
            )
        )

        def qt_count(q, p, right, first):  # our-exact-qt RangeCount (§5.2)
            if len(p) <= 32:
                return None
            lo = right.iloc[first][[f"rlo{j}" for j in range(d)]].to_numpy(dtype=np.float64)
            qt = QuadTree(p, lo, float(right["rside"].iloc[first]))
            return np.fromiter((qt.range_count(x, eps) for x in q), dtype=np.int64, count=len(q))

        counted = neighbor_scan(
            queries, right, d, eps, ("qid", "cnt"), range_count=qt_count if use_quadtree else None
        )
        nbr_counts = counted.groupBy("qid").agg(F.sum("cnt").alias("nbr_cnt"))
    else:
        nbr_counts = None

    own = sparse.join(stats, "cell").select("id", F.col("cnt").alias("own_cnt"))
    if nbr_counts is not None:
        total = own.join(nbr_counts, own.id == nbr_counts.qid, "left").select(
            "id",
            (F.col("own_cnt") + F.coalesce(F.col("nbr_cnt"), F.lit(0))).alias("total"),
        )
    else:
        total = own.select("id", F.col("own_cnt").alias("total"))
    core_sparse = total.select("id", (F.col("total") >= min_pts).alias("is_core"))
    return core_dense.unionByName(core_sparse)

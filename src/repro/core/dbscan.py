"""End-to-end parallel DBSCAN pipelines (Algorithm 1) on Spark.

``dbscan`` composes the phases — cell construction (grid §4.1 or box §4.2),
MarkCore (Alg. 2), ClusterCore (Alg. 3 with BCP / quadtree / USEC / Delaunay
/ approximate connectivity), connected components, ClusterBorder (Alg. 4) —
into the paper's named implementations:

=================  ========================================================
paper name          dbscan(...) arguments
-----------------  --------------------------------------------------------
our-exact           graph_method="bcp"
our-exact-qt        graph_method="qt", markcore_quadtree=True
our-approx          approx=True  (graph approx, markcore scan)
our-approx-qt       approx=True, markcore_quadtree=True
*-bucketing         bucketing=True
our-2d-grid-*       d=2, cell_method="grid", graph_method in {bcp,usec,delaunay}
our-2d-box-*        d=2, cell_method="box",  graph_method in {bcp,usec,delaunay}
=================  ========================================================

Output: DataFrame (id, is_core, clusters array<long>) — empty array = noise;
border points may carry several labels.  A cluster label is the union-find
root of its core-cell component; ``validate.canonical_labels`` maps labels
to min-core-point ids for comparison with the reference.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import box as boxmod
from repro.core import grid
from repro.core.border import cluster_border
from repro.core.cellgraph import build_cell_graph
from repro.core.mark_core import mark_core


def dbscan(
    spark: SparkSession,
    points: DataFrame,
    eps: float,
    min_pts: int,
    d: int,
    *,
    cell_method: str = "grid",
    graph_method: str = "bcp",
    markcore_quadtree: bool = False,
    approx: bool = False,
    rho: float = 0.01,
    bucketing: bool = False,
    return_stats: bool = False,
):
    """Run parallel DBSCAN; see module docstring for the variant matrix.

    The returned DataFrame is cached and materialised; releasing it
    (``result.unpersist()``) is the caller's.  Every other frame the call
    caches is released before it returns, or raises.
    """
    if cell_method not in ("grid", "box"):
        raise ValueError(f"unknown cell_method {cell_method!r}")
    if graph_method not in ("bcp", "qt", "usec", "delaunay"):
        raise ValueError(f"unknown graph_method {graph_method!r}")
    if d != 2 and (cell_method == "box" or graph_method in ("usec", "delaunay")):
        raise ValueError(f"cell_method={cell_method!r}, graph_method={graph_method!r} need d=2")

    t0 = time.perf_counter()
    xc = grid.xcols(d)
    stats: dict[str, object] = {}
    cached: list[DataFrame] = []
    kept = None  # the returned result, once materialised

    def cache(df: DataFrame) -> DataFrame:
        cached.append(df.cache())
        return df

    try:
        # ---- cells ------------------------------------------------------
        if cell_method == "grid":
            pts_cells = cache(
                grid.with_cells(points, eps, d).select("id", *xc, *grid.ccols(d), "cell")
            )
            cells = grid.cell_table(pts_cells, d)
            npairs = grid.neighbor_pairs(cells, d)
            boxes = grid.cell_boxes(cells, eps, d)
            pts_cells = pts_cells.select("id", *xc, "cell")
        else:
            pdf = points.select("id", *xc).toPandas().sort_values("id")
            labels, box_tbl = boxmod.box_cells(pdf[xc].to_numpy(), eps)
            assign = pd.DataFrame(
                {"id": pdf["id"].to_numpy(), "cell": "b" + pd.Series(labels).astype(str)}
            )
            pts_cells = cache(
                points.join(spark.createDataFrame(assign), "id").select("id", *xc, "cell")
            )
            cells = pd.DataFrame({"cell": "b" + box_tbl["box"].astype(str), "cnt": box_tbl["cnt"]})
            npairs = boxmod.box_neighbor_pairs(box_tbl, eps)
            boxes = pd.DataFrame(
                {
                    "cell": "b" + box_tbl["box"].astype(str),
                    "lo0": box_tbl["lo0"],
                    "lo1": box_tbl["lo1"],
                    "side": box_tbl["side"],
                }
            )
        t1 = time.perf_counter()
        stats["n_cells"] = len(cells)
        stats["t_cells"] = t1 - t0

        # ---- mark core --------------------------------------------------
        flags = cache(
            mark_core(spark, pts_cells, d, eps, min_pts, npairs, boxes, use_quadtree=markcore_quadtree)
        )
        flags.count()
        t2 = time.perf_counter()
        stats["t_markcore"] = t2 - t1

        # ---- cluster core -----------------------------------------------
        core_pts = cache(
            pts_cells.join(flags.where("is_core").select("id"), "id").select("id", "cell", *xc)
        )
        core_cells = core_pts.groupBy("cell").agg(F.count("*").alias("core_cnt")).toPandas()
        gmethod = "approx" if approx else graph_method
        labels, gstats = build_cell_graph(
            spark,
            core_pts.select("cell", *xc),
            core_cells,
            npairs,
            boxes,
            d,
            eps,
            method=gmethod,
            rho=rho,
            bucketing=bucketing,
        )
        stats.update(gstats)
        lbl_df = spark.createDataFrame(
            pd.DataFrame({"cell": list(labels), "cluster": [labels[c] for c in labels]}),
            schema="cell string, cluster long",
        )
        core_clustered = cache(
            core_pts.join(lbl_df, "cell").select("id", "cell", *xc, "cluster")
        )
        t3 = time.perf_counter()
        stats["t_clustercore"] = t3 - t2

        # ---- cluster border ---------------------------------------------
        border = cluster_border(spark, pts_cells, flags, core_clustered, d, eps, npairs)
        core_out = core_clustered.select("id", F.array(F.col("cluster")).alias("clusters"))
        assigned = core_out.unionByName(border)
        result = cache(
            points.select("id")
            .join(flags, "id", "left")
            .join(assigned, "id", "left")
            .select(
                "id",
                F.coalesce("is_core", F.lit(False)).alias("is_core"),
                F.coalesce("clusters", F.array().cast("array<long>")).alias("clusters"),
            )
        )
        result.count()
        kept = result
        t4 = time.perf_counter()
        stats["t_border"] = t4 - t3
        stats["t_total"] = t4 - t0
    finally:
        for df in cached:
            if df is not kept:
                df.unpersist()

    if return_stats:
        return result, stats
    return result


VARIANTS = {
    "our-exact": dict(graph_method="bcp"),
    "our-exact-qt": dict(graph_method="qt", markcore_quadtree=True),
    "our-approx": dict(approx=True),
    "our-approx-qt": dict(approx=True, markcore_quadtree=True),
    "our-exact-bucketing": dict(graph_method="bcp", bucketing=True),
    "our-exact-qt-bucketing": dict(graph_method="qt", markcore_quadtree=True, bucketing=True),
    "our-approx-bucketing": dict(approx=True, bucketing=True),
    "our-approx-qt-bucketing": dict(approx=True, markcore_quadtree=True, bucketing=True),
    "our-2d-grid-bcp": dict(cell_method="grid", graph_method="bcp"),
    "our-2d-grid-usec": dict(cell_method="grid", graph_method="usec"),
    "our-2d-grid-delaunay": dict(cell_method="grid", graph_method="delaunay"),
    "our-2d-box-bcp": dict(cell_method="box", graph_method="bcp"),
    "our-2d-box-usec": dict(cell_method="box", graph_method="usec"),
    "our-2d-box-delaunay": dict(cell_method="box", graph_method="delaunay"),
}


def dbscan_variant(spark, points, eps, min_pts, d, variant: str, **extra):
    """Run one of the paper's named implementations (see VARIANTS)."""
    kw = dict(VARIANTS[variant])
    kw.update(extra)
    return dbscan(spark, points, eps, min_pts, d, **kw)

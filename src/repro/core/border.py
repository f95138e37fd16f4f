"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames.

Every non-core point p (necessarily in a sparse cell) checks the core points
of its own cell and of each neighboring cell; for each such cell with a core
point within eps, p joins that cell's cluster.  Border points can belong to
several clusters (§2), so the result is a per-point set of cluster labels.

Implementation reuses MarkCore's bucketed scan (``mark_core.neighbor_scan``):
queries keyed by target cell meet that cell's core points — which all share
one cluster label, cells being the cell-graph vertices — and every query
with any core point within eps emits (point, cluster), deduplicated by a
shuffle ``collect_set``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grid import xcols
from repro.core.mark_core import neighbor_scan


def _emit_hits(ids, cnt, right, first):
    """Each query with a core point of the target cell within eps joins that
    cell's cluster."""
    hit = ids[cnt > 0]
    return hit, np.full(len(hit), right["cluster"].iloc[first], dtype=np.int64)


def cluster_border(
    spark,
    pts_cells: DataFrame,
    core_flags: DataFrame,
    core_clustered: DataFrame,
    d: int,
    eps: float,
    npairs: pd.DataFrame,
) -> DataFrame:
    """Assign cluster sets to border points.

    Parameters
    ----------
    pts_cells      : all points with cells (id, x*, cell).
    core_flags     : (id, is_core).
    core_clustered : core points with labels (id, cell, x*, cluster).

    Returns
    -------
    DataFrame (id, clusters array<long>) for non-core points that belong to
    at least one cluster (border points). Noise points are absent.
    """
    xc = xcols(d)
    noncore = (
        pts_cells.join(core_flags.where(~F.col("is_core")).select("id"), "id")
        .select("id", "cell", *xc)
    )
    # Targets: own cell plus neighbors.
    own_targets = noncore.select("id", *xc, F.col("cell").alias("tcell"))
    if len(npairs):
        npairs_df = spark.createDataFrame(npairs)
        nbr_targets = noncore.join(npairs_df, "cell").select(
            "id", *xc, F.col("ncell").alias("tcell")
        )
        queries = own_targets.unionByName(nbr_targets)
    else:
        queries = own_targets

    # Rename the right side's columns: both cogroup branches derive from the
    # same cached points DataFrame and need distinct attributes.
    right = core_clustered.select(
        F.col("cell").alias("rcell"),
        "cluster",
        *[F.col(c).alias(f"r{c}") for c in xc],
    )
    pairs = neighbor_scan(queries, right, d, eps, ("pid", "cluster"), _emit_hits)
    return pairs.groupBy("pid").agg(
        F.array_sort(F.collect_set("cluster")).alias("clusters")
    ).withColumnRenamed("pid", "id")

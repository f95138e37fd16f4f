"""All six 2D implementations (grid/box × BCP/USEC/Delaunay) vs reference."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.dbscan import dbscan, dbscan_variant
from repro.core.validate import assert_same_clustering

VARIANTS_2D = [
    "our-2d-grid-bcp",
    "our-2d-grid-usec",
    "our-2d-grid-delaunay",
    "our-2d-box-bcp",
    "our-2d-box-usec",
    "our-2d-box-delaunay",
]


@pytest.mark.parametrize("variant", VARIANTS_2D)
def test_variant_simden(spark, variant):
    pts = sd.seed_spreader(350, 2, seed=31)
    res = dbscan_variant(spark, sd.points_df(spark, pts), 280.0, 10, 2, variant)
    assert_same_clustering(res, pts, 280.0, 10)


@pytest.mark.parametrize("variant", VARIANTS_2D)
def test_variant_varden(spark, variant):
    pts = sd.seed_spreader(350, 2, seed=32, vary_density=True)
    res = dbscan_variant(spark, sd.points_df(spark, pts), 280.0, 10, 2, variant)
    assert_same_clustering(res, pts, 280.0, 10)


@pytest.mark.parametrize("variant", ["our-2d-box-bcp", "our-2d-box-usec"])
def test_variant_uniform(spark, variant):
    rng = np.random.default_rng(33)
    pts = rng.random((300, 2)) * np.sqrt(300)
    res = dbscan_variant(spark, sd.points_df(spark, pts), 1.1, 6, 2, variant)
    assert_same_clustering(res, pts, 1.1, 6)


def test_box_variant_rejects_3d(spark):
    pts = sd.seed_spreader(50, 3, seed=34)
    with pytest.raises(ValueError):
        dbscan_variant(spark, sd.points_df(spark, pts), 300.0, 5, 3, "our-2d-box-bcp")


@pytest.mark.parametrize(
    "d, kw",
    [
        (2, dict(graph_method="bfs")),
        (3, dict(graph_method="usec")),
        (3, dict(graph_method="delaunay")),
    ],
    ids=["unknown-graph-method", "usec-3d", "delaunay-3d"],
)
def test_bad_arguments_rejected_before_any_job(spark, d, kw):
    df = sd.points_df(spark, sd.seed_spreader(50, d, seed=35))
    sc = spark.sparkContext
    sc.setJobGroup("rejected-arguments", "dbscan() argument check")
    try:
        with pytest.raises(ValueError):
            dbscan(spark, df, 300.0, 5, d, **kw)
        assert sc.statusTracker().getJobIdsForGroup("rejected-arguments") == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)

"""Stage accounting: nothing dropped, nothing counted twice, phases cover the call."""
import time

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import dbscan as dbscan_module
from run import check_trace
from spans import PHASES, Job, Stage, StatusLog, attribute, phase_windows, traced

WINDOWS = {"cells": (0.0, 1.0), "mark_core": (1.0, 3.0), "cellgraph": (3.0, 4.0), "border": (4.0, 6.0)}


def _stage(sid, status, a, b, run_s=1.0, rows=10):
    return Stage(sid, 0, status, a, b, 4, run_s, run_s / 2, 1000, rows, 500)


def test_attribute_counts_complete_stages_once_by_submission():
    jobs = [Job(0, 0.5, (0,)), Job(1, 1.5, (1, 2)), Job(2, 3.5, (3,)), Job(3, 4.5, (4, 5))]
    stages = [
        _stage(0, "COMPLETE", 0.5, 0.9),
        _stage(1, "COMPLETE", 1.5, 2.0),
        _stage(2, "SKIPPED", 0.0, 0.0, run_s=50.0),  # its work was done earlier
        _stage(3, "COMPLETE", 3.5, 3.8),
        _stage(4, "COMPLETE", 4.5, 5.0),
        _stage(5, "COMPLETE", 4.8, 5.5, rows=7),  # overlaps stage 4
        _stage(9, "COMPLETE", 7.0, 8.0),  # after the call: not this call's
    ]
    out = attribute(WINDOWS, (0.0, 6.0), jobs, stages)
    assert [out[p]["jobs"] for p in PHASES] == [1, 1, 1, 1]
    assert out["mark_core"]["executor_run_s"] == 1.0
    assert out["border"]["shuffle_write_rows"] == 17
    assert out["border"]["driver_s"] == pytest.approx(2.0 - 1.0)
    assert out["cells"]["driver_s"] == pytest.approx(1.0 - 0.4)
    assert out["spark"]["jobs"] == 4
    assert out["spark"]["tasks"] == 5 * 4
    assert out["spark"]["executor_run_s"] == 5.0
    assert out["spark"]["driver_s"] == pytest.approx(6.0 - (0.4 + 0.5 + 0.3 + 1.0))


def test_attribute_refuses_a_stage_outside_every_phase():
    stages = [_stage(0, "COMPLETE", 6.05, 6.08)]
    with pytest.raises(RuntimeError, match="outside every phase"):
        attribute(WINDOWS, (0.0, 6.1), [], stages)


def test_traced_restores_the_module():
    names = ("grid", "boxmod", "mark_core", "build_cell_graph", "cluster_border")
    before = {k: getattr(dbscan_module, k) for k in names}
    with traced(dbscan_module, []):
        assert all(getattr(dbscan_module, k) is not before[k] for k in names)
    assert all(getattr(dbscan_module, k) is before[k] for k in names)


def test_check_trace_fails_a_traced_call_that_changes_the_job_count():
    def calls(*jobs):
        return [{"kind": "cold", "traced": True, "jobs": 40, "ok": True}] + [
            {"kind": "warm", "traced": i % 2 == 1, "jobs": j, "ok": True} for i, j in enumerate(jobs)
        ]

    same = calls(54, 54, 54, 54, 54)
    check_trace(same)
    assert all(c["ok"] for c in same)
    added = calls(54, 55, 54, 54, 54)
    check_trace(added)
    assert [c["ok"] for c in added] == [True, True, False, True, True, True]
    assert "traced call ran 55 jobs" in added[2]["problems"][0]


@pytest.mark.parametrize("cell_method", ["grid", "box"])
def test_phases_cover_the_call_and_each_runs_a_job(spark, cell_method):
    pts = sd.seed_spreader(1000, 2, seed=5, restarts=4)
    pdf = pd.DataFrame({"id": np.arange(len(pts)), "x0": pts[:, 0], "x1": pts[:, 1]})
    df = spark.createDataFrame(pdf, schema="id long, x0 double, x1 double").cache()
    df.count()
    log = StatusLog(spark.sparkContext)
    log.read()  # everything before the call
    spans = []
    with traced(dbscan_module, spans):
        t0 = time.perf_counter()
        result, stats = dbscan_module.dbscan(
            spark, df, 50.0, 25, 2, cell_method=cell_method, return_stats=True
        )
        t1 = time.perf_counter()
    jobs, stages = log.read()
    out = attribute(phase_windows(spans, stats), (t0, t1), jobs, stages)

    wall = t1 - t0
    assert abs(sum(out[p]["wall_s"] for p in PHASES) - wall) <= 0.05 * wall
    assert all(out[p]["jobs"] >= 1 for p in PHASES), {p: out[p]["jobs"] for p in PHASES}
    assert out["spark"]["jobs"] == sum(out[p]["jobs"] for p in PHASES)
    assert any(s.name.startswith(f"{'box' if cell_method == 'box' else 'grid'}.") for s in spans)
    assert not log.read()[0], "reading the status store ran a Spark job"
    spark.catalog.clearCache()

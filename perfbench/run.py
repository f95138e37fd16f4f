"""Benchmark of the ``dbscan()`` pipeline on one fixed workload.

Run from the repository root:

    python3 perfbench/run.py --workload ss3d-coarse --seed 1 --seconds 20 --trace 0

One process, ``local[nproc]``, a closed loop of one ``dbscan()`` call at a
time. The input is made in numpy from ``--seed`` before Spark sees it, and the
serial baseline ``dbscan_seq`` is timed on it before the JVM starts. Every
call's result is collected and checked exactly against ``dbscan_seq`` outside
the timed window, and whatever the call left persisted is released before the
next call starts. See README.md for the metrics and workloads.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced warm calls and prints the per-layer metrics,
taken from spans around the layer calls ``repro.core.dbscan`` makes and from
Spark's status store. The line before the last is a JSON record of the run
(code version, session settings, every call); the last line is the result.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # the script's first statement: set-up starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import PHASE_FIELDS, StatusLog, attribute, phase_windows, traced  # noqa: E402
from workloads import MIN_PTS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"  # scratch space inside the checkout

SHUFFLE_PARTITIONS = 64
SETUP_REPEATS = 3  # input preparations per run; setup_s takes their median
COLD_N = 1000  # the cold call runs on this many of the input's points
SEQ_MIN_S = 1.0  # repeat dbscan_seq until this much time is measured...
SEQ_MAX_REPEATS = 10  # ...or this many runs


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T_PROCESS:7.1f}s] {msg}", file=sys.stderr, flush=True)


def driver_memory() -> str:
    """ROADMAP tier-1 formula: half of MemTotal in GiB, clamped to 2..8 GiB."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(max(kib // 2097152, 2), 8)}g"


def configure_environment(nproc: int, mem: str) -> None:
    """Pin the session before pyspark is imported: the JVM reads these at launch.

    Spark's local dirs, the JVM's and Python's temp dirs all go under WORK, so
    a run writes nowhere outside the checkout.
    """
    tmp, local = WORK / "tmp", WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{nproc}] --driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def code_version() -> dict:
    """Git sha when the checkout is a git repository, and always a hash of src/."""
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repository's
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kib / 1024


def reset_peak_rss() -> None:
    """Set this process's VmHWM back to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Bench:
    """One run: a SparkSession, one workload's input, and the calls made on it."""

    def __init__(self, spark, wl, seed: int, nproc: int, trace: bool, refs: dict):
        from repro.core import dbscan as dbscan_module

        self.spark, self.sc = spark, spark.sparkContext
        self.wl, self.seed, self.nproc = wl, seed, nproc
        self.refs = refs  # input size -> dbscan_seq's (core flags, labels)
        self.dbscan_module = dbscan_module
        self.status = StatusLog(self.sc) if trace else None
        self.df = self.cold_df = None
        self.dirty = False  # the previous call left caches behind
        self.calls: list[dict] = []

    def prepare_input(self) -> float:
        """Generate the input in numpy and cache it as the points DataFrame,
        with its first COLD_N points as a second one for the cold call."""
        t = time.perf_counter()
        pdf = self.wl.points(self.seed)
        schema = "id long, " + ", ".join(f"x{j} double" for j in range(self.wl.d))
        self.spark.catalog.clearCache()
        self.df = self.spark.createDataFrame(pdf, schema=schema).cache()
        self.cold_df = self.spark.createDataFrame(pdf.iloc[:COLD_N], schema=schema).cache()
        self.df.count()
        self.cold_df.count()
        return time.perf_counter() - t

    def _persistent(self) -> set[int]:
        return {int(k) for k in self.sc._jsc.getPersistentRDDs().keySet()}

    def _release(self) -> None:
        """Drop every cache the previous call left, then re-cache the input alone."""
        self.spark.catalog.clearCache()
        rdds = self.sc._jsc.getPersistentRDDs()
        for k in list(rdds.keySet()):
            rdds.get(k).unpersist(True)
        self.df.cache().count()
        left = self._persistent()
        if len(left) != 1:
            raise RuntimeError(f"{len(left)} persisted RDDs after clean-up, expected the input alone")
        self.dirty = False

    def call(self, kind: str, trace: bool = False) -> dict:
        """Time one dbscan() call, then collect its result and gate it against
        dbscan_seq. Cleaning up after the previous call, collecting and
        checking all happen outside the timer.

        The driver's peak RSS is reset just before the call and read as soon
        as it returns, so it is the call's own peak, not the benchmark's."""
        from gate import check
        from repro.core.validate import result_to_pandas

        if self.dirty:
            self._release()
        before = self._persistent()
        spans: list = []
        df, n = (self.cold_df, COLD_N) if kind == "cold" else (self.df, self.wl.n)
        rec = {"kind": kind, "traced": trace, "n": n, "ok": False}
        with traced(self.dbscan_module, spans) if trace else nullcontext():
            reset_peak_rss()
            t0 = time.perf_counter()
            try:
                result, stats = self.dbscan_module.dbscan_variant(
                    self.spark, df, self.wl.eps, MIN_PTS, self.wl.d, self.wl.variant,
                    return_stats=True,
                )
                rec["ok"] = True
            except Exception:  # a failed call is counted, and the loop goes on
                rec["error"] = traceback.format_exc(limit=3)
                log(f"{kind} call raised:\n{rec['error']}")
            t1 = time.perf_counter()
            rec["driver_rss_mb"] = peak_rss_mb()
        rec["wall_s"] = t1 - t0
        rec["persisted_rdds_leaked"] = len(self._persistent() - before)
        if rec["ok"]:
            rec["stats"] = dict(stats)
            rec["problems"] = check(result_to_pandas(result), *self.refs[n])
            if rec["problems"]:
                rec["ok"] = False
                log(f"{kind} call differs from dbscan_seq: {rec['problems']}")
        if self.status is not None:
            jobs, stages = self.status.read()
            rec["jobs"] = sum(t0 <= j.submitted <= t1 for j in jobs)
            rec["stages_complete"] = sum(
                s.status == "COMPLETE" and t0 <= s.submitted <= t1 for s in stages
            )
            if trace and rec["ok"]:
                rec["phases"] = attribute(phase_windows(spans, stats), (t0, t1), jobs, stages)
                rec["spans"] = [(s.name, round(s.start - t0, 4), round(s.end - t0, 4)) for s in spans]
        self.dirty = True
        self.calls.append(rec)
        log(f"{kind}{' traced' if trace else ''} call: {rec['wall_s']:.2f}s")
        return rec

    def warm_loop(self, seconds: float, trace: bool) -> None:
        """Warm calls until the next one would end past ``seconds``.

        Untraced runs make at least one warm call. Traced runs alternate
        untraced and traced calls, at least untraced-traced-untraced, so every
        traced call has an untraced call on either side.
        """
        start = time.perf_counter()
        n = 0
        while True:
            self.call("warm", trace and n % 2 == 1)
            n += 1
            warm = [c["wall_s"] for c in self.calls if c["kind"] == "warm"]
            if n < (3 if trace else 1):
                continue
            if time.perf_counter() - start + median(warm) > seconds:
                break

    def failed(self) -> int:
        return sum(not c["ok"] for c in self.calls)


def check_trace(calls: list[dict]) -> None:
    """Fail every traced warm call whose Spark job count equals neither
    untraced neighbour's: tracing must not add or remove a job."""
    warm = [c for c in calls if c["kind"] == "warm"]
    for i in range(1, len(warm) - 1):
        c, near = warm[i], (warm[i - 1]["jobs"], warm[i + 1]["jobs"])
        if c["traced"] and c["jobs"] not in near:
            c["ok"] = False
            c.setdefault("problems", []).append(f"traced call ran {c['jobs']} jobs, untraced {near}")
            log(f"tracing changed the job count: {c['jobs']} against {near}")


def end_to_end(bench: Bench, setup_s: float) -> dict:
    warm = [c for c in bench.calls if c["kind"] == "warm"]
    cold = next(c["wall_s"] for c in bench.calls if c["kind"] == "cold")
    return {
        "wall_s": (median([c["wall_s"] for c in warm]), "s"),
        "cold_s": (cold, "s"),
        "setup_s": (setup_s, "s"),
        "driver_rss_mb": (median([c["driver_rss_mb"] for c in warm]), "MB"),
    }


def per_layer(bench: Bench, jvm_rss_mb: float, seq_s: float) -> dict:
    """Medians over the traced warm calls of each layer's figures.

    The JVM's peak RSS and the serial baseline's time are here rather than
    end to end: the first follows the garbage collector's heap sizing, and
    both spread by a quarter or more from run to run on a shared machine.
    """
    traced_calls = [c for c in bench.calls if c["kind"] == "warm" and c["traced"] and c["ok"]]
    warm = [c for c in bench.calls if c["kind"] == "warm"]
    plain = [c for c in warm if not c["traced"]]
    # Warm calls keep speeding up over a session's first calls, so each traced
    # call is compared with the mean of the untraced calls on either side.
    ratios = [
        warm[i]["wall_s"] / ((warm[i - 1]["wall_s"] + warm[i + 1]["wall_s"]) / 2)
        for i in range(1, len(warm) - 1)
        if warm[i]["traced"]
    ]
    cells = bench.wl.cells_layer
    units = {"wall_s": "s", "driver_s": "s", "executor_run_s": "s", "executor_cpu_s": "s",
             "shuffle_write_mb": "MB", "shuffle_read_mb": "MB", "jobs": "count",
             "tasks": "count", "shuffle_write_rows": "count"}
    out = {}

    def put(name, values, unit):
        out[name] = (median(values), unit)

    for layer, phase in (("grid", "cells"), ("box", "cells"), ("mark_core", "mark_core"),
                         ("cellgraph", "cellgraph"), ("border", "border")):
        for f in PHASE_FIELDS:
            # The cells layer the workload does not use did no work.
            vals = [c["phases"][phase][f] for c in traced_calls] if layer in (cells, phase) else [0]
            put(f"{layer}.{f}", vals, units[f])
    for layer in ("grid", "box"):
        put(f"{layer}.n_cells", [c["stats"]["n_cells"] for c in traced_calls] if layer == cells else [0], "count")
    put("cellgraph.n_candidate_edges", [c["stats"]["n_candidate_edges"] for c in traced_calls], "count")
    put("cellgraph.n_evaluated", [c["stats"]["n_evaluated"] for c in traced_calls], "count")
    put("cellgraph.useful_ratio", [
        (c["stats"]["n_core_cells"] - c["stats"]["n_clusters"]) / c["stats"]["n_evaluated"]
        if c["stats"]["n_evaluated"] else 0.0 for c in traced_calls], "ratio")
    for f in ("jobs", "tasks", "executor_run_s", "shuffle_write_mb", "shuffle_read_mb", "driver_s"):
        put(f"spark.{f}", [c["phases"]["spark"][f] for c in traced_calls], units[f])
    put("spark.core_util", [
        c["phases"]["spark"]["executor_run_s"] / (c["wall_s"] * bench.nproc) for c in traced_calls], "ratio")
    out["spark.jvm_rss_mb"] = (jvm_rss_mb, "MB")
    out["seq_gridbscan.wall_s"] = (seq_s, "s")
    put("dbscan.persisted_rdds_leaked", [c["persisted_rdds_leaked"] for c in bench.calls], "count")
    out["trace.overhead_frac"] = (median(ratios) - 1, "ratio")
    out["trace.added_jobs"] = (
        median([c["jobs"] for c in traced_calls]) - median([c["jobs"] for c in plain]), "count")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "core" / "dbscan.py").is_file():
        log(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    nproc, mem = len(os.sched_getaffinity(0)), driver_memory()
    configure_environment(nproc, mem)

    import numpy as np
    from repro.baselines.seq_gridbscan import dbscan_seq

    from gate import permuted

    # The serial baseline runs before the JVM starts, so no Spark thread
    # competes with it; its time is not part of set-up. It runs on the points
    # in generation order: its early-exit closest-pair checks take longer or
    # shorter with the order of points in a cell, and the seed's order would
    # otherwise move seq_s by a fifth.
    t = time.perf_counter()
    points, perm = wl.generated(), wl.permutation(args.seed)
    seq_times = []
    while not seq_times or (sum(seq_times) < SEQ_MIN_S and len(seq_times) < SEQ_MAX_REPEATS):
        t_run = time.perf_counter()
        answer = dbscan_seq(points, wl.eps, MIN_PTS)
        seq_times.append(time.perf_counter() - t_run)
    seq_s = median(seq_times)
    refs = {
        wl.n: permuted(*answer, perm),
        COLD_N: dbscan_seq(points[perm[:COLD_N]], wl.eps, MIN_PTS),
    }
    baseline_s = time.perf_counter() - t
    log(f"dbscan_seq: {[round(x, 3) for x in seq_times]}")

    import pyspark
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    gateway = spark.sparkContext._gateway
    jvm_proc = gateway.proc
    try:
        spark.sparkContext.setLogLevel("ERROR")
        session_s = time.perf_counter() - T_PROCESS - baseline_s
        bench = Bench(spark, wl, args.seed, nproc, bool(args.trace), refs)
        # The cold call follows the first preparation, so it meets a session
        # that has run nothing else. The repeats come after it: setup_s takes
        # the median, which leaves out what only the first one pays.
        prep = [bench.prepare_input()]
        bench.call("cold", trace=bool(args.trace))
        prep += [bench.prepare_input() for _ in range(SETUP_REPEATS - 1)]
        setup_s = session_s + median(prep)
        log(f"session {session_s:.2f}s, input preparation {[round(x, 2) for x in prep]}")

        bench.warm_loop(args.seconds, bool(args.trace))
        jvm_rss_mb = peak_rss_mb(jvm_proc.pid)
        if args.trace:
            check_trace(bench.calls)
            metrics = per_layer(bench, jvm_rss_mb, seq_s)
        else:
            metrics = end_to_end(bench, setup_s)
        failed = bench.failed()
        log(f"checked {len(bench.calls)} calls, {failed} failed")
    finally:
        spark.stop()
        gateway.shutdown()
        if jvm_proc is not None:
            jvm_proc.stdin.close()
            try:
                jvm_proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                jvm_proc.kill()
                jvm_proc.wait()
        log("session stopped")

    attempted = len(bench.calls)
    import pandas as pd
    import pyarrow

    record = {
        "workload": wl.name, "generator": wl.generator, "n": wl.n, "d": wl.d, "eps": wl.eps,
        "min_pts": MIN_PTS, "variant": wl.variant, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **code_version(), "nproc": nproc, "master": f"local[{nproc}]",
        "driver_memory": mem, "shuffle_partitions": SHUFFLE_PARTITIONS,
        "python": sys.version.split()[0], "pyspark": pyspark.__version__,
        "numpy": np.__version__, "pandas": pd.__version__, "pyarrow": pyarrow.__version__,
        "fail_frac": failed / attempted,
        "seq_s": seq_s,
        "seq_s_over_wall_s": seq_s / median([c["wall_s"] for c in bench.calls if c["kind"] == "warm"]),
        "jvm_rss_mb": jvm_rss_mb, "session_s": session_s, "input_prep_s": prep, "seq_runs_s": seq_times,
        "calls": bench.calls,
    }
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-phase trace of ``dbscan()`` calls, recorded from outside the program.

* ``traced`` wraps the names ``repro.core.dbscan`` imports (``grid.*``,
  ``boxmod.box_cells`` / ``box_neighbor_pairs``, ``mark_core``,
  ``build_cell_graph``, ``cluster_border``) so each call into them records a
  ``Span``. Nothing inside the program changes, and no Spark job is added.
* ``StatusLog`` reads jobs and stages from Spark's status store, which is
  kept with the UI disabled. It reads after every call, so the store's
  retention limit cannot drop a stage unseen, and it raises if one is gone.
* ``phase_windows`` anchors the four phases on the phase times
  ``dbscan(..., return_stats=True)`` returns; ``attribute`` assigns each job
  and stage to the phase in which it was submitted.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

PHASES = ("cells", "mark_core", "cellgraph", "border")
PHASE_FIELDS = (
    "wall_s", "driver_s", "jobs", "tasks", "executor_run_s",
    "executor_cpu_s", "shuffle_write_mb", "shuffle_write_rows",
)
MB = 1e6


@dataclass(frozen=True)
class Span:
    name: str
    start: float  # time.perf_counter()
    end: float


@dataclass(frozen=True)
class Job:
    job_id: int
    submitted: float  # time.perf_counter() clock
    stage_ids: tuple[int, ...]


@dataclass(frozen=True)
class Stage:
    stage_id: int
    attempt: int
    status: str
    submitted: float  # time.perf_counter() clock
    completed: float
    tasks: int
    run_s: float
    cpu_s: float
    shuffle_write_bytes: int
    shuffle_write_rows: int
    shuffle_read_bytes: int


def _wrap(fn, name: str, spans: list[Span]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append(Span(name, t, time.perf_counter()))

    return wrapper


class _TracedModule:
    """Module stand-in whose callables record a span named ``prefix.name``."""

    def __init__(self, module, prefix: str, spans: list[Span]):
        self._module, self._prefix, self._spans = module, prefix, spans

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        return _wrap(attr, f"{self._prefix}.{name}", self._spans) if callable(attr) else attr


@contextmanager
def traced(dbscan_module, spans: list[Span]):
    """Record spans for the layer calls ``dbscan_module.dbscan`` makes."""
    patches = {
        "grid": _TracedModule(dbscan_module.grid, "grid", spans),
        "boxmod": _TracedModule(dbscan_module.boxmod, "box", spans),
        "mark_core": _wrap(dbscan_module.mark_core, "mark_core.mark_core", spans),
        "build_cell_graph": _wrap(
            dbscan_module.build_cell_graph, "cellgraph.build_cell_graph", spans
        ),
        "cluster_border": _wrap(dbscan_module.cluster_border, "border.cluster_border", spans),
    }
    saved = {k: getattr(dbscan_module, k) for k in patches}
    try:
        for k, v in patches.items():
            setattr(dbscan_module, k, v)
        yield spans
    finally:
        for k, v in saved.items():
            setattr(dbscan_module, k, v)


def phase_windows(spans: list[Span], stats: dict) -> dict[str, tuple[float, float]]:
    """Absolute [start, end) of each phase of one traced call.

    ``dbscan`` reads its clock just before it calls ``mark_core``; the
    ``mark_core`` span's start anchors that instant, and the returned phase
    durations place the other boundaries around it.
    """
    anchor = next(s.start for s in spans if s.name == "mark_core.mark_core")
    edges = [anchor - stats["t_cells"], anchor]
    for key in ("t_markcore", "t_clustercore", "t_border"):
        edges.append(edges[-1] + stats[key])
    return {p: (edges[i], edges[i + 1]) for i, p in enumerate(PHASES)}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _sums(stages: list[Stage]) -> dict[str, float]:
    return {
        "tasks": sum(s.tasks for s in stages),
        "executor_run_s": sum(s.run_s for s in stages),
        "executor_cpu_s": sum(s.cpu_s for s in stages),
        "shuffle_write_mb": sum(s.shuffle_write_bytes for s in stages) / MB,
        "shuffle_write_rows": sum(s.shuffle_write_rows for s in stages),
        "shuffle_read_mb": sum(s.shuffle_read_bytes for s in stages) / MB,
    }


def attribute(
    windows: dict[str, tuple[float, float]],
    call: tuple[float, float],
    jobs: list[Job],
    stages: list[Stage],
) -> dict[str, dict[str, float]]:
    """Per-phase and whole-call ("spark") figures for one call.

    Only COMPLETE stages count: the store also lists SKIPPED ones, whose work
    an earlier stage already did. A job or stage submitted inside the call
    but outside every phase raises, so nothing is silently dropped.
    """
    lo, hi = call
    jobs = [j for j in jobs if lo <= j.submitted <= hi]
    done = [s for s in stages if s.status == "COMPLETE" and lo <= s.submitted <= hi]

    def phase_of(t: float) -> str:
        for p, (a, b) in windows.items():
            if a <= t < b:
                return p
        raise RuntimeError(f"submitted at {t - lo:.3f}s into the call, outside every phase {windows}")

    out: dict[str, dict[str, float]] = {}
    for p, (a, b) in windows.items():
        ps = [s for s in done if phase_of(s.submitted) == p]
        row = {"wall_s": b - a, "jobs": sum(phase_of(j.submitted) == p for j in jobs)}
        row["driver_s"] = (b - a) - _covered([(s.submitted, s.completed) for s in ps], a, b)
        row.update(_sums(ps))
        del row["shuffle_read_mb"]
        out[p] = row
    total = _sums(done)
    out["spark"] = {
        "jobs": len(jobs),
        "tasks": total["tasks"],
        "executor_run_s": total["executor_run_s"],
        "shuffle_write_mb": total["shuffle_write_mb"],
        "shuffle_read_mb": total["shuffle_read_mb"],
        "driver_s": (hi - lo) - _covered([(s.submitted, s.completed) for s in done], lo, hi),
    }
    return out


class StatusLog:
    """Jobs and stages that Spark finished since the previous ``read``."""

    def __init__(self, sc):
        self._sc = sc
        self._jvm = sc._jvm
        self._store = sc._jsc.sc().statusStore()
        self._bus = sc._jsc.sc().listenerBus()
        self._last_job = -1
        self._seen: set[tuple[int, int]] = set()
        self._offset = 0.0

    def _clock(self, date_opt) -> float:
        return date_opt.get().getTime() / 1000.0 - self._offset

    def read(self) -> tuple[list[Job], list[Stage]]:
        self._bus.waitUntilEmpty()
        # Spark stamps epoch milliseconds; spans use perf_counter(). Sampled
        # per read, so the two clocks cannot drift apart over a long run.
        self._offset = time.time() - time.perf_counter()
        jvm = self._jvm
        js = self._store.jobsList(jvm.java.util.ArrayList())
        jobs = []
        for i in range(js.size()):
            j = js.apply(i)
            if j.jobId() <= self._last_job:
                continue
            ids = j.stageIds()
            jobs.append(Job(
                j.jobId(), self._clock(j.submissionTime()),
                tuple(int(ids.apply(k)) for k in range(ids.size())),
            ))
        if jobs:
            oldest = min(j.job_id for j in jobs)
            if oldest > self._last_job + 1:
                raise RuntimeError(f"status store dropped jobs {self._last_job + 1}..{oldest - 1}")
            self._last_job = max(j.job_id for j in jobs)

        ss = self._store.stageList(
            jvm.java.util.ArrayList(), False, False,
            self._sc._gateway.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
        )
        listed: set[int] = set()
        stages = []
        for i in range(ss.size()):
            s = ss.apply(i)
            key = (s.stageId(), s.attemptId())
            listed.add(key[0])
            if key in self._seen:
                continue
            status = s.status().name()
            if status in ("ACTIVE", "PENDING"):
                continue
            self._seen.add(key)
            if status != "COMPLETE":
                stages.append(Stage(*key, status, 0.0, 0.0, 0, 0.0, 0.0, 0, 0, 0))
                continue
            stages.append(Stage(
                key[0], key[1], status,
                self._clock(s.submissionTime()), self._clock(s.completionTime()),
                s.numCompleteTasks(), s.executorRunTime() / 1e3, s.executorCpuTime() / 1e9,
                s.shuffleWriteBytes(), s.shuffleWriteRecords(), s.shuffleReadBytes(),
            ))
        missing = {sid for j in jobs for sid in j.stage_ids} - listed
        if missing:
            raise RuntimeError(f"status store dropped stages {sorted(missing)[:10]}")
        return jobs, stages

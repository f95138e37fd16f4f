"""The benchmark's fixed DBSCAN workloads.

Each workload is one input generator from ``repro.synth_data``, called with a
fixed generator seed, plus the ``dbscan_variant`` arguments it runs with. The
run's seed permutes the generated points, so ids, row order and the split
into partitions change from seed to seed while the clustering — and with it
every cell, edge and cluster count — stays the same. The program only ever
sees the points DataFrame built from the permuted array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

MIN_PTS = 100


class _PandasSink:
    """Stands in for a SparkSession in the ``synth_data`` generators:
    ``createDataFrame`` hands back the generated pandas frame unchanged, so
    the benchmark holds the exact array it later gives to Spark."""

    @staticmethod
    def createDataFrame(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # the call that makes the unpermuted points
    n: int
    d: int
    eps: float
    variant: str
    make: Callable[[], pd.DataFrame]

    @property
    def cells_layer(self) -> str:
        """Module that builds the cells on this workload."""
        return "box" if "-box-" in self.variant else "grid"

    def generated(self) -> np.ndarray:
        """The (n, d) points in generation order."""
        xc = [f"x{j}" for j in range(self.d)]
        pdf = self.make()
        if len(pdf) != self.n or list(pdf.columns) != ["id"] + xc:
            raise RuntimeError(f"{self.name}: generator returned {pdf.shape} {list(pdf.columns)}")
        return pdf[xc].to_numpy()

    def permutation(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).permutation(self.n)

    def points(self, seed: int) -> pd.DataFrame:
        """(id, x0..x{d-1}): the generated points in the seed's order, id = row."""
        out = pd.DataFrame(
            self.generated()[self.permutation(seed)], columns=[f"x{j}" for j in range(self.d)]
        )
        out.insert(0, "id", np.arange(self.n, dtype=np.int64))
        return out


def _seed_spreader(n: int, d: int, seed: int) -> Callable[[], pd.DataFrame]:
    def make() -> pd.DataFrame:
        from repro import synth_data as sd

        return sd.points_df(_PandasSink, sd.seed_spreader(n, d, seed=seed))

    return make


def _named(gen: str, n: int, seed: int) -> Callable[[], pd.DataFrame]:
    def make() -> pd.DataFrame:
        from repro import synth_data as sd

        return getattr(sd, gen)(_PandasSink, n=n, seed=seed)

    return make


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        # Spark's fixed cost per call dominates: few large cells, most points
        # in dense cells, a one-round cell graph. The ROADMAP baseline row.
        Workload(
            name="ss3d-coarse", generator="seed_spreader(n=10000, d=3, seed=2)",
            n=10000, d=3, eps=300.0, variant="our-exact",
            make=_seed_spreader(10000, 3, seed=2),
        ),
        # The only workload on box cells (built on the driver after toPandas)
        # and USEC: skewed 2D data, no dense cell, three points in four noise,
        # so the mark-core and border fan-outs carry most of the call.
        Workload(
            name="osm2d-box", generator="osm_like(n=12000, seed=0)",
            n=12000, d=2, eps=300.0, variant="our-2d-box-usec",
            make=_named("osm_like", 12000, seed=0),
        ),
        # Point-scale fan-out and per-edge kernels dominate: no dense cells,
        # every candidate edge evaluated in the one-round cell graph.
        Workload(
            name="ss3d-fine", generator="seed_spreader(n=20000, d=3, seed=2)",
            n=20000, d=3, eps=60.0, variant="our-exact",
            make=_seed_spreader(20000, 3, seed=2),
        ),
        # Skewed 3D data on the multi-round bucketing cell graph, where the
        # union-find prunes candidate edges between rounds.
        Workload(
            name="geolife-bucketing", generator="geolife_like(n=50000, seed=1)",
            n=50000, d=3, eps=320.0, variant="our-exact-bucketing",
            make=_named("geolife_like", 50000, seed=1),
        ),
    ]
}

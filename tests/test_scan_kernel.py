"""Pure-numpy tests of the neighbour-cell scan kernel shared by MarkCore and
ClusterBorder (``repro.core.mark_core._scan_kernel``); no Spark session.

Coordinates and eps are small integers, so squared distances are exact and
many query/point pairs sit at exactly eps.
"""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.border import _emit_hits
from repro.core.mark_core import _scan_kernel


@st.composite
def bucket(draw):
    """One bucket's cogroup input: queries (id, x*, tcell) and target-cell
    points (rcell, rx*, cluster); some query targets are absent on the right,
    and either side may be empty."""
    d = draw(st.sampled_from([2, 3]))
    eps = float(draw(st.integers(1, 5)))
    cells = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    coords = st.lists(st.integers(0, 6), min_size=d, max_size=d)
    pts = draw(st.lists(st.tuples(st.sampled_from(cells), coords), max_size=20))
    qs = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from(cells + ["absent"]), coords),
            max_size=20,
        )
    )
    left = pd.DataFrame(
        {
            "id": np.array([i for i, _, _ in qs], dtype=np.int64),
            **{f"x{j}": np.array([x[j] for _, _, x in qs], dtype=np.float64) for j in range(d)},
            "tcell": pd.Series([c for _, c, _ in qs], dtype=object),
        }
    )
    right = pd.DataFrame(
        {
            "rcell": pd.Series([c for c, _ in pts], dtype=object),
            **{f"rx{j}": np.array([x[j] for _, x in pts], dtype=np.float64) for j in range(d)},
            "cluster": np.array([10 * int(c[1:]) + 7 for c, _ in pts], dtype=np.int64),
        }
    )
    return d, eps, left, right


def _brute_counts(d, eps, left, right):
    """(query id, target cell) -> points of that cell within eps, for every
    query whose target cell has points."""
    xc = [f"x{j}" for j in range(d)]
    rxc = [f"rx{j}" for j in range(d)]
    out = []
    for _, q in left.iterrows():
        cell = right[right["rcell"] == q["tcell"]]
        if len(cell) == 0:
            continue
        d2 = ((cell[rxc].to_numpy() - q[xc].to_numpy(dtype=np.float64)) ** 2).sum(axis=1)
        out.append((int(q["id"]), int(cell["cluster"].iloc[0]), int((d2 <= eps * eps).sum())))
    return out


@settings(max_examples=150, deadline=None)
@given(bucket())
def test_mark_core_counts_match_brute(case):
    d, eps, left, right = case
    got = _scan_kernel(d, eps, ("qid", "cnt"))(left, right)
    assert list(got.columns) == ["qid", "cnt"]
    assert got.dtypes.tolist() == [np.int64, np.int64]
    want = sorted((qid, cnt) for qid, _, cnt in _brute_counts(d, eps, left, right))
    assert sorted(zip(got["qid"].tolist(), got["cnt"].tolist())) == want


@settings(max_examples=150, deadline=None)
@given(bucket())
def test_border_hits_match_brute(case):
    d, eps, left, right = case
    got = _scan_kernel(d, eps, ("pid", "cluster"), _emit_hits)(left, right)
    assert list(got.columns) == ["pid", "cluster"]
    assert got.dtypes.tolist() == [np.int64, np.int64]
    want = sorted((qid, cl) for qid, cl, cnt in _brute_counts(d, eps, left, right) if cnt > 0)
    assert sorted(zip(got["pid"].tolist(), got["cluster"].tolist())) == want


def test_exactly_eps_counts_and_hits():
    """A query at exactly eps from a point counts it and hits its cell."""
    left = pd.DataFrame(
        {"id": np.array([1, 2], dtype=np.int64), "x0": [0.0, 0.0], "x1": [0.0, 0.0],
         "tcell": ["a", "b"]}
    )
    right = pd.DataFrame(
        {"rcell": ["a", "a", "b"], "rx0": [3.0, 3.0, 3.0], "rx1": [4.0, 4.01, 4.01],
         "cluster": np.array([5, 5, 9], dtype=np.int64)}
    )
    counts = _scan_kernel(2, 5.0, ("qid", "cnt"))(left, right)
    assert sorted(zip(counts["qid"], counts["cnt"])) == [(1, 1), (2, 0)]
    hits = _scan_kernel(2, 5.0, ("pid", "cluster"), _emit_hits)(left, right)
    assert list(zip(hits["pid"], hits["cluster"])) == [(1, 5)]

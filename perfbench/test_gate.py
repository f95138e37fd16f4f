"""The exact-answer gate accepts the reference answer and catches any change to it."""
import numpy as np
import pandas as pd
import pytest

from gate import check, permuted
from repro import synth_data as sd
from repro.baselines.seq_gridbscan import dbscan_seq


def _points():
    # 437 core points in 8 clusters, 407 border points, 156 noise points.
    return sd.seed_spreader(1000, 2, seed=5, restarts=4)


@pytest.fixture(scope="module")
def reference():
    return dbscan_seq(_points(), 50.0, 25)


def test_permuted_answer_is_the_answer_for_permuted_points(reference):
    perm = np.random.default_rng(3).permutation(1000)
    core, labels = permuted(*reference, perm)
    core_p, labels_p = dbscan_seq(_points()[perm], 50.0, 25)
    assert np.array_equal(core, core_p)
    assert labels == labels_p


def _as_result(core, labels) -> pd.DataFrame:
    """The reference answer in the pipeline's output form: internal labels
    (here 7·canonical+3), rows in reverse id order."""
    n = len(core)
    return pd.DataFrame({
        "id": np.arange(n)[::-1],
        "is_core": core[::-1],
        "clusters": [tuple(sorted(7 * c + 3 for c in labels[i])) for i in range(n)][::-1],
    })


def test_reference_answer_passes(reference):
    core, labels = reference
    assert check(_as_result(core, labels), core, labels) == []


def test_perturbed_label_is_caught(reference):
    core, labels = reference
    border = next(i for i in range(len(core)) if labels[i] and not core[i])
    other = next(c for c in set().union(*labels) if c not in labels[border])
    bad = list(labels)
    bad[border] = frozenset({other})
    problems = check(_as_result(core, bad), core, labels)
    assert problems and "cluster sets differ at 1 points" in problems[0]


def test_noise_given_a_cluster_is_caught(reference):
    core, labels = reference
    noise = next(i for i in range(len(core)) if not labels[i])
    bad = list(labels)
    bad[noise] = next(labels[i] for i in range(len(core)) if core[i])
    assert check(_as_result(core, bad), core, labels)


def test_flipped_core_flag_is_caught(reference):
    core, labels = reference
    bad = core.copy()
    bad[np.flatnonzero(~core)[0]] = True
    assert any("core flags" in p for p in check(_as_result(bad, labels), core, labels))


def test_missing_and_duplicated_rows_are_caught(reference):
    core, labels = reference
    res = _as_result(core, labels)
    assert check(res.iloc[1:], core, labels)
    dup = pd.concat([res, res.iloc[:1]], ignore_index=True)
    assert "1 duplicated" in check(dup, core, labels)[0]

"""The local geodesic certificate behind ``verify_geodesic``.

The certificate must give the same report as one built from BFS distances,
and each way of breaking the sweep must give a counterexample.
"""

import contextlib
import io

import pytest

import gdeen.verify as verify_mod
from gdeen import (
    EnumerationTooLarge,
    GdeenError,
    Params,
    census_expected,
    enumerate_group,
    verify_geodesic,
)
from gdeen.cli import main

# G(1,1,4), G(2,2,3), G(3,3,3), G(6,3,3), G(3,1,3), G(4,2,3), G(4,1,2), G(9,3,4)
REFERENCE_GRID = [
    Params(1, 1, 4),
    Params(1, 2, 3),
    Params(1, 3, 3),
    Params(2, 3, 3),
    Params(3, 1, 3),
    Params(2, 2, 3),
    Params(4, 1, 2),
    Params(3, 3, 4),
]


def bfs_report(params):
    """The report, built from the BFS distances of ``enumerate_group``."""
    table = enumerate_group(params)
    hist = {}
    for dv in table.dist:
        hist[dv] = hist.get(dv, 0) + 1
    top = max(hist)
    report = {
        "ok": True,
        "group": f"G({params.de},{params.e},{params.n})",
        "order": len(table),
        "length_histogram": {str(k): hist[k] for k in sorted(hist)},
        "max_length": top,
        "max_length_count": hist[top],
    }
    expected = census_expected(params)
    if expected is not None:
        report["census_expected"] = {"max_length": expected[0], "count": expected[1]}
        report["ok"] = expected == (top, hist[top])
    return report


@pytest.mark.parametrize("params", REFERENCE_GRID, ids=str)
def test_certificate_matches_bfs_report(params):
    assert verify_geodesic(params) == bfs_report(params)


def test_long_lengths_need_a_wider_array():
    # lengths up to 258 do not fit in a byte
    report = verify_geodesic(Params(129, 1, 2))
    assert report["ok"]
    assert (report["max_length"], report["max_length_count"]) == (258, 1)


def test_g336_certifies():
    report = verify_geodesic(Params(1, 3, 6))
    assert report["ok"] and report["order"] == 174960


def test_cap_keeps_its_meaning():
    with pytest.raises(EnumerationTooLarge, match=r"\|G\(9,3,4\)\| = 52488 exceeds cap 100"):
        verify_geodesic(Params(3, 3, 4), cap=100)


# Mutations of the sweep in G(3,3,3), whose alphabet is t0 t1 t2 s3
# (positions 0 to 3).  Each replaces the parts of one element.
G333 = Params(1, 3, 3)
ARGV_333 = ["verify-geodesic", "--d", "1", "--e", "3", "--n", "3"]
IDENTITY = ((1, 2, 3), (0, 0, 0))
S3 = ((1, 3, 2), (0, 0, 0))
T1 = ((2, 1, 3), (2, 1, 0))


def mutate(monkeypatch, target, edit):
    real = verify_mod._sweeps

    def sweeps(params, perms, vecs):
        for perm, ks, parts in real(params, perms, vecs):
            yield perm, ks, edit(parts) if (perm, ks) == target else parts

    monkeypatch.setattr(verify_mod, "_sweeps", sweeps)


def counterexample(target, length):
    report = verify_geodesic(G333)
    assert not report["ok"]
    cx = report["counterexample"]
    assert cx["element"] == {"perm": list(target[0]), "exps": list(target[1])}
    assert cx["normal_form_length"] == length
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(ARGV_333) == 1
    return cx


def test_padded_word_breaks_the_lipschitz_step(monkeypatch):
    # s3 s3 s3 still spells s3, but s3 * 1 has the one-letter word s3
    mutate(monkeypatch, S3, lambda parts: parts[:-1] + [parts[-1] + [3, 3]])
    cx = counterexample(S3, 3)
    assert cx["shorter_word"] == "s3"


def test_nonempty_identity_word_is_refused(monkeypatch):
    mutate(monkeypatch, IDENTITY, lambda parts: [[0, 0]] + parts[1:])
    cx = counterexample(IDENTITY, 2)
    assert "identity" in cx["reason"]


def test_word_of_another_element_is_refused(monkeypatch):
    assert next(verify_mod._sweeps(G333, [T1[0]], [T1[1]]))[2] == [[1], []]
    mutate(monkeypatch, T1, lambda parts: [[2], []])  # t2 instead of t1
    cx = counterexample(T1, 1)
    assert "evaluate" in cx["reason"]


def test_length_that_does_not_fit_raises(monkeypatch):
    # s3 then 300 more s3 still spells s3, but no byte holds the length
    mutate(monkeypatch, S3, lambda parts: parts[:-1] + [parts[-1] + [3] * 300])
    with pytest.raises(GdeenError, match="does not fit"):
        verify_geodesic(G333)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(ARGV_333) == 2


@pytest.mark.slow
def test_g935_census():
    report = verify_geodesic(Params(3, 3, 5), cap=3 * 10**6)
    assert report["ok"] and report["order"] == 2361960
    assert (report["max_length"], report["max_length_count"]) == (22, 4096)


@pytest.mark.slow
def test_g228_certifies():
    report = verify_geodesic(Params(1, 2, 8), cap=6 * 10**6)
    assert report["ok"] and report["order"] == 5160960

"""The local geodesic certificate behind ``verify_geodesic``.

The certificate must give the same report as one built from BFS distances,
and each way of breaking the walk of the normal forms must give a
counterexample.
"""

import contextlib
import io
import json

import pytest
from cayley_oracle import enumerate_group

import gdeen.verify as verify_mod
from gdeen import (
    EnumerationTooLarge,
    GdeenError,
    GroupElement,
    Params,
    ParamsMismatch,
    census_expected,
    verify_geodesic,
)
from gdeen.cli import main
from gdeen.normal_form import _grow, _parts, _plan, _rank_order, _walk

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


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("params", REFERENCE_GRID, ids=str)
def test_certificate_matches_bfs_report(params):
    report = bfs_report(params)
    assert verify_geodesic(params) == report
    # enumerate prints the certified order and histogram
    argv = ["enumerate", "--d", str(params.d), "--e", str(params.e), "--n", str(params.n)]
    expected = {key: report[key] for key in ("order", "length_histogram")}
    assert run_main(argv) == (0, json.dumps(expected) + "\n")


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


@pytest.mark.parametrize("cap", ["x", None, 2.5, 10.0**6, True], ids=repr)
def test_cap_that_is_not_an_int_is_refused(cap):
    with pytest.raises(ParamsMismatch, match="cap must be an int"):
        verify_geodesic(Params(1, 3, 3), cap=cap)


@pytest.mark.parametrize("params", REFERENCE_GRID, ids=str)
def test_walk_reaches_every_rank_once(params):
    # and hands over the parts that the walk along one element's exponents does
    perms, vecs = _rank_order(params, 10**6)
    perms, plan, width, seen = list(perms), _plan(params), len(vecs), []

    def leaf(parts, rank):
        g = GroupElement(params, perms[rank // width], vecs[rank % width])
        assert _parts(g)[1] == parts[::-1]
        seen.append(rank)

    for p_rank, perm in enumerate(perms):
        _walk(plan, perm, None, (), _grow, leaf, p_rank * width)
    assert sorted(seen) == list(range(params.order()))


# Mutations of the walk in G(3,3,3), whose alphabet is t0 t1 t2 s3
# (positions 0 to 3).  Each replaces the parts of one element.
G333 = Params(1, 3, 3)
ARGV_333 = ["verify-geodesic", "--d", "1", "--e", "3", "--n", "3"]
IDENTITY = ((1, 2, 3), (0, 0, 0))
S3 = ((1, 3, 2), (0, 0, 0))
T1 = ((2, 1, 3), (2, 1, 0))


def rank_of(target):
    perms, vecs = _rank_order(G333, 10**6)
    return list(perms).index(target[0]) * len(vecs) + vecs.index(target[1])


def rewalk(monkeypatch, edit_leaf):
    """Run the certificate on a walk whose leaves go through
    ``edit_leaf(leaf, state, rank)``."""
    real = verify_mod._walk

    def walk(plan, perm, exps, state, step, leaf, rank=0):
        real(plan, perm, exps, state, step, lambda st, at: edit_leaf(leaf, st, at), rank)

    monkeypatch.setattr(verify_mod, "_walk", walk)


def mutate(monkeypatch, target, edit):
    """Hand the certificate edit(parts) for the target's parts, lowest level
    first, each part a list of alphabet positions."""
    real, goal = verify_mod._walk, rank_of(target)

    def walk(plan, perm, exps, state, step, leaf, rank=0):
        def replay(parts, at):
            if at == goal:
                parts = edit([list(p) for p in reversed(parts)])[::-1]
            out = state
            for part in parts:
                out = step(out, part)
            leaf(out, at)

        real(plan, perm, exps, (), _grow, replay, rank)

    monkeypatch.setattr(verify_mod, "_walk", walk)


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


def test_enumerate_prints_the_counterexample(monkeypatch):
    # a broken normal form is a counterexample for enumerate too: exit 1,
    # with the certificate's report in place of the histogram
    mutate(monkeypatch, S3, lambda parts: parts[:-1] + [parts[-1] + [3, 3]])
    code, out = run_main(["enumerate", *ARGV_333[1:]])
    assert code == 1
    report = json.loads(out)
    assert report == verify_geodesic(G333)
    assert report["counterexample"]["shorter_word"] == "s3"


def test_enumerate_exits_1_on_a_census_mismatch(monkeypatch):
    monkeypatch.setattr(verify_mod, "census_expected", lambda params: (0, 1))
    code, out = run_main(["enumerate", *ARGV_333[1:]])
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and report["census_expected"] == {"max_length": 0, "count": 1}


def test_nonempty_identity_word_is_refused(monkeypatch):
    mutate(monkeypatch, IDENTITY, lambda parts: [[0, 0]] + parts[1:])
    cx = counterexample(IDENTITY, 2)
    assert "identity" in cx["reason"]


def test_word_of_another_element_is_refused(monkeypatch):
    assert [list(p) for p in _parts(GroupElement(G333, *T1))[1]] == [[1], []]
    mutate(monkeypatch, T1, lambda parts: [[2], []])  # t2 instead of t1
    cx = counterexample(T1, 1)
    assert "evaluate" in cx["reason"]


def test_walk_that_reaches_an_element_twice_is_refused(monkeypatch):
    # the walk hands the identity's state over again in place of T1's, so
    # it skips T1; every normal form it hands over still spells its element
    goal, first = rank_of(T1), []

    def twice(leaf, state, rank):
        if rank == 0:
            first.append(state)
        leaf(*((first[0], 0) if rank == goal else (state, rank)))

    rewalk(monkeypatch, twice)
    cx = counterexample(IDENTITY, 0)
    assert "twice" in cx["reason"]


def test_walk_that_skips_an_element_is_refused(monkeypatch):
    goal = rank_of(T1)
    rewalk(monkeypatch, lambda leaf, state, rank: rank == goal or leaf(state, rank))
    cx = counterexample(T1, 1)
    assert "does not reach" in cx["reason"]


def test_census_mismatch_is_refused(monkeypatch):
    monkeypatch.setattr(verify_mod, "census_expected", lambda params: (0, 1))
    report = verify_geodesic(G333)
    assert not report["ok"]
    assert report["census_expected"] == {"max_length": 0, "count": 1}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(ARGV_333) == 1


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

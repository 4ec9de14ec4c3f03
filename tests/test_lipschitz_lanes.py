"""The Lipschitz step of ``verify_geodesic`` on digit windows.

Passing runs must certify without the entry-by-entry scan, and a broken f
must give the report that the scan over all of f gives, counterexample for
counterexample.
"""

import random
from array import array
from operator import sub

import pytest

import gdeen.verify as verify_mod
from gdeen import GroupElement, InvariantViolation, Params, verify_geodesic
from gdeen.normal_form import _grow, _plan, _rank_order, _walk, normal_form
from gdeen.words import alphabet, word_text

from test_certificate import REFERENCE_GRID

# W = 1; n = 2, so the t-letters' window has no digits above it; d = 1, so
# the last digit has radix 1; e = 1, so s_n moves plain digits
EDGE_SHAPES = [Params(1, 1, 4), Params(4, 4, 2), Params(1, 3, 3), Params(3, 1, 3)]


def lengths(params):
    """f by rank: each element's normal-form length, from the level walk."""
    perms, vecs = _rank_order(params, 10**6)
    plan, width = _plan(params), len(vecs)
    f = [None] * params.order()

    def leaf(parts, rank):
        f[rank] = sum(map(len, parts))

    for p_rank, perm in enumerate(perms):
        _walk(plan, perm, None, (), _grow, leaf, p_rank * width)
    return f


def first_failure(params, f):
    """The first (permutation rank, letter, exponent rank) at which f fails
    the Lipschitz step, scanned block by block as the certificate scanned
    it before its lanes; None if f passes."""
    perms, vecs, tables = verify_mod._left_action(params, 10**6)
    width = len(vecs)
    for p_rank in range(len(perms)):
        here = f[p_rank * width : (p_rank + 1) * width]
        for x, (ptab, etab) in enumerate(tables):
            q_rank = ptab[p_rank]
            there = f[q_rank * width : (q_rank + 1) * width]
            if max(map(sub, map(there.__getitem__, etab), here)) > 1:
                return p_rank, x, next(i for i, j in enumerate(etab) if there[j] > here[i] + 1)
    return None


def scan_report(params, f):
    """The failure report that the scan's first failure gives."""
    perms, vecs, tables = verify_mod._left_action(params, 10**6)
    (p_rank, x, e_rank), width = first_failure(params, f), len(vecs)
    q_rank, j = tables[x][0][p_rank], tables[x][1][e_rank]
    g = GroupElement(params, perms[p_rank], vecs[e_rank])
    return {
        "ok": False,
        "group": f"G({params.de},{params.e},{params.n})",
        "counterexample": {
            "element": {"perm": list(perms[q_rank]), "exps": list(vecs[j])},
            "normal_form_length": f[q_rank * width + j],
            "reason": "a shorter word spells the element",
            "shorter_word": f"{alphabet(params)[x]} {word_text(normal_form(g).word)}".strip(),
        },
    }


def pad(monkeypatch, params, goal):
    """Hand the certificate the normal form at rank ``goal`` with its top
    part padded by s s, s the alphabet's last letter, as ``mutate`` in
    test_certificate pads it; return f with that length."""
    real, s = verify_mod._walk, len(alphabet(params)) - 1

    def walk(plan, perm, exps, state, step, leaf, rank=0):
        def replay(parts, at):
            if at == goal:
                parts = (parts[0] + (s, s),) + parts[1:]
            out = state
            for part in parts:
                out = step(out, part)
            leaf(out, at)

        real(plan, perm, exps, (), _grow, replay, rank)

    monkeypatch.setattr(verify_mod, "_walk", walk)
    f = lengths(params)
    f[goal] += 2
    return f


@pytest.fixture
def no_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("a passing run fell back to the scan")

    monkeypatch.setattr(verify_mod, "_scan", scan)


@pytest.mark.parametrize("params", REFERENCE_GRID + EDGE_SHAPES, ids=str)
def test_passing_runs_need_no_scan(no_scan, params):
    assert verify_geodesic(params)["ok"]


# G(124,1,2) keeps its lengths, up to 248, in a byte array, G(129,1,2) in
# a 16-bit one; both need 16-bit lanes
@pytest.mark.parametrize("params, top", [(Params(124, 1, 2), 248), (Params(129, 1, 2), 258)], ids=str)
def test_long_lengths_take_wide_lanes(no_scan, params, top):
    report = verify_geodesic(params)
    assert report["ok"] and (report["max_length"], report["max_length_count"]) == (top, 1)


@pytest.mark.parametrize("params", [Params(124, 1, 2), Params(129, 1, 2)], ids=str)
@pytest.mark.parametrize("seed", range(2))
def test_wide_lanes_refuse_a_padded_word(monkeypatch, params, seed):
    f = pad(monkeypatch, params, random.Random(seed).randrange(params.order()))
    report = verify_geodesic(params)
    assert not report["ok"] and report == scan_report(params, f)


# the first letter of the shorter word of some cases below: s_n with e > 1,
# a z and a t_k
FIRST_LETTER = {(Params(3, 3, 4), 0): "s4", (Params(3, 3, 4), 1): "z", (Params(3, 3, 4), 3): "t8"}
PARITY_GROUPS = [Params(1, 3, 3), Params(3, 3, 4), Params(2, 2, 3), Params(3, 1, 3), Params(1, 2, 4)]


@pytest.mark.parametrize("params", PARITY_GROUPS, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_failure_report_matches_the_scan(monkeypatch, params, seed):
    f = pad(monkeypatch, params, random.Random(seed).randrange(params.order()))
    report, expected = verify_geodesic(params), scan_report(params, f)
    assert not report["ok"] and report == expected
    if (params, seed) in FIRST_LETTER:
        assert expected["counterexample"]["shorter_word"].split()[0] == FIRST_LETTER[params, seed]


# lengths shifted up to the largest that 8- and 16-bit lanes hold, and one
# past; f as it is, then an entry lowered by 2, or to 0, so that some
# f(g) - f(x*g) reaches top
@pytest.mark.parametrize("top", [126, 127, 32766, 32767])
@pytest.mark.parametrize("params", [Params(3, 3, 3), Params(1, 3, 3), Params(2, 2, 3)], ids=str)
def test_lanes_hold_lengths_up_to_their_guard_bit(params, top):
    perms, vecs, tables = verify_mod._left_action(params, 10**6)
    width = len(vecs)
    windows = verify_mod._windows(params, tables, width)
    base = lengths(params)
    base = [k + top - max(base) for k in base]
    rng = random.Random(top)
    for rank, drop in [(0, 0)] + [(rng.randrange(len(base)), drop) for drop in (2, top) for _ in range(4)]:
        f = array("I", base)
        f[rank] = max(f[rank] - drop, 0)
        found = first_failure(params, f)
        assert verify_mod._lipschitz(f, top, tables, windows, width) == (found and found[:2])


@pytest.mark.parametrize("letter", ["s3", "s4", "z", "t2"])
def test_window_maps_are_anchored_to_the_tables(letter):
    # G(9,3,4): s3 moves two middle digits, s4 the last two, z the top one
    params = Params(3, 3, 4)
    perms, vecs, tables = verify_mod._left_action(params, 10**6)
    x = [str(sym) for sym in alphabet(params)].index(letter)
    etab = tables[x][1]
    etab[5], etab[700] = etab[700], etab[5]
    with pytest.raises(InvariantViolation, match="disagrees with its table"):
        verify_mod._windows(params, tables, len(vecs))


def test_a_block_that_fails_its_lanes_but_passes_its_scan_is_refused(monkeypatch):
    # the lanes and the scan must agree; where they do not, the certificate
    # raises rather than name a counterexample that the scan cannot find
    monkeypatch.setattr(verify_mod, "_lipschitz", lambda *args: (0, 0))
    with pytest.raises(InvariantViolation, match="fails its lanes on permutation 0 but passes its scan"):
        verify_geodesic(Params(3, 3, 3))

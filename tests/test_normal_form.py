"""Geodesic normal forms: worked examples, block-recursion oracle, censuses.

The block oracle recomputes the per-level parts straight from the block
definitions (peel row i and its column, scaling the first column in the
general case), independently of the row-sweep implementation, and the two
routes must agree on every element.
"""

import tracemalloc

import pytest
from cayley_oracle import enumerate_group

from gdeen import (
    EnumerationTooLarge,
    GroupElement,
    InvariantViolation,
    Params,
    alphabet,
    element,
    eval_word,
    generator,
    identity,
    make_word,
    mul,
    normal_form,
    word_text,
)
from gdeen.normal_form import (
    _plan,
    all_elements,
    census_expected,
    length,
    longest_element_word,
    max_length_census,
    max_length_witness_word,
)
from gdeen.words import S, T, Z

SMALL_GRID = [
    Params(1, 1, 3),
    Params(1, 3, 3),
    Params(1, 2, 4),
    Params(2, 1, 3),
    Params(3, 1, 3),
    Params(2, 2, 3),
    Params(3, 3, 2),
    Params(3, 2, 2),
    Params(2, 3, 3),
]


def dense(g):
    n = g.params.n
    mat = [[None] * n for _ in range(n)]
    for i, (c, k) in enumerate(zip(g.perm, g.exps)):
        mat[i][c - 1] = k
    return mat


def peel_blocks(g):
    """(c_i, k_i) for i = n..2 plus the 1x1 residue, per the block lemmas."""
    params = g.params
    scale = params.e > 1 or params.d == 1  # the t-letter branch scales column 1
    de = params.de
    mat = dense(g)
    data = {}
    for i in range(params.n, 1, -1):
        row = mat[i - 1]
        c = next(j for j, v in enumerate(row) if v is not None)
        k = row[c]
        data[i] = (c + 1, k)
        mat = [r[:c] + r[c + 1 :] for r in mat[:-1]]
        if scale:
            for r in mat:
                if r[0] is not None:
                    r[0] = (r[0] + k) % de
    data[1] = mat[0][0]
    return data


def expected_parts(params, data):
    """Def-style part words straight from the block data."""
    n, e = params.n, params.e
    tline = params.e > 1 or params.d == 1
    parts = {}
    for i in range(2, n + 1):
        c, k = data[i]
        if tline:
            desc3 = [S(j) for j in range(i, 2, -1)]
            if k == 0:
                if c == 1:
                    syms = desc3 + [T(0)]
                else:
                    syms = [S(j) for j in range(i, c, -1)]
            elif c == 1:
                syms = desc3 + [T(k)]
            elif c == 2:
                syms = desc3 + [T(k), T(0)]
            else:
                syms = desc3 + [T(k), T(0)] + [S(j) for j in range(3, c + 1)]
        else:
            if k == 0:
                syms = [S(j) for j in range(i, c, -1)]
            else:
                desc2 = [S(j) for j in range(i, 1, -1)]
                syms = desc2 + [Z] * k + [S(j) for j in range(2, c + 1)]
        parts[i] = syms
    if params.d > 1:
        k1 = data[1]
        if tline:
            assert k1 % e == 0
            parts[1] = [Z] * (k1 // e)
        else:
            parts[1] = [Z] * k1
    else:
        assert data[1] == 0
    return parts


def test_example_34_exact():
    params = Params(3, 3, 4)
    g = element(params, [1, 3, 4, 2], [1, 0, 1, 1])
    nf = normal_form(g)
    assert word_text(nf.word) == "z s3 t1 t0 s3 s4 s3 t1 t0"
    by_level = {lvl: word_text(w) for lvl, w in zip(nf.levels, nf.parts)}
    assert by_level == {1: "z", 2: "", 3: "s3 t1 t0 s3", 4: "s4 s3 t1 t0"}
    assert eval_word(nf.word) == g
    assert length(g) == 9


def test_example_318_exact():
    params = Params(3, 1, 3)
    g = element(params, [2, 3, 1], [1, 2, 2])
    nf = normal_form(g)
    assert word_text(nf.word) == "z s2 z z s2 s3 s2 z z"
    by_level = {lvl: word_text(w) for lvl, w in zip(nf.levels, nf.parts)}
    assert by_level == {1: "z", 2: "s2 z z s2", 3: "s3 s2 z z"}
    assert eval_word(nf.word) == g


def test_identity_normal_form():
    for params in SMALL_GRID:
        nf = normal_form(identity(params))
        assert len(nf.word) == 0
        assert all(len(p) == 0 for p in nf.parts)


def test_generators_have_one_letter_forms():
    for params in SMALL_GRID:
        for sym in alphabet(params):
            nf = normal_form(generator(params, sym))
            assert nf.word.syms == (sym,), (params, sym, word_text(nf.word))


@pytest.mark.parametrize("params", SMALL_GRID)
def test_soundness_and_block_oracle(params):
    seen = set()
    for g in all_elements(params):
        nf = normal_form(g)
        assert eval_word(nf.word) == g
        expect = expected_parts(params, peel_blocks(g))
        got = {lvl: list(w.syms) for lvl, w in zip(nf.levels, nf.parts)}
        assert got == {lvl: expect[lvl] for lvl in nf.levels}
        seen.add(tuple(tuple(w.syms) for w in nf.parts))
    # the parts map is a bijection onto shape-valid tuples
    assert len(seen) == params.order()


@pytest.mark.parametrize("params", [Params(1, 3, 3), Params(2, 3, 2), Params(3, 1, 3)])
def test_normal_form_words_are_valid_words(params):
    # normal_form builds its words without make_word's alphabet check
    for g in all_elements(params):
        nf = normal_form(g)
        for w in (nf.word, *nf.parts):
            assert make_word(params, w.syms) == w


@pytest.mark.parametrize("params", [Params(1, 3, 3), Params(2, 1, 3), Params(3, 2, 2)])
def test_geodesy_against_bfs(params):
    table = enumerate_group(params)
    for g, dist in zip(table.elements, table.dist):
        assert length(g) == dist


@pytest.mark.parametrize("params", [Params(1, 3, 3), Params(3, 1, 2), Params(2, 2, 3)])
def test_lipschitz(params):
    gens = [generator(params, sym) for sym in alphabet(params)]
    for g in all_elements(params):
        lg = length(g)
        for x in gens:
            assert length(mul(x, g)) <= lg + 1


def test_census_g622():
    params = Params(3, 2, 2)
    max_len, count, witnesses = max_length_census(params)
    assert (max_len, count) == (4, 5)
    assert census_expected(params) == (4, 5)
    for nf in witnesses:
        g = eval_word(nf.word)
        assert g.perm == (1, 2)  # diagonal
        assert all(k != 0 for k in g.exps[1:])
        # level-1 exponent satisfies x + sum(k_i) = e(d-1) mod de
        assert (g.exps[0] + sum(g.exps[1:])) % params.de == params.e * (params.d - 1)
        assert nf.word == max_length_witness_word(params, g.exps[1:])


def test_census_g313():
    params = Params(3, 1, 3)
    max_len, count, witnesses = max_length_census(params)
    assert (max_len, count) == (12, 1)
    assert word_text(witnesses[0].word) == "z z s2 z z s2 s3 s2 z z s2 s3"
    assert witnesses[0].word == longest_element_word(params)
    g = eval_word(witnesses[0].word)
    assert g.perm == (1, 2, 3) and g.exps == (2, 2, 2)


def test_census_g213_is_n_squared():
    max_len, count, _ = max_length_census(Params(2, 1, 3))
    assert (max_len, count) == (9, 1)


def test_census_cap():
    with pytest.raises(EnumerationTooLarge):
        max_length_census(Params(3, 3, 4), cap=100)


@pytest.mark.parametrize(
    "params, perm, exps",
    [(Params(3, 3, 3), (2, 1, 3), (1, 0, 0)), (Params(2, 2, 4), (1, 2, 3, 4), (0, 0, 0, 1))],
    ids=["G(9,3,3)", "G(4,2,4)"],
)
def test_an_element_off_the_group_reaches_no_normal_form(params, perm, exps):
    # built past ``element``'s check, with an exponent sum that is not 0 mod
    # e: no level-1 exponent closes the walk, so it reaches no leaf
    g = GroupElement(params, perm, exps)
    for f in (normal_form, length):
        with pytest.raises(InvariantViolation, match="reaches no normal form"):
            f(g)


def test_word_input_matches_matrix_route():
    params = Params(1, 3, 4)
    w = make_word(params, [S(3), S(4)])
    nf = normal_form(eval_word(w))
    assert len(nf.word) == 2
    assert eval_word(nf.word) == eval_word(w)


def test_plan_is_linear_in_d():
    # the plan builds each z-power when a sweep uses it, not ahead of time:
    # a table of every z^q took about 120 MB at d = 4000
    params = Params(4000, 1, 2)
    tracemalloc.start()
    try:
        _plan.__wrapped__(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    word = make_word(params, [Z] * 3999 + [S(2), Z, S(2)])
    nf = normal_form(eval_word(word))
    assert eval_word(nf.word) == eval_word(word) and len(nf.word) == len(word.syms)

"""Alphabets, word evaluation and the relation tables."""

import random
import tracemalloc

import pytest

from gdeen import (
    BadFormat,
    Params,
    UnknownSymbol,
    alphabet,
    element,
    eval_word,
    generator,
    identity,
    make_word,
    mul,
    parse_word,
    relations,
    word_text,
)
from gdeen.words import S, Sym, T, Word, Z


def test_alphabet_g333():
    syms = alphabet(Params(1, 3, 3))
    assert syms == [T(0), T(1), T(2), S(3)]


def test_alphabet_g313():
    syms = alphabet(Params(3, 1, 3))
    assert syms == [Z, S(2), S(3)]


def test_alphabet_g622():
    syms = alphabet(Params(3, 2, 2))
    assert len(syms) == 7
    assert syms == [Z] + [T(k) for k in range(6)]


def test_empty_word_is_identity():
    params = Params(2, 2, 2)
    assert eval_word(make_word(params, [])) == identity(params)


def test_eval_example_34():
    params = Params(3, 3, 4)
    w = parse_word(params, "z s3 t1 t0 s3 s4 s3 t1 t0")
    assert eval_word(w) == element(params, [1, 3, 4, 2], [1, 0, 1, 1])


def test_eval_example_318():
    params = Params(3, 1, 3)
    w = parse_word(params, "z s2 z z s2 s3 s2 z z")
    assert eval_word(w) == element(params, [2, 3, 1], [1, 2, 2])


def test_relations_g333_contains_expected():
    params = Params(1, 3, 3)
    rels = {(word_text(u), word_text(v)) for u, v in relations(params)}
    assert ("t1 t0", "t2 t1") in rels or ("t2 t1", "t1 t0") in rels
    assert ("t0 s3 t0", "s3 t0 s3") in rels


def test_relations_g313_contains_z_braid():
    params = Params(3, 1, 3)
    rels = {(word_text(u), word_text(v)) for u, v in relations(params)}
    assert ("z s2 z s2", "s2 z s2 z") in rels


@pytest.mark.parametrize(
    "params",
    [
        Params(1, 1, 3),
        Params(1, 2, 3),
        Params(1, 3, 3),
        Params(1, 3, 4),
        Params(2, 1, 3),
        Params(3, 1, 3),
        Params(3, 1, 4),
        Params(2, 2, 2),
        Params(2, 2, 3),
        Params(3, 3, 3),
        Params(3, 2, 3),
        Params(2, 3, 3),
    ],
)
def test_all_relations_hold_on_matrices(params):
    rels = relations(params)
    assert rels
    for u, v in rels:
        assert eval_word(u) == eval_word(v), (word_text(u), word_text(v))


def test_eval_is_homomorphism():
    params = Params(3, 3, 3)
    u = parse_word(params, "t0 s3 t2")
    v = parse_word(params, "t1 t1 s3")
    uv = make_word(params, u.syms + v.syms)
    assert eval_word(uv) == mul(eval_word(u), eval_word(v))


@pytest.mark.parametrize("params", [Params(1, 3, 4), Params(3, 3, 3), Params(3, 1, 3)])
def test_eval_word_is_the_mul_fold(params):
    rng = random.Random(7)
    syms = alphabet(params)
    for size in [0, 1, 2, 5, 9, 17, 30]:
        w = make_word(params, [rng.choice(syms) for _ in range(size)])
        g = identity(params)
        for sym in w.syms:
            g = mul(g, generator(params, sym))
        assert eval_word(w) == g, word_text(w)


def test_eval_word_rejects_a_letter_outside_the_alphabet():
    # a Word built directly skips make_word's check
    with pytest.raises(UnknownSymbol):
        eval_word(Word(Params(1, 3, 3), (T(0), T(99))))


NOT_LETTERS = {
    "float-index": lambda: make_word(Params(1, 6, 3), [Sym("t", 2.5)]),
    "float-generator": lambda: generator(Params(1, 3, 3), Sym("t", 1.0)),
    "bool-index": lambda: make_word(Params(1, 3, 3), [Sym("t", True)]),
    # s3 first, so that the matrix that s3.0 would find is there
    "float-eval": lambda: eval_word(Word(Params(1, 3, 3), (S(3), Sym("s", 3.0)))),
    "str": lambda: make_word(Params(1, 3, 3), ["t0"]),
    "none": lambda: make_word(Params(1, 3, 3), [None]),
}


@pytest.mark.parametrize("call", NOT_LETTERS.values(), ids=NOT_LETTERS.keys())
def test_a_letter_is_a_sym_with_an_int_index(call):
    # t2.5 gave the exponents 3.5 and 2.5, t1.0 and tTrue passed as t1, and
    # the others raised a bare TypeError or AttributeError
    with pytest.raises(UnknownSymbol):
        call()


def test_parse_roundtrip_and_json_form():
    params = Params(3, 3, 4)
    w = parse_word(params, "z s3 t1 t0")
    assert word_text(w) == "z s3 t1 t0"
    assert parse_word(params, '["z", "s3", "t1", "t0"]') == w


def test_parse_rejects_bad_tokens():
    params = Params(1, 2, 3)
    with pytest.raises(BadFormat):
        parse_word(params, "t0 q3")
    with pytest.raises(BadFormat):
        parse_word(params, "t\u00b2")  # a Unicode digit is not an index
    with pytest.raises(UnknownSymbol):
        parse_word(params, "z t0")  # z needs d > 1
    with pytest.raises(UnknownSymbol):
        parse_word(params, "s2")  # s2 only exists when e = 1
    with pytest.raises(UnknownSymbol):
        parse_word(params, "t5")  # t-index out of range


def test_symbol_validity_dispatch():
    # e = 1, d > 1: {z, s2..sn}; no t's
    assert alphabet(Params(2, 1, 3)) == [Z, S(2), S(3)]
    with pytest.raises(UnknownSymbol):
        parse_word(Params(2, 1, 3), "t0")
    # d = 1, e = 1: the symmetric group keeps t0 as the first transposition
    assert alphabet(Params(1, 1, 3)) == [T(0), S(3)]


def test_word_length_counts_letters():
    params = Params(3, 1, 2)
    w = parse_word(params, "z z s2")
    assert len(w) == 3


def test_eval_word_builds_only_the_letters_it_uses():
    # G(30000,3,2) has 30 001 letters; building every generator matrix for
    # one t1 took about 19 MB
    params = Params(10000, 3, 2)
    tracemalloc.start()
    try:
        g = eval_word(make_word(params, [T(1)]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert g == generator(params, T(1))


def _t_after_a_bool():
    T(True)  # must not stand in for T(1.0) in the letter cache
    return make_word(Params(1, 3, 3), [T(1.0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_word(Params(3, 3, 3), [Sym("z", 5)]), "z"),
        (lambda: make_word(Params(3, 3, 3), [Sym("z", 5)]), "symbol z with index 5 is not"),
        (_t_after_a_bool, r"i=1\.0"),
        (lambda: eval_word(Word(Params(1, 3, 3), (Sym("t", [0]),))), r"i=\[0\]"),
    ],
    ids=[
        "z-with-an-index",
        "z-names-its-index",
        "t-of-a-float-after-a-bool",
        "unhashable-index-in-eval",
    ],
)
def test_malformed_letters_are_refused(build, message):
    with pytest.raises(UnknownSymbol, match=message):
        build()

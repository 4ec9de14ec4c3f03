"""The Hecke algebras on the geodesic basis: reductions, oracle checks.

Expected values below were either taken verbatim from worked identities
(e.g. the t_j t_i recurrence, the (s_2 z s_2)^2 expansion) or computed by
the specialization oracle: setting a -> 0 and b_i -> 0 must turn every
product into the corresponding product of group elements.
"""

import os
import random
import resource
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import gdeen
import gdeen.hecke as hecke_mod
from gdeen import (
    EnumerationTooLarge,
    GdeenError,
    HeckeElement,
    HeckeParams,
    InvariantViolation,
    ParamsMismatch,
    Poly,
    RecursionGuardExceeded,
    UnknownSymbol,
    apply_word,
    as_word,
    basis_element,
    basis_enumerate,
    d1n,
    een,
    eval_word,
    hecke_mul,
    hecke_relations,
    leftmul_generator,
    make_word,
    mul,
    pow_s2zs2,
    reduce_word,
    s2_zk_s2,
    specialize_to_group,
)
from gdeen.hecke import ONE, identity_index, unit, validate_basis_index
from gdeen.verify import verify_hecke
from gdeen.words import S, Sym, T, Z, alphabet, generator


def A(hp):
    return Poly.variable(hp.arity, 0)


def one_poly(hp):
    return Poly.const(hp.arity, 1)


def elem(hp, mapping):
    return HeckeElement(hp, mapping)


def from_words(hp, pairs):
    """Build an expected element from (coeff, word-text) pairs; each word
    must be the normal form of a basis element."""
    by_word = {
        " ".join(str(s) for s in as_word(hp, lam).syms): lam
        for lam in basis_enumerate(hp)
    }
    combo = {}
    for coeff, text in pairs:
        combo[by_word[text]] = coeff
    return elem(hp, combo)


def test_params_validation():
    with pytest.raises(ParamsMismatch):
        een(2, 2)  # (n = 2, e even) excluded
    with pytest.raises(ParamsMismatch):
        d1n(1, 3)
    een(3, 2)
    een(2, 3)
    d1n(2, 2)


def test_params_need_a_known_family():
    with pytest.raises(ParamsMismatch, match="unknown family"):
        HeckeParams("e1n", 3, 3)


def test_elements_of_different_algebras_are_unequal():
    h = reduce_word(een(3, 3), "s3")
    assert h == reduce_word(een(3, 3), "s3")
    assert h != reduce_word(een(2, 3), "s3") and not h == reduce_word(een(2, 3), "s3")
    assert h != "s3"


def test_basis_counts():
    assert len(basis_enumerate(een(3, 3))) == 54
    assert len(basis_enumerate(d1n(2, 2))) == 8
    assert len(basis_enumerate(een(1, 3))) == 6


@pytest.mark.parametrize(
    "hp",
    [een(1, 3), een(2, 3), een(3, 3), een(3, 2), d1n(2, 2), d1n(3, 2), d1n(2, 3)],
)
def test_basis_bijection(hp):
    basis = basis_enumerate(hp)
    gp = hp.group_params()
    images = {eval_word(as_word(hp, lam)) for lam in basis}
    assert len(images) == len(basis) == gp.order()


def test_leftmul_t0_t1_e3():
    # t_0 t_1 = t_2 t_0 + a t_1 - a t_2 via the index-lowering recurrence
    hp = een(3, 2)
    a = A(hp)
    lam_t1 = (("x", 1),)
    got = leftmul_generator(hp, T(0), lam_t1)
    expect = from_words(hp, [(one_poly(hp), "t2 t0"), (a, "t1"), (-a, "t2")])
    assert got == expect


@pytest.mark.parametrize("hp", [een(2, 3), een(3, 2), een(4, 3), een(5, 2)])
def test_leftmul_t0_t1t0_specializes(hp):
    # n = 3 stands in for the excluded (n = 2, e even) algebras
    lam = (("xa", 1, 2),) + (ONE,) * (hp.n - 2)  # t_1 t_0
    got = leftmul_generator(hp, T(0), lam)
    target = mul(generator(hp.group_params(), T(0)), eval_word(as_word(hp, lam)))
    assert specialize_to_group(got) == {target: 1}


def test_leftmul_s2_z_is_basis():
    hp = d1n(2, 2)
    got = leftmul_generator(hp, S(2), (("zp", 1), ONE))
    assert got == from_words(hp, [(one_poly(hp), "s2 z")])


def test_leftmul_s2_zs2z_oracle():
    # s_2 (z s_2 z) needs the s_2 z^k s_2 expansions; checked against the
    # 8x8 regular representation at a -> 0, b_1 -> 0
    hp = d1n(2, 2)
    lam = (("zp", 1), ("x", 1))  # z * s_2 z
    got = leftmul_generator(hp, S(2), lam)
    target = mul(generator(hp.group_params(), S(2)), eval_word(as_word(hp, lam)))
    assert specialize_to_group(got) == {target: 1}


def test_reduce_word_remark_513():
    hp = een(3, 3)
    got = reduce_word(hp, "t1 t0 t0")
    expect = from_words(hp, [(A(hp), "t1 t0"), (one_poly(hp), "t1")])
    assert got == expect


def test_reduce_word_remark_614():
    hp = d1n(2, 2)
    got = reduce_word(hp, "s2 z s2 s2")
    expect = from_words(hp, [(A(hp), "s2 z s2"), (one_poly(hp), "s2 z")])
    assert got == expect


def test_reduce_empty_word():
    for hp in (een(3, 3), d1n(2, 2)):
        assert reduce_word(hp, "") == unit(hp)


def test_mul_unit_and_remark_513_as_product():
    hp = een(3, 3)
    h = reduce_word(hp, "t2 s3 t0")
    assert hecke_mul(unit(hp), h) == h
    assert hecke_mul(h, unit(hp)) == h
    t1t0 = from_words(hp, [(one_poly(hp), "t1 t0")])
    t0 = from_words(hp, [(one_poly(hp), "t0")])
    expect = from_words(hp, [(A(hp), "t1 t0"), (one_poly(hp), "t1")])
    assert hecke_mul(t1t0, t0) == expect


def test_mul_associativity_samples():
    hp = een(3, 3)
    basis = basis_enumerate(hp)
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (basis_element(hp, rng.choice(basis)) for _ in range(3))
        assert hecke_mul(hecke_mul(x, y), z) == hecke_mul(x, hecke_mul(y, z))


MUL_ALGEBRAS = [een(3, 4), d1n(3, 3), een(4, 3), d1n(2, 3)]


def _random_poly(hp, rng):
    monos = [tuple(rng.randrange(3) for _ in range(hp.arity)) for _ in range(rng.randrange(1, 4))]
    return Poly(hp.arity, {m: rng.choice([-2, -1, 1, 3]) for m in monos})


def _with_prefix(hp, rng):
    """A random basis index and one whose word is a proper prefix of its word:
    the same low levels, the levels above a cut set to the identity."""
    while True:
        lam = rng.choice(basis_enumerate(hp))
        cut = rng.randrange(1, len(lam))
        prefix = lam[:cut] + identity_index(hp)[cut:]
        if prefix != lam:
            return lam, prefix


def _random_element(hp, rng, pairs):
    combo = {}
    for _ in range(pairs):
        for lam in _with_prefix(hp, rng):
            combo[lam] = _random_poly(hp, rng)
    return HeckeElement(hp, combo)


def _mul_reference(h1, h2):
    """h1 * h2 one term of h1 at a time."""
    total = HeckeElement(h2.params, {})
    for lam, c in h1.combo.items():
        total = total + apply_word(as_word(h1.params, lam), h2).scaled(c)
    return total


@pytest.mark.parametrize("hp", MUL_ALGEBRAS, ids=str)
def test_hecke_mul_matches_the_term_by_term_reference(hp):
    # the product runs Horner's rule over the trie of h1's words, so the
    # operands share word prefixes on purpose
    rng = random.Random(11)
    zero, one = HeckeElement(hp, {}), unit(hp)
    for _ in range(3):
        h1, h2 = _random_element(hp, rng, 3), _random_element(hp, rng, 2)
        assert hecke_mul(h1, h2) == _mul_reference(h1, h2)
        assert hecke_mul(one, h2) == h2 and hecke_mul(h1, one) == h1
        assert hecke_mul(zero, h2) == zero and hecke_mul(h1, zero) == zero


@pytest.mark.parametrize("hp", MUL_ALGEBRAS, ids=str)
def test_hecke_mul_drops_the_terms_that_cancel(hp):
    # h1 = beta * lam - alpha * prefix, where alpha and beta are the
    # coefficients of one basis element mu in lam * h2 and prefix * h2
    rng = random.Random(5)
    while True:
        (lam, prefix), h2 = _with_prefix(hp, rng), _random_element(hp, rng, 1)
        r1 = apply_word(as_word(hp, lam), h2)
        r2 = apply_word(as_word(hp, prefix), h2)
        common = [mu for mu in r1.combo if mu in r2.combo]
        if common:
            break
    mu = common[0]
    h1 = HeckeElement(hp, {lam: r2.combo[mu], prefix: -r1.combo[mu]})
    got = hecke_mul(h1, h2)
    assert mu not in got.combo
    assert got == _mul_reference(h1, h2)


def test_fused_products_keep_the_degree_overflow_check():
    # z * (c zp^2 + zp^1 + zp^0) in H(3,1,2) with c = b_1^65535: the keys
    # zp^2 and zp^1 each sum two products, and c*b_1, c*b_2 reach degree 2^16
    hp = d1n(3, 2)
    c = Poly(3, {(0, 65535, 0): 1})
    one = one_poly(hp)
    h = elem(hp, {(("zp", 2), ONE): c, (("zp", 1), ONE): one, (("zp", 0), ONE): one})
    with pytest.raises(InvariantViolation):
        apply_word(make_word(hp.group_params(), [Z]), h)


@pytest.mark.parametrize("samples", [-1, True, 2.0, "3"])
def test_verify_hecke_refuses_bad_sample_counts_before_the_bfs(samples, monkeypatch):
    # the basis enumeration is the suite's first costly step
    import gdeen.verify as verify_mod

    def no_basis(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(verify_mod, "basis_enumerate", no_basis)
    with pytest.raises(ParamsMismatch):
        verify_mod.verify_hecke(een(3, 3), samples=samples)


@pytest.mark.parametrize("cap", [None, "x", 2.5, False], ids=repr)
def test_verify_hecke_refuses_a_cap_that_is_not_an_int(cap):
    with pytest.raises(ParamsMismatch, match="cap must be an int"):
        verify_hecke(een(3, 3), cap=cap, samples=0)


def test_verify_hecke_builds_no_group_table(monkeypatch):
    import sys

    import cayley_oracle
    import gdeen.verify as verify_mod

    expected = verify_mod.verify_hecke(een(3, 3), samples=2)

    def no_bfs(*args):
        raise AssertionError("the group was enumerated")

    # the BFS lives only in the test oracle, and no gdeen module holds it
    monkeypatch.setattr(cayley_oracle, "enumerate_group", no_bfs)
    holders = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "gdeen"]
    assert not any(hasattr(mod, "enumerate_group") for mod in holders)
    assert verify_mod.verify_hecke(een(3, 3), samples=2) == expected


@pytest.mark.parametrize(
    "hp, cap, text",
    [(een(3, 4), 647, "|G(3,3,4)| = 648 exceeds cap 647"), (d1n(3, 3), 161, "|G(3,1,3)| = 162 exceeds cap 161")],
    ids=["H(3,3,4)", "H(3,1,3)"],
)
def test_verify_hecke_refuses_a_group_past_its_cap_before_any_column(monkeypatch, hp, cap, text):
    import gdeen.verify as verify_mod

    def no_column(*args):
        raise AssertionError("a column was read")

    monkeypatch.setattr(verify_mod, "leftmul_generator", no_column)
    with pytest.raises(EnumerationTooLarge) as raised:
        verify_mod.verify_hecke(hp, cap=cap, samples=0)
    assert str(raised.value) == text


@pytest.mark.parametrize(
    "hp", [een(3, 3), een(4, 3), een(2, 4), d1n(2, 3), d1n(3, 3), d1n(4, 2)], ids=str
)
def test_basis_words_spell_the_ranks_of_their_elements(hp):
    # the certificate's ranks against eval_word, an evaluator of its own
    import gdeen.verify as verify_mod
    from gdeen.hecke import _index_word
    from gdeen.normal_form import _rank_order

    gp = hp.group_params()
    tables = dict(zip(alphabet(gp), verify_mod._left_action(gp, 10**6)[2]))
    perms, vecs = _rank_order(gp, 10**6)
    rank = {pv: i for i, pv in enumerate((p, v) for p in perms for v in vecs)}
    for lam in basis_enumerate(hp):
        g = eval_word(as_word(hp, lam))
        assert verify_mod._spell(tables, len(vecs), _index_word(hp, lam)) == rank[g.perm, g.exps]


def test_a_passing_certificate_makes_no_basis_word(monkeypatch):
    # the basis words are spelled from their letters; a Word is made only
    # for a failure text
    import gdeen.verify as verify_mod

    calls = []
    real = verify_mod.as_word

    def counting(hp, lam):
        calls.append(lam)
        return real(hp, lam)

    monkeypatch.setattr(verify_mod, "as_word", counting)
    assert verify_mod.verify_hecke(een(3, 4), samples=0)["ok"]
    assert calls == []


def test_pow_s2zs2_k1_and_k2():
    hp = d1n(3, 2)
    a = A(hp)
    assert pow_s2zs2(hp, 1) == from_words(hp, [(one_poly(hp), "s2 z s2")])
    expect = from_words(
        hp,
        [(a * a, "z s2 z s2"), (a, "z s2 z"), (one_poly(hp), "s2 z z s2")],
    )
    assert pow_s2zs2(hp, 2) == expect


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pow_s2zs2_specializes(d):
    hp = d1n(d, 2)
    gp = hp.group_params()
    s2zs2 = mul(mul(generator(gp, S(2)), generator(gp, Z)), generator(gp, S(2)))
    cur = None
    for k in range(1, d):
        h = pow_s2zs2(hp, k)
        cur = s2zs2 if cur is None else mul(cur, s2zs2)
        assert specialize_to_group(h) == {cur: 1}


def test_s2_zk_s2_k1_and_k2():
    hp = d1n(3, 2)
    a = A(hp)
    assert s2_zk_s2(hp, 1) == from_words(hp, [(one_poly(hp), "s2 z s2")])
    # s_2 z^2 s_2 = (s_2 z s_2)^2 - a^2 z s_2 z s_2 - a z s_2 z
    lhs = s2_zk_s2(hp, 2)
    rhs = (
        pow_s2zs2(hp, 2)
        + from_words(hp, [(-(a * a), "z s2 z s2")])
        + from_words(hp, [(-a, "z s2 z")])
    )
    assert lhs == rhs


@pytest.mark.parametrize("d", [2, 3, 4])
def test_s2_zk_s2_specializes(d):
    hp = d1n(d, 2)
    gp = hp.group_params()
    for k in range(1, d):
        word = make_word(gp, [S(2)] + [Z] * k + [S(2)])
        assert specialize_to_group(s2_zk_s2(hp, k)) == {eval_word(word): 1}


def test_specialize_kills_a_terms():
    hp = een(3, 3)
    spec = specialize_to_group(reduce_word(hp, "t1 t0 t0"))
    t1 = generator(hp.group_params(), T(1))
    assert spec == {t1: 1}


@pytest.mark.parametrize("hp", [een(3, 3), d1n(2, 3)])
def test_leftmul_is_left_translation_at_specialization(hp):
    gp = hp.group_params()
    for sym in alphabet(gp):
        x = generator(gp, sym)
        for lam in basis_enumerate(hp):
            h = leftmul_generator(hp, sym, lam)
            target = mul(x, eval_word(as_word(hp, lam)))
            assert specialize_to_group(h) == {target: 1}, (sym, lam)


def test_mul_specializes_to_convolution():
    hp = d1n(2, 3)
    gp = hp.group_params()
    basis = basis_enumerate(hp)
    rng = random.Random(11)
    for _ in range(20):
        l1, l2 = rng.choice(basis), rng.choice(basis)
        h = hecke_mul(basis_element(hp, l1), basis_element(hp, l2))
        g1, g2 = eval_word(as_word(hp, l1)), eval_word(as_word(hp, l2))
        assert specialize_to_group(h) == {mul(g1, g2): 1}


@pytest.mark.parametrize("hp", [een(3, 3), een(2, 3), d1n(2, 2), d1n(3, 2), d1n(2, 3)])
def test_relation_fidelity(hp):
    rels = hecke_relations(hp)
    assert rels
    for u, v in rels:
        assert reduce_word(hp, u) == reduce_word(hp, v)


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 2)])
def test_quadratic_relations(hp):
    gp = hp.group_params()
    for sym in alphabet(gp):
        if sym.kind == "z":
            continue
        lhs = reduce_word(hp, make_word(gp, [sym, sym]))
        rhs = reduce_word(hp, make_word(gp, [sym])).scaled(A(hp)) + unit(hp)
        assert lhs == rhs


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cyclotomic_relation(d):
    hp = d1n(d, 2)
    gp = hp.group_params()
    lhs = reduce_word(hp, make_word(gp, [Z] * d))
    rhs = unit(hp)
    for i in range(1, d):
        bi = Poly.variable(hp.arity, i)
        rhs = rhs + reduce_word(hp, make_word(gp, [Z] * (d - i))).scaled(bi)
    assert lhs == rhs


@pytest.mark.parametrize("hp", [een(3, 3), d1n(2, 2)])
def test_quadratic_inverse_identity(hp):
    gp = hp.group_params()
    one = unit(hp)
    for sym in alphabet(gp):
        if sym.kind == "z":
            continue
        x = reduce_word(hp, make_word(gp, [sym]))
        assert hecke_mul(x + one.scaled(-A(hp)), x) == one


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_tjti_recurrence(e):
    # t_j t_i = t_{j-1} t_{i-1} + a (t_i - t_{j-1}), indices mod e; every
    # product lands in Span(Lambda_2)
    hp = een(e, 3)
    gp = hp.group_params()
    a = A(hp)
    for j in range(e):
        for i in range(e):
            if i == j:
                continue
            w = make_word(gp, [T(j), T(i)])
            got = reduce_word(hp, w)
            assert all(lam[1] == ONE for lam in got.combo), "left Span(Lambda_2)"
            rhs = (
                reduce_word(hp, make_word(gp, [T((j - 1) % e), T((i - 1) % e)]))
                + reduce_word(hp, make_word(gp, [T(i)])).scaled(a)
                + reduce_word(hp, make_word(gp, [T((j - 1) % e)])).scaled(-a)
            )
            assert got == rhs
            assert specialize_to_group(got) == {eval_word(w): 1}


def test_identity_index_and_json():
    hp = d1n(2, 2)
    h = reduce_word(hp, "s2 z s2 s2")
    js = h.to_json()
    assert '"family": "d1n"' in js and '"basis": "s2 z"' in js
    assert identity_index(hp) == (("zp", 0), ONE)


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 3)], ids=str)
def test_the_engine_keeps_no_whole_word_result(hp):
    # only reductions made inside the recursion are memoized, so distinct
    # words leave no memo entry at the algebra's top level
    hecke_mod._engine.cache_clear()
    gp = hp.group_params()
    rng = random.Random(11)
    draws = (tuple(rng.choice(alphabet(gp)) for _ in range(rng.randint(1, 12))) for _ in range(30))
    for syms in dict.fromkeys(draws):
        reduce_word(hp, make_word(gp, syms))
    assert all(m < hp.n for m, _ in hecke_mod._engine(hp)._rw)


def test_repr_wraps_the_rendering():
    h = reduce_word(een(3, 3), "t1 t0 t0")
    assert repr(h) == f"HeckeElement({h})" == "HeckeElement((1)*[t1] + (a)*[t1 t0])"
    assert repr(basis_element(een(3, 3), identity_index(een(3, 3))).scaled(Poly.const(1, 0))) == "HeckeElement(0)"


def test_move_budget_guard(monkeypatch):
    # each column of this word in H(5,5,2) takes one or two moves
    monkeypatch.setattr(hecke_mod, "MOVE_BUDGET", 1)
    hecke_mod._engine.cache_clear()
    with pytest.raises(RecursionGuardExceeded):
        reduce_word(een(5, 2), "t3 t2 t1 t0 t1 t2 t3")
    hecke_mod._engine.cache_clear()


def test_the_move_budget_bounds_one_column_cold_serially_and_in_threads(monkeypatch):
    # the level-n columns of this word in H(3,3,3) take 2, 1, 2, 4, 3, 3, 12
    # and 15 moves, 42 in all: a budget of 15 is enough for each column, so
    # for the whole word, from four threads at once too, each on a cold engine
    hp, word = een(3, 3), "s3 t1 t0 s3 t2 s3 t1"
    monkeypatch.setattr(hecke_mod, "MOVE_BUDGET", 15)
    hecke_mod._engine.cache_clear()
    serial = reduce_word(hp, word).to_json()
    hecke_mod._engine.cache_clear()
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait()
        results.append(reduce_word(hp, word).to_json())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    hecke_mod._engine.cache_clear()
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    monkeypatch.setattr(hecke_mod, "MOVE_BUDGET", 14)
    with pytest.raises(RecursionGuardExceeded):
        reduce_word(hp, word)
    hecke_mod._engine.cache_clear()


def test_h11n_matches_symmetric_group_hecke():
    # e = 1 degenerates to the classical type-A algebra: the basis is
    # indexed by S_n and t_0 s_3 t_0 = s_3 t_0 s_3 holds on the nose
    hp = een(1, 4)
    assert len(basis_enumerate(hp)) == 24
    gp = hp.group_params()
    lhs = reduce_word(hp, make_word(gp, [T(0), S(3), T(0)]))
    rhs = reduce_word(hp, make_word(gp, [S(3), T(0), S(3)]))
    assert lhs == rhs


def action_matrix(hp, sym):
    """The dense matrix of left multiplication by one generator on Lambda:
    entry [i][j] is the coefficient of basis[i] in x * basis[j]."""
    basis = basis_enumerate(hp)
    pos = {lam: i for i, lam in enumerate(basis)}
    zero = Poly.const(hp.arity, 0)
    cols = []
    for lam in basis:
        col = [zero] * len(basis)
        for mu, c in leftmul_generator(hp, sym, lam).combo.items():
            col[pos[mu]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def test_action_matrix_at_specialization_is_permutation():
    hp = d1n(2, 2)
    basis = basis_enumerate(hp)
    zeros = [0] * hp.arity
    for sym in alphabet(hp.group_params()):
        mat = action_matrix(hp, sym)
        spec = [[mat[i][j].specialize(zeros) for j in range(len(basis))] for i in range(len(basis))]
        assert all(sum(col) == 1 for col in zip(*spec))
        assert all(v in (0, 1) for row in spec for v in row)


def test_reduce_word_params_mismatch():
    from gdeen import Params

    hp = een(3, 3)
    w = make_word(Params(2, 1, 2), [Z])
    with pytest.raises(ParamsMismatch):
        reduce_word(hp, w)
    with pytest.raises(ParamsMismatch):
        apply_word(w, unit(hp))
    for op in (hecke_mul, HeckeElement.__add__):
        with pytest.raises(ParamsMismatch):
            op(unit(hp), unit(een(4, 3)))


@pytest.mark.parametrize(
    "hp, letter",
    [(een(3, 3), Z), (een(3, 3), S(4)), (d1n(2, 3), T(0))]
    # not symbols, unhashable ones included
    + [(een(3, 3), x) for x in (["t", 0], {"s": 3}, "t0", None, Sym("t", [0]))],
    ids=str,
)
def test_leftmul_refuses_a_letter_outside_the_alphabet(hp, letter):
    with pytest.raises(UnknownSymbol):
        leftmul_generator(hp, letter, identity_index(hp))


@pytest.mark.parametrize("letter", [Sym("t", 1.0), Sym("t", True), Sym("s", 3.0)], ids=repr)
def test_leftmul_refuses_a_letter_whose_index_is_not_an_int(letter):
    # each equals a letter of H(3,3,3), and used to pass as it
    hp = een(3, 3)
    with pytest.raises(UnknownSymbol):
        leftmul_generator(hp, letter, identity_index(hp))


@pytest.mark.parametrize("helper", [pow_s2zs2, s2_zk_s2], ids=lambda f: f.__name__)
@pytest.mark.parametrize("hp, k", [(een(3, 3), 1), (d1n(3, 2), 0), (d1n(3, 2), 3)], ids=str)
def test_d1n_helpers_refuse_other_algebras_and_powers(helper, hp, k):
    with pytest.raises(ParamsMismatch):
        helper(hp, k)


@pytest.mark.parametrize("helper", [pow_s2zs2, s2_zk_s2], ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", ["x", 2.0, True, None], ids=repr)
def test_d1n_helpers_refuse_a_power_that_is_not_an_int(helper, k):
    # "x" and 2.0 used to raise a bare TypeError, and True passed as 1
    with pytest.raises(ParamsMismatch):
        helper(d1n(3, 2), k)


@pytest.mark.parametrize(
    "bad",
    [5, None, [ONE, ONE], (ONE,), (("x", 9), ONE)],
    ids=["int", "none", "list", "short", "shape"],
)
def test_as_word_refuses_what_is_not_a_basis_index(bad):
    with pytest.raises(ParamsMismatch):
        as_word(een(3, 3), bad)


@pytest.mark.parametrize("hp", [een(3, 3), een(4, 3), d1n(2, 3), d1n(3, 2)])
def test_apply_word_is_left_multiplication(hp):
    # w * h computed letter by letter equals the product of the reduced
    # word with h, on random words and two-term combinations
    gp = hp.group_params()
    syms = alphabet(gp)
    basis = basis_enumerate(hp)
    rng = random.Random(13)
    for _ in range(8):
        w = make_word(gp, [rng.choice(syms) for _ in range(rng.randrange(7))])
        h = basis_element(hp, rng.choice(basis)) + basis_element(hp, rng.choice(basis)).scaled(A(hp))
        assert apply_word(w, h) == hecke_mul(reduce_word(hp, w), h)


def test_validate_basis_index_rejects_non_shapes():
    hp = een(3, 3)
    validate_basis_index(hp, (("x", 1), ("d", 3)))
    for bad in [(ONE,), (ONE, ("d", 2)), (ONE, ["one"]), (ONE, ("x", [1]))]:
        with pytest.raises(ParamsMismatch):
            validate_basis_index(hp, bad)


@pytest.mark.parametrize(
    "bad",
    [(("x", True), ONE), (("x", 1.0), ONE), (ONE, ("d", 3.0)), (ONE, ("xa", True, 2))],
    ids=["bool", "float", "float-level-3", "bool-level-3"],
)
def test_a_shape_must_be_exactly_a_canonical_one(bad):
    # each equals a valid index, and used to pass; ("x", True) rendered as
    # tTrue, and so did ("x", 1.0) after it, through the cache of T
    hp = een(3, 3)
    for call in (validate_basis_index, as_word, basis_element):
        with pytest.raises(ParamsMismatch):
            call(hp, bad)
    with pytest.raises(ParamsMismatch):
        HeckeElement(hp, {bad: Poly.const(1, 1)})
    assert str(as_word(hp, (("x", 1), ("d", 3)))) == "t1 s3"


POSITION_ALGEBRAS = [een(e, n) for e in range(1, 5) for n in range(2, 5) if n > 2 or e % 2]
POSITION_ALGEBRAS += [d1n(d, n) for d in range(2, 5) for n in (2, 3)]


@pytest.mark.parametrize("hp", POSITION_ALGEBRAS, ids=str)
def test_a_position_is_the_mixed_radix_number_of_the_level_ranks(hp):
    eng = hecke_mod._engine(hp)
    basis = basis_enumerate(hp)
    assert eng.size == len(basis)
    for j, lam in enumerate(basis):
        assert eng._position(lam) == j
        assert eng._index(j) == lam


def test_a_column_walks_its_index_once(monkeypatch):
    # leftmul_generator positions its index by the walk that checks it, and
    # starts from the unit state at that position; the engine positions the
    # indices of the columns it builds with no check.  From a cold engine,
    # the certificate of H(3,3,4) makes 3 240 checked walks, one for each of
    # its columns; it spells the basis words without the engine.  Walking
    # each column's index twice would make it 6 480
    hecke_mod._engine.cache_clear()
    walks = []
    real = hecke_mod._Engine._position

    def counting(self, lam):
        walks.append(None)
        return real(self, lam)

    monkeypatch.setattr(hecke_mod._Engine, "_position", counting)
    assert verify_hecke(een(3, 4), samples=0)["ok"]
    assert len(walks) == 3240
    hecke_mod._engine.cache_clear()


@pytest.mark.slow
@pytest.mark.parametrize(
    "hp, size",
    [
        (een(2, 6), 23040),
        (d1n(3, 5), 29160),
        (een(4, 5), 30720),
        (d1n(2, 6), 46080),
        (een(3, 6), 174960),
    ],
    ids=str,
)
def test_ranks_5_and_6_certify_exhaustively(hp, size):
    # every column of every letter, so the folds of s_5 and s_6 run on
    # every basis index; H(3,3,6) takes 2-3 minutes and about 0.33 GB
    report = verify_hecke(hp, samples=0)
    assert report["ok"], report.get("failure")
    assert report["basis_size"] == size
    hecke_mod._engine.cache_clear()


@pytest.mark.slow
@pytest.mark.parametrize("e, n", [(3, 6), (2, 7)], ids=["H(3,3,6)", "H(2,2,7)"])
def test_ranks_6_and_7_certify_in_under_1_gib(e, n):
    # in a fresh interpreter, so that the peak is the certificate's: each
    # letter's rank-n columns are kept once per w positions, w its fold,
    # in the engine and in the certificate, and the engine keeps each
    # column entry and each +-monomial coefficient once.  The children's
    # ru_maxrss is the largest of any child so far, so it bounds this
    # one's.  H(3,3,6) (174 960 columns) peaks at about 0.33 GB in 2.5
    # minutes, H(2,2,7) (322 560) at about 0.11 GB in 1.5 minutes
    code = f"import sys, gdeen; sys.exit(not gdeen.verify_hecke(gdeen.een({e}, {n}), samples=0)['ok'])"
    env = {**os.environ, "PYTHONPATH": str(Path(gdeen.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    assert peak < 2**19  # 512 MiB


@pytest.mark.parametrize(
    "build, text",
    [
        (unit, "(1)*[1]"),
        (lambda hp: basis_element(hp, (("x", 2), ("xa", 1, 3)) + (ONE,) * 4), "(1)*[t2 s3 t1 t0 s3]"),
    ],
    ids=["unit", "basis-element"],
)
def test_an_element_costs_no_copy_of_the_basis(build, text):
    # H(3,3,7) has 3 674 160 basis indices; building one element used to
    # list them all, in 3.6-3.9 s and 707 MB
    hp = een(3, 7)
    hecke_mod._engine.cache_clear()
    tracemalloc.start()
    try:
        h = build(hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert str(h) == text


@pytest.mark.parametrize(
    "combo",
    [
        {(("q", 1), ONE): 1},  # no shape, yet the engine would read it as t1 t0
        {(1, ONE): 1},  # not subscriptable
        {(("x", "a"), ONE): 1, (("x", 1), ONE): 1},  # keys that do not compare
    ],
    ids=["short", "int", "mixed"],
)
def test_rendering_an_invalid_index_raises_params_mismatch(combo):
    # no element holding such an index can be built, so none is rendered
    hp = een(3, 3)
    with pytest.raises(ParamsMismatch, match="is not valid at level 2"):
        HeckeElement(hp, {lam: Poly.const(1, c) for lam, c in combo.items()})


@pytest.mark.parametrize(
    "c", [1, Poly.const(2, 1), Poly.const(3, 0)], ids=["int", "arity2", "zero-arity3"]
)
def test_a_coefficient_must_be_a_poly_of_the_algebras_arity(c):
    with pytest.raises(GdeenError):
        HeckeElement(een(3, 3), {(("x", 1), ONE): c})


@pytest.mark.parametrize(
    "build",
    [
        lambda: HeckeElement("x", {}),
        lambda: HeckeElement("x", {(("x", 1), ONE): Poly.const(1, 1)}),
        lambda: unit(een(3, 3)).scaled(3),
        lambda: unit(een(3, 3)).scaled(Poly.const(2, 0)),
        lambda: unit(d1n(3, 2)).scaled(Poly.variable(1, 0)),
    ],
    ids=["params-empty", "params-one-term", "scalar-int", "scalar-zero-arity2", "scalar-arity1"],
)
def test_params_and_scalars_must_belong_to_the_algebra(build):
    with pytest.raises(ParamsMismatch):
        build()


@pytest.mark.parametrize("hp", [een(3, 3), een(1, 4), d1n(2, 3), d1n(3, 2)], ids=str)
def test_items_list_the_terms_in_basis_order(hp):
    basis = basis_enumerate(hp)
    shuffled = basis[:]
    random.Random(3).shuffle(shuffled)
    h = HeckeElement(hp, {lam: Poly.const(hp.arity, i + 1) for i, lam in enumerate(shuffled)})
    assert list(h.combo) == shuffled
    assert [lam for lam, _ in h.items()] == basis
    assert dict(h.items()) == h.combo


@pytest.mark.parametrize(
    "bad", [("een", 3.0, 3), ("een", 3, 3.0), ("een", True, 3), ("d1n", 3, 2.0), ("een", "3", 3)]
)
def test_hecke_parameters_must_be_ints(bad):
    # 3.0 == 3 and True == 1 hash alike, so a float or a bool parameter
    # would share, and corrupt, the engine memo of the int algebra
    with pytest.raises(ParamsMismatch):
        reduce_word(HeckeParams(*bad), "t1 t0")
    hp = een(3, 3)
    assert reduce_word(hp, "t1 t0 t0") == from_words(
        hp, [(A(hp), "t1 t0"), (one_poly(hp), "t1")]
    )


@pytest.mark.parametrize("bad", [[ONE, ONE], 5])
def test_basis_index_must_be_a_tuple(bad):
    # a list or an int used to reach the memo key or the term dict and
    # raise a bare TypeError there
    hp = een(3, 3)
    with pytest.raises(ParamsMismatch):
        basis_element(hp, bad)
    with pytest.raises(ParamsMismatch):
        leftmul_generator(hp, T(0), bad)


H333 = een(3, 3)
WRONGLY_TYPED = {
    "add-int": lambda: unit(H333) + 1,
    "mul-int-right": lambda: hecke_mul(unit(H333), 5),
    "mul-int-left": lambda: hecke_mul(5, unit(H333)),
    "apply-str-word": lambda: apply_word("s3", unit(H333)),
    "apply-str-element": lambda: apply_word(make_word(H333.group_params(), [S(3)]), "x"),
    "specialize-int": lambda: specialize_to_group(3),
    "reduce-int-word": lambda: reduce_word(H333, 5),
    "element-int-combo": lambda: HeckeElement(H333, 5),
    "unit": lambda: unit("x"),
    "basis-enumerate": lambda: basis_enumerate("x"),
    "leftmul": lambda: leftmul_generator("x", T(1), ()),
    "basis-element": lambda: basis_element("x", ()),
    "as-word": lambda: as_word("x", ()),
    "relations": lambda: hecke_relations("x"),
    "pow-s2zs2": lambda: pow_s2zs2("x", 1),
    "reduce-str-params": lambda: reduce_word("x", "s3"),
    "verify": lambda: verify_hecke("x"),
}


@pytest.mark.parametrize("call", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED.keys())
def test_a_wrongly_typed_argument_raises_params_mismatch(call):
    # each of these used to raise a bare AttributeError
    with pytest.raises(ParamsMismatch):
        call()


@pytest.mark.parametrize("hp", [een(1, 3), een(3, 3), d1n(2, 3)])
def test_as_word_is_the_normal_form(hp):
    # every basis word is literally the geodesic normal form of its element
    from gdeen import normal_form

    for lam in basis_enumerate(hp):
        w = as_word(hp, lam)
        assert normal_form(eval_word(w)).word == w


def test_full_multiplication_table_h333():
    # every product of two basis elements specializes to the group product
    hp = een(3, 3)
    basis = basis_enumerate(hp)
    gmap = {lam: eval_word(as_word(hp, lam)) for lam in basis}
    for l1 in basis:
        h1 = basis_element(hp, l1)
        for l2 in basis:
            h = hecke_mul(h1, basis_element(hp, l2))
            assert specialize_to_group(h) == {mul(gmap[l1], gmap[l2]): 1}


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 2), d1n(2, 3)])
def test_random_long_words_specialize(hp):
    # end-to-end: reduce a long positive word, specialize, compare with the
    # plain matrix product
    gp = hp.group_params()
    syms = alphabet(gp)
    rng = random.Random(13)
    for _ in range(20):
        word = make_word(gp, [rng.choice(syms) for _ in range(15)])
        h = reduce_word(hp, word)
        assert specialize_to_group(h) == {eval_word(word): 1}


@pytest.mark.parametrize("hp", [een(1, 4), een(2, 3), d1n(2, 3)])
def test_coxeter_anchor(hp):
    # On the Coxeter specializations (types A, D, B) the classical law
    # pins every coefficient: x*T_w = T_{xw} when the length goes up, and
    # c*T_w + T_{xw} when it goes down, where c is the generator's own
    # quadratic parameter (a for involutive letters, b_1 for z when d = 2).
    # Full-ring, exhaustive.
    from gdeen import length

    gp = hp.group_params()
    basis = basis_enumerate(hp)
    index = {eval_word(as_word(hp, lam)): lam for lam in basis}
    for sym in alphabet(gp):
        x = generator(gp, sym)
        c = Poly.variable(hp.arity, 1 if sym.kind == "z" else 0)
        for lam in basis:
            w = eval_word(as_word(hp, lam))
            xw = mul(x, w)
            got = leftmul_generator(hp, sym, lam)
            if length(xw) > length(w):
                assert got == basis_element(hp, index[xw])
            else:
                assert got == basis_element(hp, lam).scaled(c) + basis_element(
                    hp, index[xw]
                )

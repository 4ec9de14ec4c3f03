"""The Hecke algebras on the geodesic basis: reductions, oracle checks.

Expected values below were either taken verbatim from worked identities
(e.g. the t_j t_i recurrence, the (s_2 z s_2)^2 expansion) or computed by
the specialization oracle: setting a -> 0 and b_i -> 0 must turn every
product into the corresponding product of group elements.
"""

import random

import pytest

import gdeen.hecke as hecke_mod
from gdeen import (
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
from gdeen.words import S, T, Z, alphabet, generator


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


def test_verify_hecke_builds_no_group_table(monkeypatch):
    import gdeen
    import gdeen.cayley as cayley_mod
    import gdeen.verify as verify_mod

    expected = verify_mod.verify_hecke(een(3, 3), samples=2)

    def no_bfs(*args):
        raise AssertionError("the group was enumerated")

    # every module that could hold the name, including one that imported it
    for mod in (cayley_mod, gdeen, verify_mod):
        monkeypatch.setattr(mod, "enumerate_group", no_bfs, raising=False)
    assert verify_mod.verify_hecke(een(3, 3), samples=2) == expected


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


def test_move_budget_guard():
    budget = hecke_mod.MOVE_BUDGET
    hecke_mod.MOVE_BUDGET = 3
    try:
        hp = een(5, 2)
        with pytest.raises(RecursionGuardExceeded):
            reduce_word(hp, "t3 t2 t1 t0 t1 t2 t3")
    finally:
        hecke_mod.MOVE_BUDGET = budget


def test_h11n_matches_symmetric_group_hecke():
    # e = 1 degenerates to the classical type-A algebra: the basis is
    # indexed by S_n and t_0 s_3 t_0 = s_3 t_0 s_3 holds on the nose
    hp = een(1, 4)
    assert len(basis_enumerate(hp)) == 24
    gp = hp.group_params()
    lhs = reduce_word(hp, make_word(gp, [T(0), S(3), T(0)]))
    rhs = reduce_word(hp, make_word(gp, [S(3), T(0), S(3)]))
    assert lhs == rhs


def test_action_matrix_at_specialization_is_permutation():
    from gdeen.hecke import action_matrix

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
    "hp, letter", [(een(3, 3), Z), (een(3, 3), S(4)), (d1n(2, 3), T(0))], ids=str
)
def test_leftmul_refuses_a_letter_outside_the_alphabet(hp, letter):
    with pytest.raises(UnknownSymbol):
        leftmul_generator(hp, letter, identity_index(hp))


@pytest.mark.parametrize("helper", [pow_s2zs2, s2_zk_s2], ids=lambda f: f.__name__)
@pytest.mark.parametrize("hp, k", [(een(3, 3), 1), (d1n(3, 2), 0), (d1n(3, 2), 3)], ids=str)
def test_d1n_helpers_refuse_other_algebras_and_powers(helper, hp, k):
    with pytest.raises(ParamsMismatch):
        helper(hp, k)


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

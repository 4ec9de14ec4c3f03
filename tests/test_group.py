"""Monomial matrix arithmetic for G(de,e,n)."""

import json
import random

import pytest

from gdeen import (
    BadFormat,
    GdeenError,
    InvariantViolation,
    Params,
    ParamsMismatch,
    alphabet,
    census_expected,
    een,
    element,
    element_from_json,
    element_to_json,
    eval_word,
    generator,
    identity,
    inverse,
    length,
    make_word,
    max_length_census,
    mul,
    normal_form,
    parse_word,
    verify_geodesic,
    verify_hecke,
    word_text,
)
from gdeen.normal_form import all_elements
from gdeen.words import S, T, Z

EX34_JSON = '{"d":3,"e":3,"n":4,"rows":[[1,1],[3,0],[4,1],[2,1]]}'


def random_element(rng, params):
    pool = list(all_elements(params))
    return rng.choice(pool)


def test_identity_examples():
    assert identity(Params(1, 3, 3)).perm == (1, 2, 3)
    assert identity(Params(1, 3, 3)).exps == (0, 0, 0)
    g = identity(Params(3, 3, 4))
    assert g.perm == (1, 2, 3, 4) and g.exps == (0, 0, 0, 0)


def test_identity_law_random():
    rng = random.Random(0)
    for params in [Params(3, 3, 2), Params(2, 1, 3), Params(1, 4, 3)]:
        e = identity(params)
        for _ in range(10):
            g = random_element(rng, params)
            assert mul(e, g) == g
            assert mul(g, e) == g


def test_generator_t1_in_g934():
    # entry [1,2] = zeta_9^{-1} = zeta_9^8, entry [2,1] = zeta_9
    g = generator(Params(3, 3, 4), T(1))
    assert g.perm == (2, 1, 3, 4)
    assert g.exps == (8, 1, 0, 0)


def test_generator_z_in_g313():
    g = generator(Params(3, 1, 3), Z)
    assert g.perm == (1, 2, 3)
    assert g.exps == (1, 0, 0)


def test_generator_s3_in_g133():
    g = generator(Params(1, 3, 3), S(3))
    assert g.perm == (1, 3, 2)
    assert g.exps == (0, 0, 0)


def test_t0_involution():
    params = Params(3, 3, 2)
    t0 = generator(params, T(0))
    assert mul(t0, t0) == identity(params)


def test_braid_s3_s4():
    params = Params(3, 3, 4)
    s3, s4 = generator(params, S(3)), generator(params, S(4))
    assert mul(mul(s3, s4), s3) == mul(mul(s4, s3), s4)


def test_z_shifts_t_indices():
    # z t_i = t_{i-e} z in G(6,2,2)
    params = Params(3, 2, 2)
    z = generator(params, Z)
    for i in range(6):
        lhs = mul(z, generator(params, T(i)))
        rhs = mul(generator(params, T((i - 2) % 6)), z)
        assert lhs == rhs


def test_inverse():
    params = Params(3, 1, 3)
    assert inverse(identity(params)) == identity(params)
    z = generator(params, Z)
    zz = mul(z, z)
    assert inverse(z) == zz  # z^{d-1}
    params2 = Params(2, 3, 3)
    for i in range(6):
        ti = generator(params2, T(i))
        assert inverse(ti) == ti


def test_group_laws_random():
    rng = random.Random(1)
    params = Params(2, 2, 3)
    pool = list(all_elements(params))
    e = identity(params)
    for _ in range(50):
        g, h, k = (rng.choice(pool) for _ in range(3))
        assert mul(mul(g, h), k) == mul(g, mul(h, k))
        assert mul(g, inverse(g)) == e
        # closure preserves the exponent-sum invariant
        prod = mul(g, h)
        assert sum(prod.exps) % params.e == 0


def test_params_mismatch():
    with pytest.raises(ParamsMismatch):
        mul(identity(Params(1, 3, 3)), identity(Params(3, 1, 3)))


@pytest.mark.parametrize("bad", [(1, 3.0, 3), ("1", 3, 3), (True, 3, 3), (1, 3, 3.0)])
def test_params_must_be_ints(bad):
    # 3.0 == 3 and True == 1 hash alike, so a float or a bool parameter
    # would share, and corrupt, the memo entries of the int group
    with pytest.raises(InvariantViolation, match="need ints d >= 1"):
        verify_geodesic(Params(*bad))
    assert verify_geodesic(Params(1, 3, 3))["order"] == 54


def test_json_example_34():
    g = element_from_json(EX34_JSON)
    assert g.params == Params(3, 3, 4)
    assert g.perm == (1, 3, 4, 2)
    assert g.exps == (1, 0, 1, 1)
    assert element_from_json(element_to_json(g)) == g


def test_json_sum_invariant_violation():
    bad = '{"d":3,"e":3,"n":4,"rows":[[1,1],[3,0],[4,1],[2,2]]}'
    with pytest.raises(InvariantViolation, match="sum"):
        element_from_json(bad)


@pytest.mark.parametrize(
    "bad",
    [
        '{"d":2.7,"e":true,"n":2,"rows":[[1,0],[2,1.9]]}',
        '{"d":2,"e":true,"n":2,"rows":[[1,0],[2,1]]}',
        '{"d":2,"e":1,"n":2,"rows":[[1,0],[2,1.9]]}',
        '{"d":2,"e":1,"n":2,"rows":[[1,false],[2,1]]}',
        '{"d":2,"e":1,"n":2,"rows":[[1,0],{"col":2}]}',
    ],
)
def test_json_rejects_non_integers(bad):
    with pytest.raises(BadFormat):
        element_from_json(bad)


def test_json_identity_roundtrip():
    g = identity(Params(2, 2, 3))
    assert element_from_json(element_to_json(g)) == g


def test_bad_perm_rejected():
    with pytest.raises(InvariantViolation, match="bijection"):
        element(Params(1, 2, 2), [1, 1], [0, 0])


@pytest.mark.parametrize(
    "perm, exps",
    [
        ([2, 1], [1.5, 1.5]),
        ([1.0, 2.0], [0, 0]),
        ([True, 2], [0, 0]),
        ([1, 2], [0, False]),
        (["1", "2"], [0, 0]),
        ([1, 2], None),
        (None, [0, 0]),
        (12, [0, 0]),
    ],
    ids=repr,
)
def test_element_refuses_entries_that_are_not_ints(perm, exps):
    # 1.0 == 1 and True == 1, so these passed as a permutation or exponents,
    # and the element printed as 1->1.0^0 or broke normal_form
    with pytest.raises(InvariantViolation):
        element(Params(1, 3, 2), perm, exps)


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_geodesic("G(3,3,4)"),
        lambda: normal_form("x"),
        lambda: length((1, 2)),
        lambda: max_length_census("x"),
        lambda: list(all_elements(None)),
        lambda: verify_hecke(een(3, 2), samples=1, seed=[1]),
        lambda: verify_hecke(een(3, 2), samples=1, seed=1.0),
    ],
    ids=["verify_geodesic", "normal_form", "length", "max_length_census", "all_elements", "seed-list", "seed-float"],
)
def test_a_wrong_typed_argument_is_a_gdeen_error(call):
    with pytest.raises(GdeenError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: element(None, [1, 2], [0, 0]),
        lambda: identity(None),
        lambda: mul("x", "y"),
        lambda: inverse("x"),
        lambda: eval_word("x"),
        lambda: parse_word(None, "t0"),
        lambda: generator(None, "z"),
        lambda: alphabet("x"),
        lambda: word_text("x"),
        lambda: census_expected("x"),
        lambda: make_word(None, []),
    ],
    ids=[
        "element",
        "identity",
        "mul",
        "inverse",
        "eval_word",
        "parse_word",
        "generator",
        "alphabet",
        "word_text",
        "census_expected",
        "make_word",
    ],
)
def test_an_argument_of_the_wrong_type_is_refused_before_it_is_read(call):
    # each raised AttributeError, and make_word(None, []) returned a Word
    # without params
    with pytest.raises(ParamsMismatch, match="is not a"):
        call()


def test_wrong_number_of_exponents_rejected():
    with pytest.raises(InvariantViolation, match="need 3 exponents, got 2"):
        element(Params(1, 2, 3), [1, 2, 3], [0, 0])


def test_json_object_input():
    # a dict is read as the parsed object, with the checks of the text path
    obj = json.loads(EX34_JSON)
    assert element_from_json(obj) == element_from_json(EX34_JSON)
    with pytest.raises(BadFormat, match="rows"):
        element_from_json({"d": 3, "e": 3, "n": 4})
    with pytest.raises(BadFormat, match="must be an object"):
        element_from_json(["d", 3])


def test_exponent_normalization():
    g = element(Params(1, 3, 2), [2, 1], [-1, 1])
    assert g.exps == (2, 1)


def test_eval_vs_matrix_product():
    # eval of a concatenation equals the product of evals
    rng = random.Random(2)
    params = Params(2, 2, 3)
    syms = alphabet(params)
    for _ in range(25):
        u = [rng.choice(syms) for _ in range(rng.randrange(5))]
        v = [rng.choice(syms) for _ in range(rng.randrange(5))]
        lhs = eval_word(make_word(params, u + v))
        rhs = mul(eval_word(make_word(params, u)), eval_word(make_word(params, v)))
        assert lhs == rhs

"""Exact sparse polynomial arithmetic over Z[a, b_1..b_{d-1}]."""

import copy
import pickle
import random

import pytest

from gdeen import ArityMismatch, InvariantViolation, Poly


def A(arity=1):
    return Poly.variable(arity, 0)


def B(i, arity):
    return Poly.variable(arity, i)


def rand_poly(rng, arity, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(maxdeg) for _ in range(arity))
        terms[mono] = rng.randrange(-9, 10)
    return Poly(arity, terms)


def test_square():
    a = A()
    assert a * a == Poly(1, {(2,): 1})


def test_difference_of_squares():
    a = A()
    one = Poly.const(1, 1)
    assert (a + one) * (a - one) == a * a - one


def test_commutativity_cross_terms():
    a, b1 = A(2), B(1, 2)
    assert a * b1 + b1 * a == (a * b1).scaled(2)


def test_no_zero_terms_stored():
    a = A()
    z = a - a
    assert z.terms == {} and z.is_zero()
    assert (a * a - a * a).terms == {}


def test_ring_axioms_random():
    rng = random.Random(3)
    for arity in (1, 3):
        zero = Poly.const(arity, 0)
        one = Poly.const(arity, 1)
        for _ in range(40):
            p, q, r = (rand_poly(rng, arity) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + zero == p
            assert p * one == p
            assert p + (-p) == zero


def test_specialize_examples():
    a = A()
    assert (a * a + Poly.const(1, 1)).specialize({"a": 0}) == 1
    p = A(3) * B(1, 3) + B(2, 3)
    assert p.specialize({"a": 1, "b_1": 2, "b_2": 3}) == 5
    assert p.specialize([1, 2, 3]) == 5


def test_specialize_is_homomorphism():
    rng = random.Random(4)
    for _ in range(30):
        p, q = rand_poly(rng, 2), rand_poly(rng, 2)
        vals = [rng.randrange(-3, 4), rng.randrange(-3, 4)]
        assert (p * q).specialize(vals) == p.specialize(vals) * q.specialize(vals)
        assert (p + q).specialize(vals) == p.specialize(vals) + q.specialize(vals)


def test_specialize_requires_total_assignment():
    with pytest.raises(ArityMismatch):
        (A(2) * B(1, 2)).specialize({"a": 1})


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        _ = A(1) + A(2)


def test_canonical_text():
    a, b1 = A(2), B(1, 2)
    p = a * a * b1 + a.scaled(2) - Poly.const(2, 1)
    assert str(p) == "a^2*b_1 + 2*a - 1"
    assert str(Poly.const(2, 0)) == "0"
    assert str(-a) == "-a"
    assert str(a * a - a) == "a^2 - a"


def test_hash_consistency():
    p = A(2) * B(1, 2) + Poly.const(2, 5)
    q = B(1, 2) * A(2) + Poly.const(2, 5)
    assert p == q and hash(p) == hash(q)


def test_malformed_monomials_are_refused():
    for arity in (0, -1):
        with pytest.raises(ArityMismatch):
            Poly(arity, {})
    with pytest.raises(ArityMismatch):
        Poly(1, {(1, 2): 1})
    with pytest.raises(ArityMismatch):
        Poly(2, {(1,): 3})
    with pytest.raises(ArityMismatch):
        Poly.variable(2, 2)
    with pytest.raises(InvariantViolation):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(InvariantViolation):
        Poly(1, {(-2,): 0})


def test_coefficients_must_be_integers():
    for make in (
        lambda: Poly.const(1, 2.5),
        lambda: Poly(1, {(1,): True}),
        lambda: Poly(2, {(0, 1): "3"}),
    ):
        with pytest.raises(InvariantViolation):
            make()


def test_a_poly_refuses_every_attribute_write():
    p = A(2) + Poly.const(2, 1)
    for name, value in (("terms", {}), ("arity", 3), ("other", 0)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, value)
    assert str(p) == "a + 1"


def test_copy_and_pickle_round_trip():
    from gdeen import een, reduce_word

    p = A(3) * A(3) * B(2, 3) - B(1, 3) + Poly.const(3, 7)
    h = reduce_word(een(3, 3), "t1 t0 t0")
    for value in (p, Poly.const(2, 0), h):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and str(copied) == str(value)
    assert hash(pickle.loads(pickle.dumps(p))) == hash(p)


def test_degree_limit_raises_instead_of_carrying():
    from gdeen.polyring import WIDTH

    top, one = (1 << WIDTH) - 1, Poly.const(2, 1)
    p, deg = A(2), 1
    for _ in range(WIDTH - 1):
        p, deg = p * p, 2 * deg
        assert str(p) == f"a^{deg}"
    with pytest.raises(InvariantViolation):
        p * p
    with pytest.raises(InvariantViolation):
        Poly(3, {(0, top + 1, 0): 1})
    high = Poly(2, {(top, 0): 1})
    assert str(high * one) == f"a^{top}"
    for q, r in [(B(1, 2), high), (B(1, 2) + one, high), (B(1, 2) + one, high + one)]:
        with pytest.raises(InvariantViolation):
            q * r
        with pytest.raises(InvariantViolation):
            r * q


def test_fused_and_packed_reads_keep_the_guards_of_multiplication():
    # _dot, the sum of products, refuses mixed arities and a total degree
    # that reaches 2^WIDTH; so does _unpack, reading a packed polynomial back
    from gdeen.polyring import WIDTH, _dot, _unpack

    top, one = (1 << WIDTH) - 1, Poly.const(2, 1)
    with pytest.raises(ArityMismatch):
        _dot([(A(2), one), (A(1), A(1))])
    high = Poly(2, {(0, top): 1})
    assert _dot([(high, one), (one, one)]) == high + one
    with pytest.raises(InvariantViolation):
        _dot([(high, A(2)), (one, one)])
    (code,) = high.terms
    assert _unpack(2, {code: 1}, 8) == high
    with pytest.raises(InvariantViolation):
        _unpack(2, {code: 1 << 8}, 8)  # a * b_1^top


def test_specialize_needs_one_value_per_variable():
    with pytest.raises(ArityMismatch, match="need 2 values, got 1"):
        A(2).specialize([1])
    with pytest.raises(ArityMismatch):
        A(1).specialize((0, 0))


def test_arity_one_has_no_degree_limit():
    p = A()
    for _ in range(40):
        p = p * p
    assert str(p) == "a^1099511627776"
    assert p == Poly(1, {(1 << 40,): 1})


def reference_str(arity, terms):
    """Degree-lex rendering straight from an exponent-tuple map."""
    names = ["a"] + [f"b_{i}" for i in range(1, arity)]
    text = ""
    for mono in sorted((m for m in terms if terms[m]), key=lambda m: (sum(m), m), reverse=True):
        c = terms[mono]
        factors = [n if p == 1 else f"{n}^{p}" for n, p in zip(names, mono) if p]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        text += f" {'-' if c < 0 else '+'} {body}" if text else ("-" if c < 0 else "") + body
    return text or "0"


def rand_terms(rng, arity):
    shape = rng.randrange(6)
    if shape == 0:
        return {(0,) * arity: 1}
    if shape == 1:
        i = rng.randrange(arity)
        return {tuple(int(j == i) for j in range(arity)): rng.choice((1, -1))}
    if shape == 2:
        return {tuple(rng.randrange(4) for _ in range(arity)): rng.randrange(-9, 10)}
    return {
        tuple(rng.randrange(4) for _ in range(arity)): rng.randrange(-9, 10)
        for _ in range(rng.randrange(2, 7))
    }


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for arity in (1, 2, 3, 4):
        syms = sympy.symbols(["a"] + [f"b_{i}" for i in range(1, arity)])
        for _ in range(30):
            pt, qt = rand_terms(rng, arity), rand_terms(rng, arity)
            if rng.random() < 0.25:  # sums that cancel, in part or in full
                qt = {**{m: -c for m, c in pt.items()}, **(qt if rng.random() < 0.5 else {})}
            p, q = Poly(arity, pt), Poly(arity, qt)
            assert str(p) == reference_str(arity, pt)
            sp, sq = (sympy.Poly.from_dict(t, *syms) for t in (pt, qt))
            point = dict(zip(syms, (rng.randrange(-3, 4) for _ in syms)))
            for r, want in [(p * q, sp * sq), (q * p, sq * sp), (p + q, sp + sq), (p - q, sp - sq)]:
                assert sympy.Poly(sympy.sympify(str(r).replace("^", "**")), *syms) == want
                assert r.specialize(point.values()) == want.eval(point)
                assert 0 not in r.terms.values()
            assert p * q == q * p and hash(p * q) == hash(q * p)
            assert p + q == q + p and hash(p + q) == hash(q + p)
            assert hash(p) == hash(Poly(arity, dict(reversed(pt.items()))))

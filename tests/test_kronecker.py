"""The Kronecker encoding behind the relation checks of ``verify_hecke``.

``verify._kronecker(arity, bits, degrees)`` sends a to 2^bits and b_i to
2^(bits*s_i).  On polynomials with every |coefficient| below 2^(bits-1) and
degrees within ``degrees`` it must be injective, and ``verify_hecke`` must
derive bits and degrees from the columns it checks, so that an error in a
column cannot hide in a digit that a narrower encoding would alias.
"""

from types import SimpleNamespace

import pytest

import gdeen.hecke as hecke_mod
import gdeen.verify as verify_mod
from gdeen import ParamsMismatch, Poly, d1n, een, verify_hecke
from gdeen.hecke import ONE
from gdeen.words import T, Z

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

H333, H312 = een(3, 3), d1n(3, 2)


@st.composite
def bounded_pairs(draw):
    """(arity, bits, degrees, P, Q) with P and Q inside the bound; Q is P,
    P with one coefficient changed, or unrelated to P."""
    arity = draw(st.integers(1, 3))
    bits = draw(st.integers(2, 10))
    degrees = draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity))
    top = 2 ** (bits - 1) - 1
    coeff = st.sampled_from([top, -top, 1, -1, 0]) | st.integers(-top, top)
    mono = st.tuples(*(st.integers(0, deg) for deg in degrees))
    terms = st.dictionaries(mono, coeff, max_size=6)
    p = draw(terms)
    how = draw(st.sampled_from(["same", "one coefficient", "unrelated"]))
    if how == "same":
        q = dict(p)
    elif how == "one coefficient":
        q = dict(p)
        m = draw(mono)
        q[m] = draw(coeff.filter(lambda c: c != p.get(m, 0)))
    else:
        q = draw(terms)
    return arity, bits, degrees, Poly(arity, p), Poly(arity, q)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(bounded_pairs())
def test_encoding_is_injective_within_the_bound(case):
    arity, bits, degrees, p, q = case
    encode = verify_mod._kronecker(arity, bits, degrees)
    assert (p == q) == (encode(p) == encode(q))


@pytest.mark.parametrize("bits", [2, 5, 11])
def test_the_bound_is_sharp(bits):
    # 2^(B-1) and -2^(B-1) + a have the same digits in base 2^B: one past
    # the bound, the encoding aliases
    half = 2 ** (bits - 1)
    encode = verify_mod._kronecker(1, bits, [1])
    assert encode(Poly(1, {(0,): half})) == encode(Poly(1, {(0,): -half, (1,): 1}))
    assert encode(Poly(1, {(0,): half - 1})) != encode(Poly(1, {(0,): 1 - half, (1,): 1}))


def test_strides_separate_the_variables():
    # a^(D+1) and b_1 share a digit unless the stride of b_1 exceeds D
    encode = verify_mod._kronecker(2, 4, [2, 1])
    assert encode(Poly(2, {(3, 0): 1})) == encode(Poly(2, {(0, 1): 1}))
    assert encode(Poly(2, {(2, 0): 1})) != encode(Poly(2, {(0, 1): 1}))


def width(monkeypatch, hp):
    """The (bits, degrees) that ``verify_hecke`` chooses on ``hp``."""
    seen = []
    real = verify_mod._kronecker

    def spy(arity, bits, degrees):
        seen.append((bits, degrees))
        return real(arity, bits, degrees)

    with monkeypatch.context() as m:
        m.setattr(verify_mod, "_kronecker", spy)
        assert verify_hecke(hp, samples=0)["ok"]
    (found,) = seen
    return found


def perturb(monkeypatch, hp, letter, error):
    """Add ``error`` times its first entry to one column of ``letter``."""
    real = verify_mod.leftmul_generator
    target = hecke_mod.basis_enumerate(hp)[5]

    def leftmul(hp_, sym, lam):
        h = real(hp_, sym, lam)
        if sym == letter and lam == target:
            mu = next(iter(h.combo))
            return h + hecke_mod.basis_element(hp, mu).scaled(error)
        return h

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)


def test_ok_reports_use_a_width_from_the_columns(monkeypatch):
    assert width(monkeypatch, H333) == (13, [8])
    assert width(monkeypatch, H312) == (11, [4, 4, 3])


@pytest.mark.parametrize(
    "hp, letter, why",
    [(H333, T(0), "coefficient"), (H312, Z, "coefficient"), (H312, Z, "stride")],
    ids=str,
)
def test_an_error_in_a_high_digit_fails_the_relations(monkeypatch, hp, letter, why):
    # the error vanishes under the encoding that the unperturbed columns
    # choose, and has no constant term, so that only a width derived from
    # the perturbed columns can see it
    bits, degrees = width(monkeypatch, hp)
    a = Poly.variable(hp.arity, 0)
    if why == "coefficient":  # a * (2^B - a), zero at a = 2^B
        error = a * (Poly.const(hp.arity, 2**bits) - a)
    else:  # b_1 - a^(D+1), zero where b_1's stride is D + 1
        error = Poly.variable(hp.arity, 1) - Poly(hp.arity, {(degrees[0] + 1, 0, 0): 1})
    encode = verify_mod._kronecker(hp.arity, bits, degrees)
    assert not error.is_zero() and encode(error) == 0
    perturb(monkeypatch, hp, letter, error)
    report = verify_hecke(hp, samples=0)
    assert not report["ok"]
    assert report["failure"] == {
        H333: "relation t0 t2 = t1 t0 failed on column s3 t1 t0",
        H312: "relation z s2 z s2 = s2 z s2 z failed on column s2 z s2",
    }[hp]
    # pinned to the unperturbed width, the same columns pass every check
    monkeypatch.setattr(verify_mod, "_kronecker", lambda arity, *_: encode)
    assert verify_hecke(hp, samples=0)["ok"]


def test_an_index_outside_lambda_is_refused(monkeypatch):
    real = verify_mod.leftmul_generator
    bad = (("x", 7), ONE)  # t_7 is not a letter of H(3,3,3)

    def leftmul(hp, sym, lam):
        h = real(hp, sym, lam)
        if sym == T(1):
            # no element can hold such an index: a stand-in that has only
            # the ``combo`` that verify_hecke reads
            return SimpleNamespace(combo={bad: Poly.const(1, 1)})
        return h

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)
    with pytest.raises(ParamsMismatch, match="not in Lambda"):
        verify_hecke(H333, samples=0)

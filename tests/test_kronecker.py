"""The one width at which ``verify_hecke`` reads the columns' ints.

Each column is the state that ``leftmul_generator`` returns, key for key,
with each int re-packed at one width B where its state's width is not B.
``verify._relation_width`` makes B the larger of the widest state read and
a width that the L1 bound on every relation side shows to make a -> 2^B
injective there, so that an error in a column cannot hide in a digit that
a narrower width would alias.  That a -> 2^B is injective within the bound
is tested in ``test_packed.py``.
"""

from types import SimpleNamespace

import pytest

import gdeen.hecke as hecke_mod
import gdeen.verify as verify_mod
from gdeen import InvariantViolation, ParamsMismatch, Poly, d1n, een, verify_hecke
from gdeen.hecke import ONE
from gdeen.words import T, Z

H333, H312 = een(3, 3), d1n(3, 2)


def width(monkeypatch, hp):
    """The bits of the L1 bound and the width that ``verify_hecke`` uses on
    ``hp``."""
    seen = []
    real = verify_mod._relation_width

    def spy(arity, letters, checks, widest):
        seen.append((real(arity, letters, checks, 1), real(arity, letters, checks, widest)))
        return seen[-1][1]

    with monkeypatch.context() as m:
        m.setattr(verify_mod, "_relation_width", spy)
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
    # the bound needs 13 and 11 bits; every state is read at its own 64
    assert width(monkeypatch, H333) == (13, 64)
    assert width(monkeypatch, H312) == (11, 64)


@pytest.mark.parametrize(
    "hp, letter, why",
    [(H333, T(0), "coefficient"), (H312, Z, "coefficient"), (H312, Z, "stride")],
    ids=str,
)
def test_an_error_in_a_high_digit_fails_the_relations(monkeypatch, hp, letter, why):
    # the coefficient error vanishes at the width that the unperturbed
    # columns are read at, and has no constant term, so that only a width
    # derived from the perturbed columns can see it; the other error is
    # b_1 - a^5, which a b-monomial kept apart by its key cannot alias
    a = Poly.variable(hp.arity, 0)
    if why == "coefficient":  # a * (2^64 - a), zero at a = 2^64
        error = a * (Poly.const(hp.arity, 2**64) - a)
    else:
        error = Poly.variable(hp.arity, 1) - Poly(hp.arity, {(5, 0, 0): 1})
    perturb(monkeypatch, hp, letter, error)
    report = verify_hecke(hp, samples=0)
    assert not report["ok"]
    assert report["failure"] == {
        H333: "relation t0 t2 = t1 t0 failed on column s3 t1 t0",
        H312: "relation z s2 z s2 = s2 z s2 z failed on column s2 z s2",
    }[hp]
    if why == "coefficient":
        # pinned to the unperturbed width, the same columns pass every check
        monkeypatch.setattr(verify_mod, "_relation_width", lambda *_: 64)
        assert verify_hecke(hp, samples=0)["ok"]


def test_a_b_degree_that_would_carry_is_refused(monkeypatch):
    # the cyclotomic side b_1 z^2 has b-degree 1 plus z's; with code
    # fields of one bit that degree would carry into the next field
    monkeypatch.setattr(verify_mod, "WIDTH", 1)
    with pytest.raises(InvariantViolation, match="b-degree"):
        verify_hecke(H312, samples=0)


def test_a_unit_column_with_a_b_monomial_is_no_basis_vector():
    # the one entry of int 1 sits at position 1 with b-code 1: b * e_1
    size = 4
    columns = {Z: (1, [(1 + 1 * size, 1)] * size)}
    assert verify_mod._unit_path(columns, size, (Z,), 0) is None
    columns = {Z: (1, [(1, 1)] * size)}
    assert verify_mod._unit_path(columns, size, (Z,), 0) == 1


def test_a_translation_report_lists_positions_as_they_first_appear(monkeypatch):
    # z * z = b_1 z + 1 in H(2,1,2): z's position first appears at the key
    # of b_1, then the identity's at b-monomial 1.  Adding 1 * z makes z's
    # position the second one below |Lambda|; the report still lists it
    # first, as the position of its first key.  The relations are made to
    # hold, so that the translation is the failure named.
    hp, lam = d1n(2, 2), (("zp", 1), ONE)
    real = verify_mod.leftmul_generator

    def leftmul(hp_, sym, mu):
        h = real(hp_, sym, mu)
        return h + hecke_mod.basis_element(hp, lam) if (sym, mu) == (Z, lam) else h

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)
    monkeypatch.setattr(verify_mod, "_int_side", lambda terms, j: {})
    failure = verify_hecke(hp, samples=0)["failure"]
    assert (failure["generator"], failure["basis"]) == ("z", "z")
    assert list(failure["specialization"].items()) == [
        ("G(2,1,2)[1->1^1, 2->2^0]", 1),
        ("G(2,1,2)[1->1^0, 2->2^0]", 1),
    ]


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

"""Each way of breaking the Hecke engine must make ``verify_hecke`` fail.

Every test patches one engine rule, or the basis the suite checks, so that
one check of the suite sees the damage: the report must have
``"ok": false`` with that check's failure text, and ``gdeen hecke-verify``
must exit 1.  The engines are cached per algebra, with memos filled by the
patched rule, so every test drops them before and after it runs.
"""

import contextlib
import io

import pytest

import gdeen.hecke as hecke_mod
import gdeen.verify as verify_mod
from gdeen import Poly, as_word, basis_element, d1n, een, verify_hecke, word_text
from gdeen.cli import main
from gdeen.hecke import _Engine
from gdeen.words import T

H333, H332, H312 = een(3, 3), een(3, 2), d1n(3, 2)


@pytest.fixture(autouse=True)
def fresh_engines():
    hecke_mod._engine.cache_clear()
    yield
    hecke_mod._engine.cache_clear()


def mutate(monkeypatch, rule, edit):
    """Replace ``_Engine.<rule>`` by edit(engine, args, what the rule returns)."""
    real = getattr(_Engine, rule)
    monkeypatch.setattr(_Engine, rule, lambda self, *args: edit(self, args, real(self, *args)))


def failure(hp, samples=0):
    report = verify_hecke(hp, samples=samples)
    assert not report["ok"]
    flag = "--e" if hp.family == "een" else "--d"
    argv = ["hecke-verify", "--family", hp.family, flag, str(hp.p), "--n", str(hp.n)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--samples", str(samples)]) == 1
    return report["failure"]


def test_sign_in_the_tjti_recurrence_breaks_a_relation(monkeypatch):
    # t_j t_i = t_{j-1} t_{i-1} + a (t_i - t_{j-1}) with the a terms negated
    def edit(eng, args, out):
        j, i = (v % eng.p for v in args)
        if i in (0, j):
            return out
        return [(c if sh[0] == "xa" else -c, sh) for c, sh in out]

    mutate(monkeypatch, "_expand2_tt", edit)
    assert failure(H333) == "relation t0 t2 = t1 t0 failed on column t1"


def test_missing_a_term_of_s2_on_the_right_breaks_a_relation(monkeypatch):
    # s_2 s_2 = 1 and s_2 z^j s_2 s_2 = s_2 z^j at rank 2: the a term of
    # the quadratic split in the fold of s_2 dropped
    def edit(eng, args, out):
        m, c, _, _, j = args
        return [t for t in out if t[0] != c * eng.A] if m == j == 2 else out

    mutate(monkeypatch, "_loc_s", edit)
    assert failure(H312) == "relation z s2 z s2 = s2 z s2 z failed on column s2 z"


def test_missing_b1_breaks_the_cyclotomic_relation(monkeypatch):
    # z^d reduced as if b_1 were 0: still an algebra, so only z^d sees it
    def edit(eng, args, out):
        (m,) = args
        return [(c, k) for c, k in out if not (m == eng.p and k == eng.p - 1)]

    mutate(monkeypatch, "_zpow_reduce", edit)
    assert failure(H312) == "cyclotomic relation z^d = sum b_i z^{d-i} + 1 failed"


@pytest.mark.parametrize("hp, letter", [(H333, "t0"), (H312, "s2")], ids=str)
def test_negated_a_breaks_the_quadratic_relation(monkeypatch, hp, letter):
    # every rule built with -a: the algebra x^2 = -a x + 1, whose braid
    # relations all hold
    real = _Engine.__init__

    def init(self, hp):
        real(self, hp)
        self.A = -self.A

    monkeypatch.setattr(_Engine, "__init__", init)
    assert failure(hp) == f"quadratic relation failed for {letter}"


def test_rotated_generators_fail_the_specialization(monkeypatch):
    # t_i acting as t_{i+1} is a diagram automorphism of H(e,e,2): every
    # relation holds, but at a -> 0 the action is not left translation
    real = _Engine._base_een
    monkeypatch.setattr(
        _Engine, "_base_een", lambda self, sym, shapes: real(self, T(sym.i + 1), shapes)
    )
    assert failure(H332) == {
        "generator": "t0",
        "basis": "",
        "specialization": {"G(3,3,2)[1->2^2, 2->1^1]": 1},
    }


def test_dropped_word_coefficients_fail_associativity(monkeypatch):
    # a product that forgets the coefficients of its left factor; one word
    # with coefficient 1, as in the relation checks, is still right
    real = _Engine.apply

    def apply(self, words, terms):
        return real(self, [(self.one, w) for _, w in words], terms)

    monkeypatch.setattr(_Engine, "apply", apply)
    assert failure(H333, samples=3) == "associativity sample failed"


def test_missing_basis_element_fails_the_count(monkeypatch):
    real = verify_mod.basis_enumerate
    monkeypatch.setattr(verify_mod, "basis_enumerate", lambda hp: real(hp)[1:])
    assert failure(H333) == "|Lambda| = 53 but |W| = 54"


def test_colliding_basis_words_fail_the_bijection(monkeypatch):
    real = verify_mod._index_word
    first, second = hecke_mod.basis_enumerate(H333)[:2]
    monkeypatch.setattr(
        verify_mod, "_index_word", lambda hp, lam: real(hp, first if lam == second else lam)
    )
    assert failure(H333) == f"as_word not injective: {second} and {first} collide"


@pytest.mark.parametrize("hp", [H333, d1n(2, 3)], ids=str)
def test_a_conjugated_action_fails_freeness(monkeypatch, hp):
    # every column conjugated by Q = I + a E_{mu,nu}, with mu, nu distinct
    # and not the identity: the relations hold and a -> 0 gives the same
    # translations, but T_nu sends 1 to Q^{-1} e_nu = e_nu - a e_mu
    real = verify_mod.leftmul_generator
    mu, nu = hecke_mod.basis_enumerate(hp)[1:3]
    a = Poly.variable(hp.arity, 0)

    def conjugated(hp, sym, lam):
        col = real(hp, sym, lam)  # X Q e_lam, then Q^{-1} = I - a E_{mu,nu}
        if lam == nu:
            col = col + real(hp, sym, mu).scaled(a)
        c = col.combo.get(nu)
        return col if c is None else col + basis_element(hp, mu).scaled(-(a * c))

    monkeypatch.setattr(verify_mod, "leftmul_generator", conjugated)
    word = word_text(as_word(hp, nu))
    assert failure(hp) == f"basis word {word} does not send 1 to its basis element"

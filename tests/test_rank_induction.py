"""``verify_hecke`` certifies the action on the folds of its letters.

A letter of level l acts on an index (lambda', lambda'') as it does on
(lambda', 1, .., 1), lambda'' the shapes above level l, with lambda''
re-appended: its parabolic law, checked as its columns are read.  Where
it holds, the letter's fold is the product of the sizes of the levels
above l, and a relation among letters whose least fold is f first fails,
if at all, on a multiple of f, so it runs only there; where it fails, the
letter has fold 1, and the relations with it run on every column.  The
report names the failure that checking every relation on every column
would name.
"""

import contextlib
import io
import random
from collections import Counter

import pytest

import gdeen.hecke as hecke_mod
import gdeen.verify as verify_mod
from gdeen import (
    HeckeElement,
    Poly,
    as_word,
    basis_element,
    basis_enumerate,
    d1n,
    een,
    eval_word,
    hecke_relations,
    leftmul_generator,
    mul,
    verify_hecke,
    word_text,
)
from gdeen.cli import main
from gdeen.hecke import ONE
from gdeen.words import S, T, Z, alphabet, generator

H333 = een(3, 3)


@pytest.fixture(autouse=True)
def fresh_engines():
    hecke_mod._engine.cache_clear()
    yield
    hecke_mod._engine.cache_clear()


def break_top_copy(monkeypatch, letter):
    """Drop the a-multiples from ``letter``'s columns where the top shape is
    not empty, as ``verify_hecke`` reads them (``leftmul_generator``): the
    engine keeps no such column, it moves the one at (lambda', 1).  On the
    indices (lambda', 1) the letter still acts as at rank n-1, so only a
    check at rank n sees the damage."""
    real = verify_mod.leftmul_generator

    def leftmul(hp, sym, lam):
        col = real(hp, sym, lam)
        if sym != letter or lam[-1] == ONE:
            return col
        zeros = [0] * hp.arity
        return HeckeElement(hp, {mu: c for mu, c in col.combo.items() if c.specialize(zeros)})

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)


def test_a_broken_top_level_copy_fails_the_lower_relations_at_rank_n(monkeypatch):
    # t0 t2 = t1 t0 holds at rank 2; t0 fails its parabolic law as it is
    # read, so the relation runs on every column and fails on t1 s3, whose
    # top shape is s3
    break_top_copy(monkeypatch, T(0))
    report = verify_hecke(H333, samples=0)
    assert not report["ok"]
    assert report["failure"] == "relation t0 t2 = t1 t0 failed on column t1 s3"
    argv = ["hecke-verify", "--family", "een", "--e", "3", "--n", "3", "--samples", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 1


def test_without_the_read_time_check_the_break_goes_unseen(monkeypatch):
    # with t0 kept folded as if it passed its parabolic law, only its
    # unbroken columns at (lambda', 1) are kept, and every check holds: the
    # law checked as the columns are read is what finds the break
    break_top_copy(monkeypatch, T(0))
    real = verify_mod._read

    def read(hp, x, *args):
        (fold, cols), bounds = real(hp, x, *args)
        return ((9, cols[::9]) if x == T(0) else (fold, cols)), bounds

    monkeypatch.setattr(verify_mod, "_read", read)
    assert verify_hecke(H333, samples=0)["ok"]


def spy_reads(monkeypatch):
    """Each letter's fold and kept columns, as ``verify._read`` returns them."""
    reads = {}
    real = verify_mod._read

    def read(hp, x, *args):
        out = real(hp, x, *args)
        reads[x] = out[0]
        return out

    monkeypatch.setattr(verify_mod, "_read", read)
    return reads


def test_a_letter_is_kept_once_per_position_of_its_rank(monkeypatch):
    # in the engine and in the certificate: no level-n column of a letter
    # is computed where a shape above its level is not empty, and each
    # keeps |Lambda| / w columns, where its fold w is the product of the
    # sizes of the levels above its own: 9 * 12 for the t's, 12 for s3
    hp = een(3, 4)
    calls = []
    real = hecke_mod._Engine._column

    def column(self, m, sym, shapes):
        # shapes[0] is level 2
        if m == self.n and set(shapes[hecke_mod._letter_level(sym) - 1 :]) - {ONE}:
            calls.append((sym, shapes))
        return real(self, m, sym, shapes)

    monkeypatch.setattr(hecke_mod._Engine, "_column", column)
    reads = spy_reads(monkeypatch)
    assert verify_hecke(hp, samples=0)["ok"]
    assert calls == []
    eng = hecke_mod._engine(hp)
    kept = {"t0": (108, 6), "t1": (108, 6), "t2": (108, 6), "s3": (12, 54), "s4": (1, 648)}
    assert {str(x) for x in eng._packed} == set(kept)
    for x, (fold, chunks) in eng._packed.items():
        # the slots in order, the one of the column at p at p // fold
        slots = [col for i in sorted(chunks) for col in chunks[i]]
        table, rest = slots[: 648 // fold], slots[648 // fold :]
        assert (fold, len(table)) == kept[str(x)] and fold == hecke_mod._letter_fold(hp, x)
        assert None not in table and set(rest) <= {None}
        assert reads[x][0] == fold and len(reads[x][1]) == len(table)


def test_a_broken_letter_keeps_every_column_in_the_certificate(monkeypatch):
    # t0 fails its parabolic law as it is read, so it keeps all 54 columns;
    # the other t's keep one per rank-2 position
    break_top_copy(monkeypatch, T(0))
    reads = spy_reads(monkeypatch)
    verify_hecke(H333, samples=0)
    assert {str(x): (fold, len(cols)) for x, (fold, cols) in reads.items()} == {
        "t0": (1, 54),
        "t1": (9, 6),
        "t2": (9, 6),
        "s3": (1, 54),
    }


def test_equal_columns_are_kept_once(monkeypatch):
    # keyed relative to their own position, s4's columns at H(3,3,4)
    # repeat: its 648 kept columns are 163 distinct tuples, each one object
    reads = spy_reads(monkeypatch)
    assert verify_hecke(een(3, 4), samples=0)["ok"]
    fold, cols = reads[S(4)]
    assert (fold, len(cols), len(set(cols)), len(set(map(id, cols)))) == (1, 648, 163, 163)


def test_a_kept_column_moved_to_a_position_has_that_position_s_keys(monkeypatch):
    # for each letter, the column kept for position j, its keys plus j, has
    # the keys of the nonzero entries of x * e_j as the engine returns it
    hp = een(3, 4)
    reads = spy_reads(monkeypatch)
    assert verify_hecke(hp, samples=0)["ok"]
    basis, rng = basis_enumerate(hp), random.Random(0)
    for x, (fold, cols) in reads.items():
        for j in rng.sample(range(len(basis)), 12):
            vec = leftmul_generator(hp, x, basis[j])._state.vec
            assert [q + j for q in cols[j // fold][::2]] == [q for q, v in vec.items() if v]


def test_a_broken_letter_lists_its_kept_columns_up_to_the_break(monkeypatch):
    # t0 keeps one column per rank-2 position until its law fails; from
    # there it keeps every column, and those before the break are the
    # objects it kept, listed once per position, not moved copies
    break_top_copy(monkeypatch, T(0))
    reads = spy_reads(monkeypatch)
    verify_hecke(H333, samples=0)
    fold, cols = reads[T(0)]
    assert (fold, len(cols)) == (1, 54)
    broken = next(j for j in range(54) if cols[j] != cols[j - j % 9])
    assert broken > 9
    assert all(cols[j] is cols[j - j % 9] for j in range(broken))


def test_rank_n_checks_only_the_relations_with_s_n_on_every_column(monkeypatch):
    # H(3,3,4): the 3 relations s4 t_i = t_i s4, s3 s4 s3 = s4 s3 s4 and
    # s4's quadratic relation run on all 648 columns, each side once; the
    # other 10 checks run on the 54 columns of rank 3 (4 of them) or the 6
    # of rank 2 (6 of them)
    sides = Counter()
    real = verify_mod._int_side

    def counting(terms, j):
        sides[j] += 1
        return real(terms, j)

    monkeypatch.setattr(verify_mod, "_int_side", counting)
    report = verify_hecke(een(3, 4), samples=0)
    assert report["ok"]
    assert report["relation_columns_checked"] == 10 * 648
    assert sum(sides.values()) == 2 * (5 * 648 + 4 * 54 + 6 * 6)
    # a column whose top shape is not empty sees only the checks with s4
    top = len(hecke_mod._shape_table(een(3, 4))[0][-1])
    assert {n for j, n in sides.items() if j % top} == {2 * 5}


def flat_failure(hp):
    """The first failure of the relations, then of the translations, each
    checked on every column, on the ``Poly`` columns that ``verify_hecke``
    reads: the reference that the induction must agree with."""
    gp, basis = hp.group_params(), basis_enumerate(hp)
    letters = alphabet(gp)
    cols = {x: {lam: verify_mod.leftmul_generator(hp, x, lam).combo for lam in basis} for x in letters}
    zero, one, a = (Poly.const(hp.arity, 0), Poly.const(hp.arity, 1), Poly.variable(hp.arity, 0))
    checks = [
        (f"relation {word_text(u)} = {word_text(v)} failed on column {{}}", [(one, u.syms)], [(one, v.syms)])
        for u, v in hecke_relations(hp)
    ]
    checks += [
        (f"quadratic relation failed for {x}", [(one, (x, x))], [(a, (x,)), (one, ())])
        for x in letters
        if x.kind != "z"
    ]
    if hp.family == "d1n":
        powers = [(Poly.variable(hp.arity, i), (Z,) * (hp.p - i)) for i in range(1, hp.p)]
        text = "cyclotomic relation z^d = sum b_i z^{{d-i}} + 1 failed"
        checks.append((text, [(one, (Z,) * hp.p)], [(one, ())] + powers))

    def side(terms, lam):
        acc = {}
        for c, word in terms:
            vec = {lam: c}
            for x in reversed(word):
                out = {}
                for mu, k in vec.items():
                    for nu, k2 in cols[x][mu].items():
                        out[nu] = out.get(nu, zero) + k * k2
                vec = out
            for mu, k in vec.items():
                acc[mu] = acc.get(mu, zero) + k
        return {mu: k for mu, k in acc.items() if not k.is_zero()}

    for text, lhs, rhs in checks:
        for lam in basis:
            if side(lhs, lam) != side(rhs, lam):
                return text.format(word_text(as_word(hp, lam)))
    g = {lam: eval_word(as_word(hp, lam)) for lam in basis}
    for x in letters:
        for lam in basis:
            spec = {g[mu]: v for mu, c in cols[x][lam].items() if (v := c.specialize([0] * hp.arity))}
            if spec != {mul(generator(gp, x), g[lam]): 1}:
                return {
                    "generator": str(x),
                    "basis": word_text(as_word(hp, lam)),
                    "specialization": {str(h): v for h, v in spec.items()},
                }
    return None


@pytest.mark.parametrize("seed", range(12))
def test_a_perturbed_action_gets_the_flat_report(monkeypatch, seed):
    # seeded changes to the columns that verify_hecke reads: a multiple of
    # a basis vector added to one or two columns, mostly ones whose top
    # shape is not empty, or every column conjugated by I + c E_{mu,nu};
    # the report names what checking everything on every column names
    rng = random.Random(seed)
    hp = [een(3, 3), d1n(2, 3), een(2, 4)][seed % 3]
    basis = basis_enumerate(hp)
    a = Poly.variable(hp.arity, 0)
    c = rng.choice([Poly.const(hp.arity, 1), -a, a * a])
    real = verify_mod.leftmul_generator
    if seed % 2:
        mu, nu = rng.sample(basis[1:], 2)

        def leftmul(hp, sym, lam):
            col = real(hp, sym, lam)
            if lam == nu:
                col = col + real(hp, sym, mu).scaled(c)
            k = col.combo.get(nu)
            return col if k is None else col + basis_element(hp, mu).scaled(-(c * k))

    else:
        tops = [lam for lam in basis if lam[-1] != ONE]
        letters = alphabet(hp.group_params())
        changed = {(rng.choice(letters), rng.choice(tops)) for _ in range(rng.choice([1, 2]))}
        target = rng.choice(basis)

        def leftmul(hp, sym, lam):
            col = real(hp, sym, lam)
            return col + basis_element(hp, target).scaled(c) if (sym, lam) in changed else col

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)
    report = verify_hecke(hp, samples=0)
    expected = flat_failure(hp)
    if expected is None:
        assert report["ok"] or report["failure"].startswith("basis word")
    else:
        assert report["failure"] == expected


@pytest.mark.parametrize(
    "hp, letter",
    [(een(3, 3), "t0"), (een(3, 4), "s3"), (d1n(2, 3), "s2"), (d1n(3, 3), "s2")],
    ids=["H(3,3,3)", "H(3,3,4)", "H(2,1,3)", "H(3,1,3)"],
)
def test_a_sign_conjugated_action_gets_the_flat_report(monkeypatch, hp, letter):
    # every column conjugated by the diagonal of signs s_lambda, -1 where
    # the level-(n-1) shape is an x shape: each entry at mu of the column
    # at lambda is multiplied by s_lambda s_mu.  The relations still hold,
    # and the first failure is the translation of a letter below s_n, which
    # runs only on the multiples of its fold
    def sign(lam):
        return -1 if lam[-2][0] == "x" else 1

    real = verify_mod.leftmul_generator

    def leftmul(hp, sym, lam):
        col = real(hp, sym, lam).combo
        return HeckeElement(hp, {mu: c if sign(lam) == sign(mu) else -c for mu, c in col.items()})

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)
    report = verify_hecke(hp, samples=0)
    expected = flat_failure(hp)
    assert expected["generator"] == letter and report["failure"] == expected


@pytest.mark.parametrize(
    "hp, letter, index, target",
    [
        # t1's column at (t1, 1) gains an entry at (t1, s3), and the one at
        # (t1, mu) the entry moved by mu: each copy is still the moved
        # (t1, 1) column, but that column leaves the rank-2 module, which
        # t1's parabolic law finds as t1 is read
        (een(3, 3), T(1), (("x", 1), ONE), (("x", 1), ("d", 3))),
        # z's column at (1, s2, mu) gains the entry at (1, 1, mu): each copy
        # is still the moved (1, s2, 1) column, but z's fold spans levels 2
        # and 3, and (1, s2, 1) is no copy of (1, 1, 1), which z's parabolic
        # law finds as z is read
        (d1n(2, 3), Z, (("zp", 0), ("d", 2), ONE), (("zp", 0), ONE, ONE)),
    ],
    ids=["rank-3", "rank-2"],
)
def test_a_perturbation_moved_along_the_top_shape_gets_the_flat_report(monkeypatch, hp, letter, index, target):
    basis = basis_enumerate(hp)
    w = len(hecke_mod._shape_table(hp)[0][-1])
    p0, t = basis.index(index), basis.index(target)
    c = -Poly.variable(hp.arity, 0)
    real = verify_mod.leftmul_generator

    def leftmul(hp, sym, lam):
        col = real(hp, sym, lam)
        r = basis.index(lam) - p0
        return col + basis_element(hp, basis[t + r]).scaled(c) if sym == letter and 0 <= r < w else col

    monkeypatch.setattr(verify_mod, "leftmul_generator", leftmul)
    reads = spy_reads(monkeypatch)
    report = verify_hecke(hp, samples=0)
    expected = flat_failure(hp)
    assert expected is not None and report["failure"] == expected
    assert reads[letter][0] == 1


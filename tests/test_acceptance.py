"""Acceptance criteria, one test per criterion, exact tolerances.

Criterion groups:
  1  geodesy against BFS on the full parameter grid
  2  worked examples, bit-exact
  3  maximal-length census for d > 1, e > 1
  4  unique longest element for e = 1
  5  Lipschitz property of the length function
  6  basis cardinalities and the Lambda <-> W bijection
  7  freeness witness: left action specializes to left translation
  8  relation fidelity in the Hecke algebras
  9  named reductions
 10  the t_j t_i recurrence lands in Span(Lambda_2)

Each test prints one PASS line; run with -s (or check the captured log)
for the human-readable report.
"""

from cayley_oracle import enumerate_group

from gdeen import (
    Params,
    Poly,
    as_word,
    basis_enumerate,
    d1n,
    een,
    element,
    eval_word,
    hecke_relations,
    make_word,
    mul,
    normal_form,
    reduce_word,
    specialize_to_group,
    word_text,
)
from gdeen.hecke import ONE
from gdeen.normal_form import (
    length,
    longest_element_word,
    max_length_census,
    max_length_witness_word,
)
from gdeen.verify import verify_hecke
from gdeen.words import T, alphabet, generator

GEODESIC_GRID = (
    [Params(1, e, n) for e in range(1, 5) for n in range(2, 5)]
    + [Params(d, 1, n) for d in range(2, 5) for n in range(2, 5)]
    + [Params(d, e, n) for (d, e) in [(2, 2), (3, 2), (2, 3), (3, 3)] for n in (2, 3)]
    + [Params(3, 3, 4)]
)

HECKE_GRID = [een(1, 3), een(2, 3), een(3, 3), een(4, 3), een(3, 4)] + [
    d1n(2, 2),
    d1n(2, 3),
    d1n(3, 2),
    d1n(3, 3),
    d1n(4, 2),
]

_length_cache: dict[Params, tuple] = {}


def grid_lengths(params):
    """(table, lengths) for one grid point, computed once per session."""
    if params not in _length_cache:
        table = enumerate_group(params)
        _length_cache[params] = (table, [length(g) for g in table.elements])
    return _length_cache[params]


def test_criterion_1_geodesy():
    for params in GEODESIC_GRID:
        table, lengths = grid_lengths(params)
        assert lengths == list(table.dist), f"length != BFS distance in {params}"
    print(f"ACCEPTANCE 1 geodesy: PASS ({len(GEODESIC_GRID)} groups, exact)")


def test_criterion_2_worked_examples():
    g = element(Params(3, 3, 4), [1, 3, 4, 2], [1, 0, 1, 1])
    nf = normal_form(g)
    assert word_text(nf.word) == "z s3 t1 t0 s3 s4 s3 t1 t0"
    assert {lvl: word_text(w) for lvl, w in zip(nf.levels, nf.parts)} == {
        1: "z",
        2: "",
        3: "s3 t1 t0 s3",
        4: "s4 s3 t1 t0",
    }
    g2 = element(Params(3, 1, 3), [2, 3, 1], [1, 2, 2])
    assert word_text(normal_form(g2).word) == "z s2 z z s2 s3 s2 z z"
    print("ACCEPTANCE 2 worked examples: PASS (bit-exact)")


def test_criterion_3_max_length_census_general():
    checked = 0
    for params in GEODESIC_GRID:
        if params.d <= 1 or params.e <= 1:
            continue
        max_len, count, witnesses = max_length_census(params)
        assert max_len == params.n * (params.n - 1) + params.d - 1, params
        assert count == (params.de - 1) ** (params.n - 1), params
        for nf in witnesses:
            g = eval_word(nf.word)
            assert g.perm == tuple(range(1, params.n + 1)), "witness not diagonal"
            assert all(k != 0 for k in g.exps[1:])
            assert nf.word == max_length_witness_word(params, g.exps[1:])
        checked += 1
    print(f"ACCEPTANCE 3 census n(n-1)+d-1 / (de-1)^(n-1): PASS ({checked} groups)")


def test_criterion_4_longest_element_d1n():
    checked = 0
    for params in GEODESIC_GRID:
        if params.e != 1 or params.d <= 1:
            continue
        max_len, count, witnesses = max_length_census(params)
        assert max_len == params.n * (params.n + params.d - 2), params
        assert count == 1, params
        assert witnesses[0].word == longest_element_word(params)
        if params.d == 2:
            assert max_len == params.n**2
        checked += 1
    print(f"ACCEPTANCE 4 unique longest element n(n+d-2): PASS ({checked} groups)")


def test_criterion_5_lipschitz():
    total = 0
    for params in GEODESIC_GRID:
        table, lengths = grid_lengths(params)
        for sym in alphabet(params):
            x = generator(params, sym)
            for g, lg in zip(table.elements, lengths):
                assert lengths[table.index[mul(x, g)]] <= lg + 1
                total += 1
    print(f"ACCEPTANCE 5 Lipschitz length(xg) <= length(g)+1: PASS ({total} pairs)")


def test_criterion_6_basis_cardinalities():
    import math

    for hp in HECKE_GRID:
        basis = basis_enumerate(hp)
        if hp.family == "een":
            assert len(basis) == hp.p ** (hp.n - 1) * math.factorial(hp.n)
        else:
            assert len(basis) == hp.p**hp.n * math.factorial(hp.n)
        images = {eval_word(as_word(hp, lam)) for lam in basis}
        assert len(images) == len(basis) == hp.group_params().order()
    print(f"ACCEPTANCE 6 |Lambda| and bijection onto W: PASS ({len(HECKE_GRID)} algebras)")


def test_criterion_7_freeness_witness():
    entries = 0
    for hp in HECKE_GRID:
        samples = 100 if hp in (een(3, 3),) else 20
        report = verify_hecke(hp, samples=samples)
        assert report["ok"], (str(hp), report.get("failure"))
        entries += report["action_entries_checked"]
    print(
        "ACCEPTANCE 7 freeness witness (action = left-regular permutation at"
        f" a,b -> 0): PASS ({entries} action entries over {len(HECKE_GRID)} algebras)"
    )


def test_criterion_8_relation_fidelity():
    rel_count = 0
    for hp in HECKE_GRID:
        for u, v in hecke_relations(hp):
            assert reduce_word(hp, u) == reduce_word(hp, v), (str(hp), word_text(u))
            rel_count += 1
        gp = hp.group_params()
        one = Poly.const(hp.arity, 1)
        a = Poly.variable(hp.arity, 0)
        from gdeen.hecke import unit

        for sym in alphabet(gp):
            if sym.kind == "z":
                continue
            lhs = reduce_word(hp, make_word(gp, [sym, sym]))
            rhs = reduce_word(hp, make_word(gp, [sym])).scaled(a) + unit(hp)
            assert lhs == rhs
        if hp.family == "d1n":
            from gdeen.words import Z

            d = hp.p
            lhs = reduce_word(hp, make_word(gp, [Z] * d))
            rhs = unit(hp)
            for i in range(1, d):
                bi = Poly.variable(hp.arity, i)
                rhs = rhs + reduce_word(hp, make_word(gp, [Z] * (d - i))).scaled(bi)
            assert lhs == rhs
    print(f"ACCEPTANCE 8 relation fidelity: PASS ({rel_count} braid relations + orders)")


def test_criterion_9_named_reductions():
    hp = een(3, 3)
    got = reduce_word(hp, "t1 t0 t0")
    a = Poly.variable(hp.arity, 0)
    by_word = {word_text(as_word(hp, lam)): c for lam, c in got.combo.items()}
    assert by_word == {"t1 t0": a, "t1": Poly.const(1, 1)}
    hp2 = d1n(2, 2)
    got2 = reduce_word(hp2, "s2 z s2 s2")
    a2 = Poly.variable(hp2.arity, 0)
    by_word2 = {word_text(as_word(hp2, lam)): c for lam, c in got2.combo.items()}
    assert by_word2 == {"s2 z s2": a2, "s2 z": Poly.const(hp2.arity, 1)}
    print("ACCEPTANCE 9 named reductions a*(t1t0)+t1 and a*(s2zs2)+s2z: PASS")


def test_criterion_10_tjti_recurrence():
    pairs = 0
    for e in range(2, 6):
        hp = een(e, 3)
        gp = hp.group_params()
        a = Poly.variable(hp.arity, 0)
        for j in range(e):
            for i in range(e):
                if i == j:
                    continue
                w = make_word(gp, [T(j), T(i)])
                got = reduce_word(hp, w)
                assert all(lam[1] == ONE for lam in got.combo)
                rhs = (
                    reduce_word(hp, make_word(gp, [T((j - 1) % e), T((i - 1) % e)]))
                    + reduce_word(hp, make_word(gp, [T(i)])).scaled(a)
                    + reduce_word(hp, make_word(gp, [T((j - 1) % e)])).scaled(-a)
                )
                assert got == rhs
                assert specialize_to_group(got) == {eval_word(w): 1}
                pairs += 1
    print(f"ACCEPTANCE 10 t_j t_i recurrence lands in Span(Lambda_2): PASS ({pairs} pairs)")

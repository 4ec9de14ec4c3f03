"""Batch verification suites backing the CLI and the acceptance tests.

Each function returns a JSON-serializable report with an "ok" flag and,
on failure, the first counterexample.  These are the desk-scale witnesses
for the geodesic and freeness theorems: exhaustive, exact, and checked
against the generator matrices rather than against the code under test.
Neither suite builds a BFS table.  The geodesic certificate evaluates
words with the generators' row moves (``cayley.row_moves``); the Hecke
suite compares the action with left multiplication of group elements
through the a -> 0 specialization.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import reduce
from itertools import chain
from operator import add, sub

from .cayley import row_moves
from .errors import InvariantViolation, ParamsMismatch
from .group import DEFAULT_CAP, GroupElement, Params, _checked_order, _is_int, mul
from .hecke import (
    HeckeParams,
    apply_word,
    as_word,
    basis_element,
    basis_enumerate,
    hecke_mul,
    hecke_relations,
    leftmul_generator,
    specialize_to_group,
    validate_basis_index,
)
from .normal_form import _rank_order, _sweeps, census_expected, normal_form
from .polyring import Poly
from .words import Z, alphabet, eval_word, generator, make_word, word_text

__all__ = ["verify_geodesic", "verify_hecke"]


def verify_geodesic(params: Params, cap: int = DEFAULT_CAP) -> dict:
    """Certify that every normal form is geodesic; censuses cross-checked.

    Let f(g) be the length of g's normal form, stored in one array indexed
    by the rank of g (see ``normal_form._rank_order``).  f is the word
    metric d of the left Cayley graph when three checks hold:

    * f(1) = 0;
    * every normal form spells its element, evaluated from the identity
      with the generators' row moves;
    * f(x*g) <= f(g) + 1 for every g and every letter x.

    Spelling gives d <= f.  The other two give f <= d, by induction along
    a geodesic.  No BFS table is built; ``cap`` bounds the order as it does
    for ``enumerate_group``.
    """
    perms, vecs = _rank_order(params, cap)
    perms = list(perms)
    width = len(vecs)
    # left multiplication acts on the permutation and on the exponents
    # separately, so a letter maps rank P * width + E to ptab[P] * width + etab[E]
    tables = _left_tables(params, perms, vecs)
    n, d = params.n, params.d
    # a level-i part has at most 2i + d letters; wider lengths still raise
    f = array("B" if n * (n + 1 + d) < 256 else "H", [0]) * params.order()
    for rank, (perm, ks, parts) in enumerate(_sweeps(params, perms, vecs)):
        word = list(chain.from_iterable(parts))
        at, ke = 0, 0  # the identity's ranks
        for x in reversed(word):
            ptab, etab = tables[x]
            at, ke = ptab[at], etab[ke]
        if at * width + ke != rank:
            why = "normal form does not evaluate back to the element"
            return _geodesic_failure(params, perm, ks, len(word), reason=why)
        try:
            f[rank] = len(word)
        except OverflowError:
            raise InvariantViolation(
                f"normal form of length {len(word)} does not fit the length array"
            ) from None
    if f[0]:
        why = "the identity has a non-empty normal form"
        return _geodesic_failure(params, perms[0], vecs[0], f[0], reason=why)
    letters = alphabet(params)
    for p_rank in range(len(perms)):
        here = f[p_rank * width : (p_rank + 1) * width]
        for x, (ptab, etab) in enumerate(tables):
            q_rank = ptab[p_rank]
            there = f[q_rank * width : (q_rank + 1) * width]
            if max(map(sub, map(there.__getitem__, etab), here)) > 1:
                e_rank = next(i for i, j in enumerate(etab) if there[j] > here[i] + 1)
                g = GroupElement(params, perms[p_rank], vecs[e_rank])
                shorter = f"{letters[x]} {word_text(normal_form(g).word)}".strip()
                return _geodesic_failure(
                    params,
                    perms[q_rank],
                    vecs[etab[e_rank]],
                    there[etab[e_rank]],
                    reason="a shorter word spells the element",
                    shorter_word=shorter,
                )
    histogram = Counter(f)
    max_len = max(histogram)
    max_count = histogram[max_len]
    report = {
        "ok": True,
        "group": _gname(params),
        "order": len(f),
        "length_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "max_length": max_len,
        "max_length_count": max_count,
    }
    expected = census_expected(params)
    if expected is not None:
        report["census_expected"] = {"max_length": expected[0], "count": expected[1]}
        if expected != (max_len, max_count):
            report["ok"] = False
    return report


def _left_tables(params: Params, perms, vecs) -> list[tuple[list[int], list[int]]]:
    """Per letter x, the rank of x*g's permutation for each permutation rank
    of g, and the rank of its exponents for each exponent rank of g."""
    p_rank = {p: i for i, p in enumerate(perms)}
    e_rank = {v: i for i, v in enumerate(vecs)}
    de = params.de
    tables = []
    for mv in row_moves(params):
        ptab, etab = [], []
        for p in perms:
            q = list(p)
            for r, src, _ in mv:
                q[r] = p[src]
            ptab.append(p_rank[tuple(q)])
        for v in vecs:
            w = list(v)
            for r, src, k in mv:
                w[r] = (v[src] + k) % de
            etab.append(e_rank[tuple(w)])
        tables.append((ptab, etab))
    return tables


def _geodesic_failure(params: Params, perm, exps, length: int, **why) -> dict:
    return {
        "ok": False,
        "group": _gname(params),
        "counterexample": {
            "element": {"perm": list(perm), "exps": list(exps)},
            "normal_form_length": length,
            **why,
        },
    }


def _gname(params: Params) -> str:
    return f"G({params.de},{params.e},{params.n})"


def verify_hecke(hp: HeckeParams, cap: int = DEFAULT_CAP, samples: int = 100, seed: int = 0) -> dict:
    """Basis count, Lambda <-> group bijection, relation fidelity,
    specialization-permutation check per generator, associativity samples.
    No table is built: |W| is ``order()``, refused past ``cap``."""
    if not _is_int(samples) or samples < 0:
        raise ParamsMismatch(f"samples must be an int >= 0, got {samples!r}")
    gp = hp.group_params()
    order = _checked_order(gp, cap)
    basis = basis_enumerate(hp)
    report: dict = {"ok": True, "algebra": str(hp), "basis_size": len(basis)}

    if len(basis) != order:
        report["ok"] = False
        report["failure"] = f"|Lambda| = {len(basis)} but |W| = {order}"
        return report

    seen = {}
    lam_to_g = {}
    for lam in basis:
        g = eval_word(as_word(hp, lam))
        if g in seen:
            report["ok"] = False
            report["failure"] = f"as_word not injective: {lam} and {seen[g]} collide"
            return report
        seen[g] = lam
        lam_to_g[lam] = g

    # every defining relation holds on every basis column, not just against
    # the identity: this certifies the generator action matrices as a
    # representation of the presented algebra over R0.  A check is a failure
    # text, where {} takes the column's word, and two sides, each a list of
    # (c, word) that stands for the sum of c * (word * column).
    one, a_poly = Poly.const(hp.arity, 1), Poly.variable(hp.arity, 0)
    empty = make_word(gp, [])
    relations = hecke_relations(hp)
    checks = [
        (f"relation {word_text(u)} = {word_text(v)} failed on column {{}}", [(one, u)], [(one, v)])
        for u, v in relations
    ]
    checks += [
        (
            f"quadratic relation failed for {x}",
            [(one, make_word(gp, [x, x]))],
            [(a_poly, make_word(gp, [x])), (one, empty)],
        )
        for x in alphabet(gp)
        if x.kind != "z"
    ]
    if hp.family == "d1n":
        d = hp.p
        powers = [(Poly.variable(hp.arity, i), make_word(gp, [Z] * (d - i))) for i in range(1, d)]
        cyclotomic = "cyclotomic relation z^d = sum b_i z^{{d-i}} + 1 failed"
        checks.append((cyclotomic, [(one, make_word(gp, [Z] * d))], [(one, empty)] + powers))
    columns = [basis_element(hp, lam) for lam in basis]
    for r, (failure, lhs, rhs) in enumerate(checks):
        if r == len(relations):  # every braid-type relation holds
            report["relations_checked"] = len(relations)
            report["relation_columns_checked"] = len(relations) * len(basis)
        for lam, col in zip(basis, columns):
            if _side(lhs, col) != _side(rhs, col):
                report["ok"] = False
                report["failure"] = failure.format(word_text(as_word(hp, lam)))
                return report

    # at a -> 0 (b_i -> 0), left multiplication is left translation; the
    # support of every product must consist of shape-valid basis indices
    checked = 0
    for sym in alphabet(gp):
        x = generator(gp, sym)
        for lam in basis:
            h = leftmul_generator(hp, sym, lam)
            for mu in h.combo:
                validate_basis_index(hp, mu)
            spec = specialize_to_group(h)
            target = mul(x, lam_to_g[lam])
            if spec != {target: 1}:
                report["ok"] = False
                report["failure"] = {
                    "generator": str(sym),
                    "basis": word_text(as_word(hp, lam)),
                    "specialization": {str(g): v for g, v in spec.items()},
                }
                return report
            checked += 1
    report["action_entries_checked"] = checked

    rng = random.Random(seed)
    for _ in range(samples):
        x, y, zz = (basis_element(hp, rng.choice(basis)) for _ in range(3))
        if hecke_mul(hecke_mul(x, y), zz) != hecke_mul(x, hecke_mul(y, zz)):
            report["ok"] = False
            report["failure"] = "associativity sample failed"
            return report
    report["associativity_samples"] = samples
    return report


def _side(terms, col):
    """The sum of c * (word * col) over the (c, word) in ``terms``."""
    return reduce(add, (apply_word(w, col).scaled(c) for c, w in terms))

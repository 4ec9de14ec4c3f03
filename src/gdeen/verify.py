"""Batch verification suites backing the CLI and the acceptance tests.

Each function returns a JSON-serializable report with an "ok" flag and,
on failure, the first counterexample.  These are the desk-scale witnesses
for the geodesic and freeness theorems: exhaustive, exact, and driven by
the brute-force Cayley oracle rather than by the code under test.
"""

from __future__ import annotations

import random

from .cayley import DEFAULT_CAP, enumerate_group
from .group import Params, mul
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
from .normal_form import census_expected, normal_form
from .polyring import Poly
from .words import Z, alphabet, eval_word, generator, make_word, word_text

__all__ = ["verify_geodesic", "verify_hecke"]


def verify_geodesic(params: Params, cap: int = DEFAULT_CAP) -> dict:
    """Check length(g) == BFS distance for every g; censuses cross-checked."""
    table = enumerate_group(params, cap)
    histogram: dict[int, int] = {}
    max_len, max_count = -1, 0
    for g, dist in zip(table.elements, table.dist):
        nf = normal_form(g)
        ln = len(nf.word)
        if ln != dist:
            return {
                "ok": False,
                "group": _gname(params),
                "counterexample": {
                    "element": {"perm": list(g.perm), "exps": list(g.exps)},
                    "normal_form_length": ln,
                    "bfs_distance": dist,
                },
            }
        if eval_word(nf.word) != g:
            return {
                "ok": False,
                "group": _gname(params),
                "counterexample": {
                    "element": {"perm": list(g.perm), "exps": list(g.exps)},
                    "reason": "normal form does not evaluate back to the element",
                },
            }
        histogram[ln] = histogram.get(ln, 0) + 1
        if ln > max_len:
            max_len, max_count = ln, 1
        elif ln == max_len:
            max_count += 1
    report = {
        "ok": True,
        "group": _gname(params),
        "order": len(table),
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


def _gname(params: Params) -> str:
    return f"G({params.de},{params.e},{params.n})"


def verify_hecke(hp: HeckeParams, cap: int = DEFAULT_CAP, samples: int = 100, seed: int = 0) -> dict:
    """Basis count, Lambda <-> group bijection, relation fidelity,
    specialization-permutation check per generator, associativity samples."""
    gp = hp.group_params()
    table = enumerate_group(gp, cap)
    basis = basis_enumerate(hp)
    report: dict = {"ok": True, "algebra": str(hp), "basis_size": len(basis)}

    if len(basis) != len(table):
        report["ok"] = False
        report["failure"] = f"|Lambda| = {len(basis)} but |W| = {len(table)}"
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

    # every defining braid-type relation holds on every basis column, not
    # just against the identity: this certifies the generator action
    # matrices as a representation of the presented algebra over R0
    def act(word, lam):
        return apply_word(word, basis_element(hp, lam))

    matrix_entries = 0
    for u, v in hecke_relations(hp):
        for lam in basis:
            if act(u, lam) != act(v, lam):
                report["ok"] = False
                report["failure"] = (
                    f"relation {word_text(u)} = {word_text(v)} failed on column"
                    f" {word_text(as_word(hp, lam))}"
                )
                return report
            matrix_entries += 1
    report["relations_checked"] = len(hecke_relations(hp))
    report["relation_columns_checked"] = matrix_entries

    # quadratic and cyclotomic relations, again on every basis column
    a_poly = Poly.variable(hp.arity, 0)
    for sym in alphabet(gp):
        if sym.kind == "z":
            continue
        for lam in basis:
            lhs = act(_word(gp, [sym, sym]), lam)
            rhs = act(_word(gp, [sym]), lam).scaled(a_poly) + basis_element(hp, lam)
            if lhs != rhs:
                report["ok"] = False
                report["failure"] = f"quadratic relation failed for {sym}"
                return report
    if hp.family == "d1n":
        d = hp.p
        for lam in basis:
            lhs = act(_word(gp, [Z] * d), lam)
            rhs = basis_element(hp, lam)
            for i in range(1, d):
                bi = Poly.variable(hp.arity, i)
                rhs = rhs + act(_word(gp, [Z] * (d - i)), lam).scaled(bi)
            if lhs != rhs:
                report["ok"] = False
                report["failure"] = "cyclotomic relation z^d = sum b_i z^{d-i} + 1 failed"
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
            spec = specialize_to_group(h, table)
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


def _word(gp: Params, syms):
    return make_word(gp, syms)

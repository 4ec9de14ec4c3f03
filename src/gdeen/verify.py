"""Batch verification suites backing the CLI and the acceptance tests.

Each function returns a JSON-serializable report with an "ok" flag and,
on failure, the first counterexample.  These are the desk-scale witnesses
for the geodesic and freeness theorems: exhaustive, exact, and checked
against the generator matrices rather than against the code under test.
Neither suite builds a BFS table: both evaluate words on the ranks of
group elements with the generators' row moves (``cayley.row_moves``,
``_left_action``).  The Hecke suite checks that the defining relations
hold on every column of the action, in exact integer arithmetic, compares
the action with left multiplication of group elements through the a -> 0
specialization, and checks that each basis word sends 1 to its basis
element.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections import Counter
from itertools import chain, compress, product
from operator import itemgetter

from .cayley import row_moves
from .errors import InvariantViolation, ParamsMismatch
from .group import DEFAULT_CAP, GroupElement, Params, _is_int
from .hecke import (
    HeckeElement,
    HeckeParams,
    _check_params,
    _engine,
    _index_word,
    _letter_fold,
    _shape_table,
    as_word,
    basis_element,
    basis_enumerate,
    hecke_mul,
    hecke_relations,
    leftmul_generator,
)
from .normal_form import _plan, _rank_order, _walk, census_expected, length, normal_form
from .polyring import WIDTH, Poly, _a_split, _decode, _digits, _rewiden
from .words import Z, alphabet, make_word, word_text

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
    a geodesic.  No BFS table is built; a group whose order exceeds ``cap``
    is refused.  ``gdeen enumerate`` reports this order and histogram.

    The normal forms come from one level walk per permutation
    (``normal_form._walk``), from level n down.  Elements that share their
    upper parts share their spelling: each part's letters are spelled once,
    from the ranks that the parts above it reach, with the same row-move
    tables.  The walk, not a count, names each element's rank, so every
    entry of f starts at a value that no length takes, and a rank that the
    walk reaches twice, or never, is refused.

    The Lipschitz check runs per permutation P, on P's block of f and that
    of x*P, a letter at a time.  A letter other than s_n rewrites one or two
    adjacent digits of the exponent rank E, a window, so the pairs (g, x*g)
    line up as slices of the two blocks: strides for a window low in E, runs
    for a high one (``_windows``).  s_n, when e > 1, moves the last digit by
    a map that depends on the sum of the digits above, mod e; it is checked
    once per residue, on the lanes with that sum.  Each letter's window map
    comes from its row moves and is checked once against its ``etab``
    before use.  The slices are compared as ints with a guard bit per lane,
    all of a block's lanes at once (``_lipschitz``).  Where a lane fails,
    the entry-by-entry scan of that block names the counterexample
    (``_scan``): the first in the order permutation, letter, E.
    """
    perms, vecs, tables = _left_action(params, cap)
    width, plan = len(vecs), _plan(params)
    n, d = params.n, params.d
    # a level-i part has at most 2i + d letters, so no length takes the
    # array's largest value, which marks a rank that the walk has not reached
    code, unset = ("B", 255) if n * (n + 1 + d) < 255 else ("H", 65535)
    f = array(code, [unset]) * params.order()

    def step(state: tuple, part: tuple) -> tuple:
        # the part's letters, from the right, on the ranks of the parts above
        at, ke, ln = state
        for x in reversed(part):
            ptab, etab = tables[x]
            at, ke = ptab[at], etab[ke]
        return at, ke, ln + len(part)

    def leaf(state: tuple, rank: int) -> None:
        at, ke, ln = state
        if at * width + ke != rank:
            raise _Refused(rank, ln, "normal form does not evaluate back to the element")
        if ln >= unset:
            raise InvariantViolation(f"normal form of length {ln} does not fit the length array")
        if f[rank] != unset:
            raise _Refused(rank, ln, "the walk reaches the element twice")
        f[rank] = ln

    try:
        for p_rank, perm in enumerate(perms):
            _walk(plan, perm, None, (0, 0, 0), step, leaf, p_rank * width)
    except _Refused as refused:
        rank, ln, why = refused.args
        return _geodesic_failure(params, perms[rank // width], vecs[rank % width], ln, reason=why)
    if unset in f:
        rank = f.index(unset)
        g = GroupElement(params, perms[rank // width], vecs[rank % width])
        return _geodesic_failure(params, g.perm, g.exps, length(g), reason="the walk does not reach the element")
    if f[0]:
        why = "the identity has a non-empty normal form"
        return _geodesic_failure(params, perms[0], vecs[0], f[0], reason=why)
    histogram = Counter(f)
    max_len = max(histogram)
    found = _lipschitz(f, max_len, tables, _windows(params, tables, width), width)
    if found is not None:
        # the first failing block, in the scan's order; the scan names the rank
        p_rank, x = found
        ptab, etab = tables[x]
        q_rank = ptab[p_rank]
        here = f[p_rank * width : (p_rank + 1) * width]
        there = f[q_rank * width : (q_rank + 1) * width]
        e_rank = _scan(here, there, etab)
        if e_rank is None:
            raise InvariantViolation(f"letter {x} fails its lanes on permutation {p_rank} but passes its scan")
        g = GroupElement(params, perms[p_rank], vecs[e_rank])
        shorter = f"{alphabet(params)[x]} {word_text(normal_form(g).word)}".strip()
        return _geodesic_failure(
            params,
            perms[q_rank],
            vecs[etab[e_rank]],
            there[etab[e_rank]],
            reason="a shorter word spells the element",
            shorter_word=shorter,
        )
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


class _Refused(Exception):
    """A normal form that the geodesic certificate refuses: its rank, its
    length and why."""


def _windows(params: Params, tables: list, width: int) -> list:
    """Per letter x, the lanes on which ``_lipschitz`` lines up f(g) with
    f(x*g) inside one permutation's block of ``width`` entries: (key, here,
    groups), ``here`` the slices of g's block that hold the lanes, in lane
    order, shared by the letters of one layout ``key``, and per group
    (there, flags) the slices of x*g's block whose lanes line up with them,
    or an ``itemgetter`` of x's ``etab`` that gathers them, and which lanes
    of each slice the group checks, or None for all.

    E is a mixed-radix number: exps[0..n-2] in base de, then the index of
    exps[n-1] among its d values (``_rank_order``).  x rewrites the rows
    that its ``row_moves`` name, a window of one or two adjacent digits,
    and keeps the digits above (A) and below (C) it.  So the E with window
    value v go to the E with value m(v) and the same A and C: per v, a run
    of C for each A, or a stride over A for each C, whichever gives fewer
    slices.  Where the window holds the last digit and e > 1, m depends on
    the sum s of the digits above, mod e, since exps[n-1] = e * index +
    (-s - exps[n-2]) mod e: one group per residue s, over the strides (the
    last digit is the lowest), its flags picking the A with that residue.
    A slice costs about what three gathered entries do, so a letter whose
    slices would hold three lanes or fewer each gathers its block instead,
    with ``here`` the whole block.

    The slices are anchored to the tables: each group's lanes must pair E
    with ``etab[E]``, and each layout's ``here`` must cover the block once,
    or this raises InvariantViolation."""
    n, d, e, de = params.n, params.d, params.e, params.de
    radix = [de] * (n - 1) + [d]
    weight = [d * de ** (n - 2 - r) for r in range(n - 1)] + [1]
    block = range(width)
    out, layouts = [], {None: (None, [slice(0, width)])}
    for mv, (_, etab) in zip(row_moves(params), tables):
        rows = [r for r, _, _ in mv] + [src for _, src, _ in mv]
        lo, hi = min(rows, default=0), max(rows, default=0)
        window, low = radix[lo : hi + 1], weight[hi]
        span, last = math.prod(window), hi == n - 1
        high = width // (span * low)
        if last and e > 1:
            sums = [sum(a) % e for a in product(range(de), repeat=lo)]
            groups = [(s, [t == s for t in sums]) for s in sorted(set(sums))]
        else:
            groups = [(0, None)]
        # (an itemgetter of one index returns no tuple: a one-entry block is sliced)
        if 3 * len(groups) * span * min(high, low) >= width > 1:
            out.append((None, layouts[None][1], [(itemgetter(*etab), None)]))
            continue
        if high < low:
            cut = lambda v: [slice(a + v * low, a + v * low + low) for a in range(0, width, span * low)]
        else:
            cut = lambda v: [slice(v * low + c, None, span * low) for c in range(low)]

        def images(s: int) -> list[int]:
            # each window value's digits as exponents, moved, and encoded back
            ms = []
            for ks in product(*map(range, window)):
                exps = list(ks)
                if last:
                    exps[-1] = e * ks[-1] + (-s - sum(ks[:-1])) % e
                moved = exps[:]
                for r, src, k in mv:
                    moved[r - lo] = (exps[src - lo] + k) % de
                if last:
                    moved[-1] //= e
                m = 0
                for k, r in zip(moved, window):
                    m = m * r + k
                ms.append(m)
            return ms

        key = (lo, hi)
        if key not in layouts:
            cuts = [cut(v) for v in range(span)]
            here = [sl for c in cuts for sl in c]
            seen = bytearray(width)  # width lanes that reach every entry reach each once
            for sl in here:
                seen[sl] = b"\1" * len(block[sl])
            if seen.count(0) or sum(len(block[sl]) for sl in here) != width:
                raise InvariantViolation(f"the lanes of rows {lo + 1}..{hi + 1} do not cover the block once")
            layouts[key] = cuts, here
        cuts, here = layouts[key]
        groups = [([sl for m in images(s) for sl in cuts[m]], flags) for s, flags in groups]
        for there, flags in groups:
            for sh, st in zip(here, there):
                got, want = etab[sh], block[st]
                if flags is not None:
                    got, want = compress(got, flags), compress(want, flags)
                if list(got) != list(want):
                    raise InvariantViolation(f"the window map of rows {lo + 1}..{hi + 1} disagrees with its table")
        out.append((key, here, groups))
    return out


def _lipschitz(f: array, top: int, tables: list, windows: list, width: int) -> tuple[int, int] | None:
    """The first permutation rank and letter x, in that order, whose block
    has an E with f(x*g) > f(g) + 1, or None.

    Each block's lanes (``_windows``) are read as one int of b-bit lanes,
    f(g) and f(x*g) at once, b the least of 8, 16, 32 for which the largest
    length ``top`` is at most 2^(b-1) - 2.  Then every lane of f(g) +
    2^(b-1) + 1 - f(x*g) lies in [0, 2^b), so no lane borrows, and its guard
    bit 2^(b-1) is set exactly when f(x*g) <= f(g) + 1."""
    code = "B" if top < 127 else "H" if top < 32767 else "I"
    lanes = f if f.typecode == code else array(code, f)
    guard, order = 1 << (8 * lanes.itemsize - 1), sys.byteorder

    def packed(values: array) -> int:
        return int.from_bytes(values.tobytes(), order)

    def mask(flags: list, here: list) -> int:
        # the guard bits of the lanes that a group checks, in lane order
        return packed(array(code, [guard * t for t in flags]) * len(here))

    ones, full = packed(array(code, [guard + 1]) * width), packed(array(code, [guard]) * width)
    checks = [
        (key, here, [(there, full if flags is None else mask(flags, here)) for there, flags in groups])
        for key, here, groups in windows
    ]
    for p_rank in range(len(lanes) // width):
        block, heres = lanes[p_rank * width : (p_rank + 1) * width], {}
        for x, ((ptab, _), (key, here, groups)) in enumerate(zip(tables, checks)):
            h = heres.get(key)
            if h is None:
                h = heres[key] = int.from_bytes(b"".join(map(block.__getitem__, here)), order) + ones
            q_rank = ptab[p_rank]
            there = lanes[q_rank * width : (q_rank + 1) * width]
            for pick, guards in groups:
                if isinstance(pick, list):
                    lined = b"".join(map(there.__getitem__, pick))
                else:
                    lined = array(code, pick(there))
                if h - int.from_bytes(lined, order) & guards != guards:
                    return p_rank, x
    return None


def _scan(here: array, there: array, etab: list) -> int | None:
    """The first E with there[etab[E]] > here[E] + 1, or None: one block of
    the Lipschitz check, entry by entry."""
    return next((i for i, j in enumerate(etab) if there[j] > here[i] + 1), None)


def _left_action(params: Params, cap: int) -> tuple[list, list, list[tuple[list[int], list[int]]]]:
    """The permutations and exponent vectors in rank order (``_rank_order``),
    and per letter x the tables (ptab, etab) by which x maps the rank
    P * len(vecs) + E of g to that of x*g, ptab[P] * len(vecs) + etab[E]."""
    perms, vecs = _rank_order(params, cap)
    perms = list(perms)
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
    return perms, vecs, tables


def _spell(tables, width: int, word) -> int:
    """The rank of the element a word spells, from the identity's rank 0."""
    at, ke = 0, 0
    for x in reversed(word):
        ptab, etab = tables[x]
        at, ke = ptab[at], etab[ke]
    return at * width + ke


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
    """Check the left action of ``hp`` on the basis Lambda; no table is built.

    The report is ok when these checks pass, run in this order:

    * count: |Lambda| = |W|, where |W| is ``order()``, refused past ``cap``;
    * bijection: distinct basis words spell distinct group elements, each
      evaluated to its rank as ``verify_geodesic`` evaluates a normal form;
    * relations: every braid-type relation, the quadratic relation
      x^2 = a x + 1 of every letter x other than z, and for H(d,1,n) the
      cyclotomic relation hold on every basis column of the action;
    * specialization: at a, b_i -> 0 every generator acts on every basis
      element as left translation of the group;
    * freeness: each basis word, one letter at a time on the identity,
      gives a basis vector at every step and e_lambda at the end
      (``_unit_path``), so h -> h * e_1 sends T_lambda to e_lambda.  The
      T_lambda are then independent; with the paper's spanning theorem
      the algebra is free of rank |W|;
    * associativity: ``samples`` seeded triples (xy)z = x(yz) of basis
      elements, a cross-check of ``hecke_mul`` only.

    A letter of level l lies in the parabolic subalgebra of rank l, so it
    acts on (lambda', lambda'') as on (lambda', 1, .., 1), lambda'' the
    shapes above level l, with lambda'' re-appended.  Each letter's columns
    x * e_lambda are read once, as the packed states that
    ``leftmul_generator`` returns, keyed relative to their position, and
    checked against that law, now an equality, as they come back
    (``_read``).  Where it holds, a letter keeps only the columns at the
    multiples of its fold, the indices whose shapes above its level are
    empty (``_letter_fold``); where it fails, it keeps every column, with
    fold 1.  Equal columns are kept once.  So each relation and the
    specialization are certified on the multiples of the least fold among
    their letters (``_first_failure``): at H(3,3,4) only the relations that
    contain s_4, and the translations of s_4, run on all |Lambda| columns.
    The report names the failure that running every check on every column
    would name, and its counts are that coverage.

    A column at position j is the state that ``leftmul_generator`` returns,
    key for key, less j: position + bcode * |Lambda| - j, bcode the code of
    a b-monomial (0 for H(e,e,n)), to the polynomial in a at a = 2^B,
    re-packed where its state's width is not B; its readers add j back.
    B makes a -> 2^B injective on every side, and no key's b-code may carry
    (``_relation_width``), so two sides are equal exactly when their ints
    are, and a coefficient's value at a, b_i -> 0 is the lowest balanced
    digit of its int at a key, plus j, below |Lambda|.
    """
    _check_params(hp)
    if not _is_int(samples) or samples < 0:
        raise ParamsMismatch(f"samples must be an int >= 0, got {samples!r}")
    if not _is_int(seed):
        raise ParamsMismatch(f"seed must be an int, got {seed!r}")
    gp = hp.group_params()
    perms, vecs, tables = _left_action(gp, cap)
    basis = basis_enumerate(hp)  # counted and spelled here, and not kept
    size = len(basis)
    report: dict = {"ok": True, "algebra": str(hp), "basis_size": size}

    if size != gp.order():
        report["ok"] = False
        report["failure"] = f"|Lambda| = {size} but |W| = {gp.order()}"
        return report

    # each basis word's rank by position, and each rank's position
    tables = dict(zip(alphabet(gp), tables))
    ranks, at = array("l"), array("l", [-1]) * size
    for j, lam in enumerate(basis):
        r = _spell(tables, len(vecs), _index_word(hp, lam))
        if at[r] >= 0:
            report["ok"] = False
            report["failure"] = f"as_word not injective: {lam} and {basis[at[r]]} collide"
            return report
        at[r] = j
        ranks.append(r)
    del basis  # from here on an index is read from its position (``_Engine._index``)

    failure = _action_failure(hp, size, perms, vecs, tables, ranks, at, report)
    if failure is not None:
        report["ok"] = False
        report["failure"] = failure
        return report

    rng = random.Random(seed)
    for _ in range(samples):
        # randrange(n) draws as choice() does from a sequence of length n
        x, y, zz = (basis_element(hp, _engine(hp)._index(rng.randrange(size))) for _ in range(3))
        if hecke_mul(hecke_mul(x, y), zz) != hecke_mul(x, hecke_mul(y, zz)):
            report["ok"] = False
            report["failure"] = "associativity sample failed"
            return report
    report["associativity_samples"] = samples
    return report


def _action_failure(hp: HeckeParams, size: int, perms, vecs, tables, ranks, at, report):
    """Check the relations, then the specialization, then freeness, on the
    columns of the action, where ``size`` is |Lambda|, ``ranks`` holds each
    basis word's rank by position, ``at`` each rank's position, and the
    rest is ``_left_action``'s, keyed by letter; return the first failure,
    or None.  The counts of the checks that pass go into ``report``."""
    gp = hp.group_params()
    width = len(vecs)
    # each letter's fold and columns, with each int as its id (``_read``);
    # keys below |Lambda| are the ints of one list, shared by all columns
    coeffs: dict = {}
    offsets = list(range(-size, size))
    columns, sizes = {}, {}
    for x in alphabet(gp):
        columns[x], sizes[x] = _read(hp, x, offsets, coeffs)

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
        for x in columns
        if x.kind != "z"
    ]
    if hp.family == "d1n":
        d = hp.p
        powers = [(Poly.variable(hp.arity, i), make_word(gp, [Z] * (d - i))) for i in range(1, d)]
        cyclotomic = "cyclotomic relation z^d = sum b_i z^{{d-i}} + 1 failed"
        checks.append((cyclotomic, [(one, make_word(gp, [Z] * d))], [(one, empty)] + powers))
    bits = _relation_width(hp.arity, sizes, checks, max(w for w, _ in coeffs))
    ints = [v if w == bits else _rewiden(v, w, bits) for w, v in coeffs]  # by id, in order
    # each distinct column rewritten once, as flat (key, int) pairs, keyed by
    # id: the columns of ids were all alive at once, so no two share an id
    new: dict = {}
    for _, cols in columns.values():
        for j, col in enumerate(cols):
            if (k := id(col)) not in new:
                new[k] = tuple(chain.from_iterable((q, ints[c]) for q, c in _pairs(col)))
            cols[j] = new[k]

    def scalar(c: Poly) -> tuple:
        # c as (bcode * |Lambda|, int) pairs, as a column keys it at position 0
        out: dict = {}
        for m, v in c.terms.items():
            b, k = _a_split(hp.arity, m)
            out[b * size] = out.get(b * size, 0) + (v << k * bits)
        return tuple(out.items())

    # each check as its failure text and its sides, each term as its
    # scalar's pairs and its letters' columns, rightmost first
    checks = [
        (failure, *([(scalar(c), [columns[x] for x in reversed(w.syms)]) for c, w in side] for side in sides))
        for failure, *sides in checks
    ]

    # at a, b_i -> 0 each column must be the left translate of its index:
    # the b-monomial 1 is keyed below |Lambda|, and there each int's lowest
    # balanced digit is its coefficient's value
    half = 1 << (bits - 1)

    def translation(x, j: int):
        fold, cols = columns[x]
        col = cols[j // fold]  # keyed relative to j
        spec = {q + j: v for q, k in _pairs(col) if q + j < size and (v := ((k + half) & (2 * half - 1)) - half)}
        (ptab, etab), (p, e) = tables[x], divmod(ranks[j], width)
        if spec == {at[ptab[p] * width + etab[e]]: 1}:
            return None
        return {
            "generator": str(x),
            "basis": word_text(as_word(hp, _engine(hp)._index(j))),
            # positions in the order of their first keys, over all b-monomials
            "specialization": {
                str(GroupElement(gp, perms[ranks[q] // width], vecs[ranks[q] % width])): spec[q]
                for q in dict.fromkeys((q + j) % size for q in col[::2]) if q in spec
            },
        }

    found = _first_failure(size, columns, checks, translation)
    if found is None or found[0] == "translation" or found[1] >= len(relations):
        # every braid-type relation holds
        report["relations_checked"] = len(relations)
        report["relation_columns_checked"] = len(relations) * size
    if found is not None and found[0] == "relation":
        return checks[found[1]][0].format(word_text(as_word(hp, _engine(hp)._index(found[2]))))
    if found is not None:
        return found[2]  # the translation's report
    report["action_entries_checked"] = len(columns) * size
    unit = at[0]  # rank 0 is the identity
    for j, lam in enumerate(product(*_shape_table(hp)[0])):
        if _unit_path(columns, size, _index_word(hp, lam), unit) != j:
            return f"basis word {word_text(as_word(hp, lam))} does not send 1 to its basis element"
    return None


def _read(hp: HeckeParams, x, offsets: list, coeffs: dict) -> tuple[tuple, tuple]:
    """x * e_lambda for every basis index, in the order of
    ``basis_enumerate``, read from the packed state that
    ``leftmul_generator`` returns: x's fold w and its columns, each as one
    flat tuple of (key, int id) pairs (``_pairs``), in the state's order,
    keyed relative to the column's position as the engine keeps them
    (``_Engine._fetch``), keys below |Lambda| taken from ``offsets``; and
    the largest L1 norm of a column (the sum of |coefficient| over its
    entries and monomials) and the largest total b-degree of a key in any.

    x is checked against its parabolic law as its columns come back: its
    column at each position p equals the one at p - p mod w, w its fold
    (``_letter_fold``), and that one has its keys at multiples of w.  While
    that holds, x keeps only the columns at multiples of w, the one at p
    in slot p // w; from where it fails, it keeps every column, with fold 1.
    Equal columns are kept as one tuple.

    ``coeffs`` maps each (width, int) read so far to its id, in the order
    of the ids, and the L1 norm of its polynomial in a (``_digits``)."""
    size, top, last = len(offsets) // 2, 0, 0
    fold, cols, seen = _letter_fold(hp, x), [], {}
    for j, lam in enumerate(product(*_shape_table(hp)[0])):
        h = leftmul_generator(hp, x, lam)
        if not (isinstance(h, HeckeElement) and h.params == hp):
            raise ParamsMismatch(f"{x} * {lam} is not in Lambda's span: {h!r} is no element of {hp}")
        st = h._state
        col, l1 = [], 0
        for q, v in st.vec.items():
            if v:
                c = coeffs.get((st.bits, v))
                if c is None:
                    c = coeffs[st.bits, v] = (len(coeffs), sum(map(abs, _digits(v, st.bits))))
                q -= j
                col += (offsets[q + size] if q < size else q, c[0])
                l1 += c[1]
        top = max(top, l1)
        col = tuple(col)
        col = seen.setdefault(col, col)
        last = max(last, max(col[::2], default=0) + j)
        if fold > 1:
            if j % fold:
                if col == cols[j // fold]:
                    continue
            elif not any(q % fold for q in col[::2]):
                cols.append(col)
                continue
            # the parabolic law fails at j: keep every column from here on
            cols, fold = [cols[i // fold] for i in range(j)], 1
        cols.append(col)
    # codes are in degree-lex order, so the largest key has the largest b-degree
    return (fold, cols), (top, sum(_decode(hp.arity, last // size)))


def _first_failure(size: int, columns: dict, checks: list, translation):
    """The first failure of the relations, then of the translations, in the
    order of ``_action_failure``: ("relation", check index, position),
    ("translation", letter, its report), or None.

    Each check runs on the multiples of the least fold f among its letters,
    and each translation on the multiples of its letter's fold f.  The
    folds divide one another, so each of those letters has its column at p
    equal to the one at p - r, r = p mod f, with keys at multiples of f
    (``_read``), keys relative to the position acted on.  A side at p is
    then the side at p - r moved by r, and a check first fails at a
    multiple of f.  So does a translation: where it holds at p - r, x sends
    that index to one whose shapes above x's level are empty, and since a
    basis word spells the product of its parts and distinct words spell
    distinct elements, x sends the index at p to that one moved by r, as
    the column at p reads.  So the failure named is the one that running
    every check on every position would name."""
    for r, (_, lhs, rhs) in enumerate(checks):
        fold = min(f for _, letters in chain(lhs, rhs) for f, _ in letters)
        for j in range(0, size, fold):
            if _int_side(lhs, j) != _int_side(rhs, j):
                return "relation", r, j
    for x, (fold, _) in columns.items():
        for j in range(0, size, fold):
            if (why := translation(x, j)) is not None:
                return "translation", x, why
    return None


def _relation_width(arity: int, letters: dict, checks: list, widest: int) -> int:
    """B, the one width of the certificate's ints: ``widest``, the widest
    state read, or more where a -> 2^B needs more to be injective on every
    side of every check.

    ``letters`` gives M_x, the largest L1 norm of a column of letter x (the
    sum of |coefficient| over its entries and their monomials), and D_x, the
    largest total b-degree of its keys.  L1 is sub-multiplicative, so every
    coefficient of c * x_1 .. x_L * e_lambda is at most |c|_1 M_{x_1} ..
    M_{x_L}, and 2^(B-1) exceeds the sum of these bounds over both sides of
    every check.  Its b-degree is at most deg c + D_{x_1} + .. + D_{x_L};
    below 2^WIDTH no field of a b-code carries as keys add, and past it
    this raises."""
    bound = 0
    for _, *sides in checks:
        total = 0
        for c, w in chain(*sides):
            l1, degree = sum(map(abs, c.terms.values())), max(sum(_decode(arity, m)[1:]) for m in c.terms)
            for x in w.syms:
                l1 *= letters[x][0]
                degree += letters[x][1]
            if degree >> WIDTH:
                raise InvariantViolation(f"b-degree {degree} of a relation side reaches 2^{WIDTH}")
            total += l1
        bound = max(bound, total)
    return max(bound.bit_length() + 1, widest)


def _pairs(col: tuple):
    """The (position, value) pairs of a column, kept as one flat tuple."""
    it = iter(col)
    return zip(it, it)


def _unit_path(columns: dict, size: int, word: tuple, at: int):
    """Where the int columns of ``word``'s letters, from the right, send the
    basis vector at ``at``, if each column on the way is one entry of int 1
    whose key, added to the position it acts on, is below ``size``,
    |Lambda|, so exactly a basis vector; else None."""
    for x in reversed(word):
        fold, cols = columns[x]
        col = cols[at // fold]  # keyed relative to at
        if len(col) != 2 or col[1] != 1 or at + col[0] >= size:
            return None
        at += col[0]
    return at


def _int_side(terms: list, j: int) -> dict[int, int]:
    """The sum of c * (x_1 .. x_L * e_j) over the terms, each given as c's
    (bcode * |Lambda|, int) pairs and the fold and int columns of
    x_L .. x_1, composed in that order; as a map from key to its nonzero
    int.  At key p = pos + bcode * |Lambda| acts pos's column, the one
    kept at p // fold % len(cols), with p added to each of its keys."""
    acc: dict[int, int] = {}
    for c, letters in terms:
        items = [(j + b, k) for b, k in c]
        for fold, cols in letters:
            out: dict[int, int] = {}
            n = len(cols)
            for p, k in items:
                it = iter(cols[p // fold % n])
                for q, kq in zip(it, it):  # ``_pairs``, inline
                    q += p
                    out[q] = out.get(q, 0) + k * kq
            items = out.items()
        for q, k in items:
            acc[q] = acc.get(q, 0) + k
    return {q: k for q, k in acc.items() if k}

"""Geodesic normal forms for G(de,e,n).

One row sweep serves every family.  For i from n down to 2 it clears row
i of the working matrix by right multiplications: shift the unique
nonzero entry of the row to where it can be killed, kill it, then shift
the 1 into the diagonal slot.  The letters used, inverted and read
backwards, are a word for the element; by construction it splits into
per-level parts RE_1 .. RE_n whose shapes are rigid, and the word is
geodesic over the generating set.

The kill step is chosen per family:

* t-letter presentations (e > 1, any d, and the degenerate G(1,1,n)): the
  entry is shifted into column 1 and killed by t_k, which also adds k to
  the exponent of the row holding column 1.  What is left in row 1 is a
  z-power, the level-1 part (absent when d = 1, where it is 1).
* z-letter presentation (e = 1, d > 1): the entry is killed by z^k in
  column 1, and the level-1 part is the z-power left in row 1.

The shifts only relabel columns: once rows i+1..n are cleared, row i sits
in column c = 1 + #{j < i : sigma(j) < sigma(i)}, and column 1 is held by
the remaining row with the smallest sigma.  So the sweep reads every
column from sigma and tracks only the exponents.  With k the exponent of
row i, the level-i part is

* s_i .. s_{c+1}                 when k = 0,
* s_i .. s_3 t_k s_2 .. s_c      when k != 0 (t-letters),
* s_i .. s_2 z^k s_2 .. s_c      when k != 0 (z-letter),

where s_2 is spelled t_0 in the t-letter presentations, a decreasing run
s_i .. s_{i'} with i < i' is empty, likewise an increasing run, and z^0 is
empty.  Each part is one shared tuple of alphabet positions, from a table
keyed by (i, c) and k (``_plan``).

So the normal forms of one permutation form a tree by levels: elements
that agree on the exponents that rows n..i see share their parts of
levels n..i.  One walk (``_walk``) serves every caller.  It clears the
rows from n down to 2, then takes the level-1 z-power, a level at a time
over a batch of elements: each node branches on its row's exponent, and
the nodes whose row sits in the same column, of whatever permutation,
take their parts together.  The kills' carry into the row holding column
1 is one number per node.  The walk hands each part, with the states of
the nodes that take it, to one callback, and each batch of elements, with
their ranks, to another.  :func:`normal_form` and :func:`length` walk a
batch of one element; the census and the geodesic certificate walk every
element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import NamedTuple

from .errors import InvariantViolation
from .group import DEFAULT_CAP, GroupElement, Params, _checked_order, _expect
from .words import S, Sym, T, Word, Z, alphabet, make_word

__all__ = [
    "NormalForm",
    "normal_form",
    "length",
    "max_length_census",
    "census_expected",
    "length_polynomial",
    "all_elements",
    "longest_element_word",
    "max_length_witness_word",
]


@dataclass(frozen=True)
class NormalForm:
    """A geodesic word together with its RE-part decomposition.

    ``parts[j]`` is the part for level ``levels[j]``; levels are 1..n
    except when d = 1, where there is no level-1 part.
    """

    word: Word
    parts: tuple[Word, ...]
    levels: tuple[int, ...]


def _desc(top: int, bottom: int) -> list[Sym]:
    """s_top s_{top-1} .. s_bottom, empty when top < bottom."""
    return [S(j) for j in range(top, bottom - 1, -1)]


def _asc(bottom: int, top: int) -> list[Sym]:
    return [S(j) for j in range(bottom, top + 1)]


class _Powers:
    """The parts ``pre`` z^k ``post``, and ``still`` for k = 0, built on each
    lookup, so that a plan stays linear in d."""

    __slots__ = ("still", "pre", "z", "post")

    def __init__(self, still: tuple, pre: tuple, z: tuple, post: tuple):
        self.still, self.pre, self.z, self.post = still, pre, z, post

    def __getitem__(self, k: int) -> tuple:
        return self.pre + self.z * k + self.post if k else self.still


class _Plan(NamedTuple):
    """The parts of one group's normal forms, as tuples of alphabet positions."""

    letters: list[Sym]  # the alphabet: position -> letter
    levels: tuple[int, ...]
    de: int
    e: int
    t_kill: bool
    parts: list  # parts[i][c][k]: the level-i part, row i in column c, exponent k
    z: tuple | None  # (z,): the level-1 part z^q is z * q; None when d = 1
    weights: list[list[int]]  # weights[row][k]: what exponent k of a row adds to E
    width: int  # the elements of one permutation: d de^(n-1)
    depth: list[list[int]]  # depth[row][k]: what exponent k of a row above row 0 adds to the depth-first index
    gains: list[list[int]] | None  # gains[q][a]: what row 0 adds to E for the part z^q, under carry a; None without a carry


# the most elements that one batch of the walk holds: the batch's columns,
# a few hundred bytes an element, stay well below f and the row-move tables
LEAVES = 3072


@lru_cache(maxsize=64)
def _plan(params: Params) -> _Plan:
    d, e, n, de = params.d, params.e, params.n, params.de
    letters = alphabet(params)
    at = {sym: i for i, sym in enumerate(letters)}
    t_kill = e > 1 or d == 1
    # s[j] is the position of s_j for j >= 2; s_2 is t_0 in the t-letter presentations
    s = (0, 0, at[T(0) if t_kill else S(2)], *(at[S(j)] for j in range(3, n + 1)))
    z = (at[Z],) if d > 1 else None
    parts: list = [None, None]
    for i in range(2, n + 1):
        down = s[i:1:-1]  # s_i .. s_2
        by_column: list = [None]
        for c in range(1, i + 1):
            still, post = down[: i - c], s[2 : c + 1]
            if t_kill:
                pre = down[: i - 2]
                by_column.append([pre + (at[T(k)],) + post if k else still for k in range(de)])
            else:
                by_column.append(_Powers(still, down, z, post))
        parts.append(by_column)
    # E: exps[0..n-2] in base de, then exps[n-1] // e (``_rank_order``)
    weights = [[k * d * de ** (n - 2 - row) for k in range(de)] for row in range(n - 1)]
    weights.append([k // e for k in range(de)])
    levels = tuple(range(1 if d > 1 else 2, n + 1))
    depth = [[k * d * de ** (row - 1) if row else 0 for k in range(de)] for row in range(n)]
    gains = [[weights[0][(q * e - a) % de] for a in range(n * de)] for q in range(d)] if t_kill else None
    return _Plan(letters, levels, de, e, t_kill, parts, z, weights, d * de ** (n - 1), depth, gains)


def _walk(plan: _Plan, perms, exps, start: tuple, step, leaf) -> None:
    """Walk the normal forms of the elements whose permutations are
    ``perms``, by levels from n down to 1: every element's, or only that of
    ``exps`` when it is given with one permutation (a batch of one).

    The walk is breadth-first, over batches of at most ``LEAVES`` elements:
    runs of permutations, or runs of one permutation's subtrees where it has
    more elements than that.  A batch's states are columns, with an entry
    per node; ``start`` holds each column's entry at the root.  At each
    level, ``step(part, states)`` gets one part and the states of every node
    that takes it, and returns the states below them: the nodes whose row
    sits in the same column, whatever their permutation, take the same part
    for the same exponent.  Each batch's elements then go to ``leaf(states,
    ranks, order)``: per element its state and its rank P * width + E (P
    its permutation's place in ``perms``, E its exponent rank,
    ``_rank_order``); ``order()`` returns per element a key that sorts them
    depth-first, in the order in which a walk of one permutation after
    another, one element at a time, reaches them, and is only reckoned when
    called.  Batches come in that order.  Parts are shared tuples: do not
    mutate them."""
    n, width, first = len(plan.weights), plan.width, 0
    perms = iter(perms)
    while batch := list(itertools.islice(perms, max(1, LEAVES // width))):
        # per row, the row's column once the rows below it are cleared, by
        # permutation, P - first
        columns = [[1 + sum(map(p[r].__gt__, p[:r])) for p in batch] for r in range(n)]
        roots = [p * width for p in range(first, first + len(batch))]
        carry = [0] * len(batch) if plan.t_kill else None  # the z-kill carries nothing
        nodes = (roots, roots, carry, tuple([v] * len(batch) for v in start))
        _descend(plan, columns, first, n - 1, exps, nodes, step, leaf)
        first += len(batch)


def _descend(plan: _Plan, columns: list, first: int, row: int, exps, nodes: tuple, step, leaf) -> None:
    """``_walk`` from ``row`` down, on ``nodes``: columns of ranks so far,
    depth-first indices so far, carries (``_clear``) and states.  Nodes
    that would hold more than ``LEAVES`` elements between them go down in
    runs, in depth-first order."""
    de, e = plan.de, plan.e
    while True:
        count, below = len(nodes[0]), de // e * de**row  # the elements under each node
        if count > 1 and count * below > LEAVES:
            order, run = sorted(range(count), key=nodes[1].__getitem__), max(1, LEAVES // below)
            for i in range(0, count, run):
                picked = order[i : i + run]
                _descend(plan, columns, first, row, exps, _take(nodes, lambda col: [col[j] for j in picked]), step, leaf)
            return
        if not row:
            break
        nodes = _clear(plan, columns[row], first, row, exps, nodes, step)
        row -= 1
    # level 1: the d exponents k1 of row 1 that leave k1 + carry = q e, each
    # with the part z^q; without a carry, k1 = q e.  Of one element, the q
    # of its k1, and none where no q fits
    ranks, index, carry, states = nodes
    if exps is None:
        qs = range(de // e)
    else:
        q, rest = divmod(exps[0] if carry is None else (exps[0] + carry[0]) % de, e)
        qs = () if rest else (q,)
    if not qs:
        return
    if carry is None:
        ranks = [r + plan.weights[0][q * e] for q in qs for r in ranks]
    else:
        ranks = [r + gain[a] for gain in map(plan.gains.__getitem__, qs) for r, a in zip(ranks, carry)]
    if plan.z is not None:
        states = _join([step(plan.z * q, states) for q in qs])
    leaf(states, ranks, lambda: [i + q for q in qs for i in index])


def _clear(plan: _Plan, column: list, first: int, row: int, exps, nodes: tuple, step) -> tuple:
    """The nodes below ``nodes`` once ``row`` is cleared: one per exponent
    k of the row, or only ``exps[row]``.

    Row r's part is that of its column c and of eff = (k + carry) % de,
    carry what the kills above added to the row.  Each t-kill adds its eff
    to the row then holding column 1, which is the row of least sigma left;
    that row keeps it until it is cleared itself, with c = 1.  So one carry
    per node serves: read and restarted at eff where c = 1, grown by eff
    elsewhere.  It stays below n de, the length of level 1's gains."""
    de, width, parts, weights, deeper = plan.de, plan.width, plan.parts[row + 1], plan.weights[row], plan.depth[row]
    found = sorted(set(column))
    if len(found) == 1:
        groups = [(found[0], nodes)]
    else:
        keys = [column[rank // width - first] for rank in nodes[0]]
        groups = []
        for c in found:
            flags = [key == c for key in keys]
            groups.append((c, _take(nodes, lambda col: list(compress(col, flags)))))
    # below each group, its nodes once per eff, eff by eff
    ranks_, index_, carry_, states_ = [], [], [], []
    for c, (ranks, index, carry, states) in groups:
        kills = carry is not None and c == 1
        if exps is None:
            effs = range(de)
        else:  # a batch of one: one node, so one carry
            effs = ((exps[row] + carry[0]) % de if kills else exps[row],)
        if kills:
            ranks_ += [r + weights[(eff - a) % de] for eff in effs for r, a in zip(ranks, carry)]
            index_ += [i + deeper[(eff - a) % de] for eff in effs for i, a in zip(index, carry)]
            carry_ += [eff for eff in effs for _ in carry]
        else:
            ranks_ += [r + weights[eff] for eff in effs for r in ranks]
            index_ += [i + deeper[eff] for eff in effs for i in index]
            carry_ += [] if carry is None else [a + eff for eff in effs for a in carry]
        states_ += [step(parts[c][eff], states) for eff in effs]
    return ranks_, index_, carry_ if plan.t_kill else None, _join(states_)


def _take(nodes: tuple, pick) -> tuple:
    """``nodes`` with ``pick`` applied to each column."""
    ranks, index, carry, states = nodes
    return pick(ranks), pick(index), None if carry is None else pick(carry), tuple(map(pick, states))


def _join(pieces: list) -> tuple:
    """The state columns of ``pieces``, each piece's entries after the last's."""
    if len(pieces) == 1:
        return pieces[0]
    return tuple(list(chain.from_iterable(col)) for col in zip(*pieces))


def _grow(part: tuple, states: tuple) -> tuple:
    """The parts so far, lowest level last, of each node, grown by ``part``."""
    return ([parts + (part,) for parts in states[0]],)


def _parts(g: GroupElement) -> tuple[_Plan, tuple]:
    """g's plan and the parts of its normal form, lowest level first."""
    _expect(g, GroupElement)
    plan, found = _plan(g.params), []
    _walk(plan, (g.perm,), g.exps, ((),), _grow, lambda states, ranks, order: found.extend(states[0]))
    if not found:  # no k1 leaves k1 + carry a multiple of e
        raise InvariantViolation(f"the walk reaches no normal form of {g}")
    return plan, found[0][::-1]


def _wrap(params: Params, plan: _Plan, parts) -> NormalForm:
    # the walk emits only alphabet letters, so the words skip make_word's check
    letters = plan.letters
    words = tuple(Word(params, tuple(letters[x] for x in part)) for part in parts)
    flat = tuple(sym for w in words for sym in w.syms)
    return NormalForm(Word(params, flat), words, plan.levels)


def normal_form(g: GroupElement) -> NormalForm:
    plan, parts = _parts(g)  # checks g before its params are read
    return _wrap(g.params, plan, parts)


def length(g: GroupElement) -> int:
    """Geodesic length of g over the generating set."""
    return sum(map(len, _parts(g)[1]))


def _rank_order(params: Params, cap: int):
    """An iterator over the permutations and a list ``vecs`` of the
    exponent vectors, each in rank order.

    The element (P-th permutation, vecs[E]) has rank P * len(vecs) + E:
    the Lehmer rank of its permutation, then its first n-1 exponents in
    base de, then the index exps[n-1] // e of the last among its d allowed
    values.  This is the canonical (perm, exps) order.
    """
    _checked_order(params, cap)
    n, de, e = params.n, params.de, params.e
    vecs = [
        head + (last,)
        for head in itertools.product(range(de), repeat=n - 1)
        for last in range((-sum(head)) % e, de, e)
    ]
    return itertools.permutations(range(1, n + 1)), vecs


def all_elements(params: Params, cap: int = DEFAULT_CAP):
    """Yield every group element in rank order (direct product enumeration, not BFS)."""
    perms, vecs = _rank_order(params, cap)
    for perm in perms:
        for ks in vecs:
            yield GroupElement(params, perm, ks)


def max_length_census(
    params: Params, cap: int = DEFAULT_CAP
) -> tuple[int, int, list[NormalForm]]:
    """Maximal geodesic length, how many elements attain it, and witnesses.

    Witnesses come in rank order, which is the (perm, exps) order; the
    closed-form predictions live in :func:`census_expected`.
    """
    perms, _ = _rank_order(params, cap)
    plan, best, witnesses = _plan(params), -1, []

    def leaf(states: tuple, ranks: list, order) -> None:
        nonlocal best, witnesses
        lengths = [sum(map(len, parts)) for parts in states[0]]
        top = max(lengths)
        if top > best:
            best, witnesses = top, []
        if top == best:
            witnesses += [(rank, parts) for rank, parts, ln in zip(ranks, states[0], lengths) if ln == top]

    _walk(plan, perms, None, ((),), _grow, leaf)
    witnesses.sort()  # the walk meets them out of rank order
    return best, len(witnesses), [_wrap(params, plan, parts[::-1]) for _, parts in witnesses]


def census_expected(params: Params) -> tuple[int, int] | None:
    """Closed-form (max length, count) where the theory states one.

    d > 1, e > 1: (n(n-1) + d - 1, (de-1)^{n-1}), attained on diagonal
    matrices with all of k_2..k_n nonzero and the level-1 z-power maximal.
    e = 1, d > 1: (n(n+d-2), 1), the unique longest element being the
    diagonal matrix with every entry zeta_d^{d-1}.  No closed form is
    claimed for d = 1.
    """
    _expect(params, Params)
    d, e, n = params.d, params.e, params.n
    if d > 1 and e > 1:
        return n * (n - 1) + d - 1, (params.de - 1) ** (n - 1)
    if e == 1 and d > 1:
        return n * (n + d - 2), 1
    return None


def length_polynomial(params: Params) -> list[int]:
    """The length generating function, sum over g of q^length(g), as its
    coefficients from q^0 up: entry L counts the elements of length L.

    A level's part depends only on its row's column c and on the effective
    exponent, which runs over every residue as the row's exponent does, so
    the lengths factor by level.  With [m]_q = 1 + q + .. + q^(m-1) this is
    [d]_q prod_{i=2..n} [i]_q (1 + (de-1) q^(i-1)) in the t-letter
    presentations, and [d]_q prod_{i=2..n} [i]_q (1 + q^i [d-1]_q) in the
    z-letter one (e = 1 < d).  It is computed from the product alone, not
    from the sweep's tables, so it is an oracle for the certified lengths.
    """
    _expect(params, Params)
    d, e, n = params.d, params.e, params.n

    def times(p: list[int], f: list[int]) -> list[int]:
        out = [0] * (len(p) + len(f) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(f):
                out[i + j] += a * b
        return out

    poly = [1] * d
    for i in range(2, n + 1):
        kill = [1] + [0] * (i - 1) + [1] * (d - 1) if e == 1 < d else [1] + [0] * (i - 2) + [params.de - 1]
        poly = times(times(poly, [1] * i), kill)
    while poly[-1] == 0:  # G(1,1,n): the kill factor is 1 + 0 q^(i-1)
        poly.pop()
    return poly


def longest_element_word(params: Params) -> Word:
    """The stated witness word for the unique longest element of G(d,1,n)."""
    assert params.e == 1 and params.d > 1
    d, n = params.d, params.n
    syms: list[Sym] = [Z] * (d - 1)
    for i in range(2, n + 1):
        syms += _desc(i, 2) + [Z] * (d - 1) + _asc(2, i)
    return make_word(params, syms)


def max_length_witness_word(params: Params, ks: tuple[int, ...]) -> Word:
    """The stated witness shape for d > 1, e > 1: z^{d-1} (t_{k_2} t_0)
    (s_3 t_{k_3} t_0 s_3) .. (s_n .. s_3 t_{k_n} t_0 s_3 .. s_n)."""
    assert params.d > 1 and params.e > 1
    assert len(ks) == params.n - 1 and all(1 <= k < params.de for k in ks)
    syms: list[Sym] = [Z] * (params.d - 1)
    for i, k in zip(range(2, params.n + 1), ks):
        syms += _desc(i, 3) + [T(k), T(0)] + _asc(3, i)
    return make_word(params, syms)

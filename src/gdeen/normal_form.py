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
levels n..i.  One walk (``_walk``) serves every caller.  It descends the
rows from n to 2, then the level-1 z-power, branching on each row's
exponent, or following one element's; each kill's carry into the row
holding column 1 is added once per node of the tree, not once per
element.  It hands each part to a callback and each element's rank to
another.  :func:`normal_form` and :func:`length` follow one element, the
census and the geodesic certificate walk every element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantViolation, ParamsMismatch
from .group import DEFAULT_CAP, GroupElement, Params, _checked_order
from .words import S, Sym, T, Word, Z, alphabet, make_word

__all__ = [
    "NormalForm",
    "normal_form",
    "length",
    "max_length_census",
    "census_expected",
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
    return _Plan(letters, levels, de, e, t_kill, parts, z, weights)


def _walk(plan: _Plan, perm, exps, state, step, leaf, rank: int = 0) -> None:
    """Walk the normal forms of the elements with permutation ``perm``, by
    levels from n down to 1: every element's, or only that of ``exps`` when
    it is given.

    Each level's part goes to ``step(state, part)``, which returns the state
    below it; each element's state then goes to ``leaf(state, rank + E)``,
    E its exponent rank (``_rank_order``).  Elements that share their upper
    parts share their states up to there.  Parts are shared tuples: do not
    mutate them."""
    rows = []
    for row in range(len(perm) - 1, 0, -1):
        v, head = perm[row], perm[:row]
        c = 1 + sum(u < v for u in head)
        # the row then holding column 1; the z-kill adds to the spare slot
        m = head.index(min(head)) if plan.t_kill else len(perm)
        rows.append((row, m, plan.parts[row + 1][c], plan.weights[row]))
    _descend(plan, rows, 0, exps, [0] * (len(perm) + 1), state, rank, step, leaf)


def _descend(plan: _Plan, rows: list, j: int, exps, carry: list[int], state, rank: int, step, leaf) -> None:
    """``_walk`` from ``rows[j]`` down; ``carry`` holds what the kills above
    added to each row's exponent.  Below the last row, the level-1 z-powers
    are walked in place, not by a call per node."""
    de, e, z, ones = plan.de, plan.e, plan.z, plan.weights[0]
    row, m, parts, weights = rows[j]
    for k in range(de) if exps is None else (exps[row],):
        eff = (k + carry[row]) % de
        carry[m] += eff  # t_eff also adds eff to the row holding column 1
        here, at = step(state, parts[eff]), rank + weights[k]
        if j + 1 < len(rows):
            _descend(plan, rows, j + 1, exps, carry, here, at, step, leaf)
        else:
            # the d exponents k1 of row 1 that leave k1 + carry = q e: every
            # one, or only that of ``exps``
            for q in range(de // e):
                k1 = (q * e - carry[0]) % de
                if exps is None or k1 == exps[0]:
                    leaf(here if z is None else step(here, z * q), at + ones[k1])
        carry[m] -= eff


def _grow(parts: tuple, part: tuple) -> tuple:
    return parts + (part,)


def _parts(g: GroupElement) -> tuple[_Plan, tuple]:
    """g's plan and the parts of its normal form, lowest level first."""
    if not isinstance(g, GroupElement):
        raise ParamsMismatch(f"{g!r} is not a GroupElement")
    plan, found = _plan(g.params), []
    _walk(plan, g.perm, g.exps, (), _grow, lambda parts, _: found.append(parts))
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
    perms, vecs = _rank_order(params, cap)
    plan, width = _plan(params), len(vecs)
    best, witnesses = -1, []

    def leaf(parts: tuple, rank: int) -> None:
        nonlocal best, witnesses
        ln = sum(map(len, parts))
        if ln > best:
            best, witnesses = ln, [(rank, parts)]
        elif ln == best:
            witnesses.append((rank, parts))

    for p_rank, perm in enumerate(perms):
        _walk(plan, perm, None, (), _grow, leaf, p_rank * width)
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
    d, e, n = params.d, params.e, params.n
    if d > 1 and e > 1:
        return n * (n - 1) + d - 1, (params.de - 1) ** (n - 1)
    if e == 1 and d > 1:
        return n * (n + d - 2), 1
    return None


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

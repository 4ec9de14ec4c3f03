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
empty.  The sweep emits alphabet positions; :func:`normal_form` turns them
into words, and the census and the geodesic certificate read them as they
are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    """z^k, as a list of k copies of [z]'s one letter, built on each lookup,
    so that a plan stays linear in d."""

    __slots__ = ("z",)

    def __init__(self, z: list[int]):
        self.z = z

    def __getitem__(self, k: int) -> list[int]:
        return self.z * k


class _Plan(NamedTuple):
    """The letters of one group's sweep, as alphabet positions."""

    letters: list[Sym]  # the alphabet: position -> letter
    levels: tuple[int, ...]
    de: int
    e: int
    t_kill: bool
    kills: list[list[int]] | _Powers  # kills[k]: the letters that kill exponent k
    z: list[int] | None  # [z]: the level-1 part is z^q, z * q; None when d = 1
    down: list[list[int]]  # down[i] = s_i .. s_2
    up: list[int]  # s_2 .. s_n


@lru_cache(maxsize=64)
def _plan(params: Params) -> _Plan:
    d, e, n = params.d, params.e, params.n
    letters = alphabet(params)
    at = {sym: i for i, sym in enumerate(letters)}
    t_kill = e > 1 or d == 1
    # s[j] is the position of s_j for j >= 2; s_2 is t_0 in the t-letter presentations
    s = [0, 0, at[T(0) if t_kill else S(2)]] + [at[S(j)] for j in range(3, n + 1)]
    kills = [[at[T(k)]] for k in range(params.de)] if t_kill else _Powers([at[Z]])
    z = [at[Z]] if d > 1 else None
    levels = tuple(range(1 if d > 1 else 2, n + 1))
    down = [s[i:1:-1] for i in range(n + 1)]
    return _Plan(letters, levels, params.de, e, t_kill, kills, z, down, s[2:])


def _shape(plan: _Plan, perm) -> list[tuple]:
    """What the sweep needs of sigma, for the rows n-1 .. 1 (0-based): the
    row, the row then holding column 1 (None for the z-kill), the part when
    the row's exponent is 0, and the letters before and after the kill."""
    down, up = plan.down, plan.up
    shape = []
    for row in range(len(perm) - 1, 0, -1):
        i, v, head = row + 1, perm[row], perm[:row]
        c = 1 + sum(u < v for u in head)
        m = head.index(min(head)) if plan.t_kill else None
        pre = down[i][: i - 2] if plan.t_kill else down[i][: i - 1]
        shape.append((row, m, down[i][: i - c], pre, up[: c - 1]))
    return shape


def _sweep(plan: _Plan, shape: list[tuple], exps) -> list[list[int]]:
    """The parts of the normal form as alphabet positions, lowest level
    first.  Parts may share their lists with the plan: do not mutate them."""
    de, kills = plan.de, plan.kills
    ks = list(exps)
    parts = []
    for row, m, still, pre, post in shape:
        k = ks[row] % de
        if k:
            parts.append(pre + kills[k] + post)
            if m is not None:
                ks[m] += k
        else:
            parts.append(still)
    k1 = ks[0] % de
    assert k1 % plan.e == 0, "exponent sum invariant violated during sweep"
    if plan.z is not None:
        parts.append(plan.z * (k1 // plan.e))
    parts.reverse()
    return parts


def _wrap(params: Params, plan: _Plan, parts: list[list[int]]) -> NormalForm:
    # the sweep emits only alphabet letters, so the words skip make_word's check
    letters = plan.letters
    words = tuple(Word(params, tuple(letters[x] for x in part)) for part in parts)
    flat = tuple(sym for w in words for sym in w.syms)
    return NormalForm(Word(params, flat), words, plan.levels)


def normal_form(g: GroupElement) -> NormalForm:
    plan = _plan(g.params)
    return _wrap(g.params, plan, _sweep(plan, _shape(plan, g.perm), g.exps))


def length(g: GroupElement) -> int:
    """Geodesic length of g over the generating set."""
    plan = _plan(g.params)
    return sum(map(len, _sweep(plan, _shape(plan, g.perm), g.exps)))


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


def _sweeps(params: Params, perms, vecs):
    """Yield (perm, exps, parts) for every element, in rank order."""
    plan = _plan(params)
    for perm in perms:
        shape = _shape(plan, perm)
        for ks in vecs:
            yield perm, ks, _sweep(plan, shape, ks)


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
    best = -1
    witnesses: list[list[list[int]]] = []
    for _, _, parts in _sweeps(params, *_rank_order(params, cap)):
        ln = sum(map(len, parts))
        if ln > best:
            best, witnesses = ln, [parts]
        elif ln == best:
            witnesses.append(parts)
    plan = _plan(params)
    return best, len(witnesses), [_wrap(params, plan, parts) for parts in witnesses]


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

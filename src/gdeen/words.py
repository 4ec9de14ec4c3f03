"""Presentation alphabets, words and relation tables for G(de,e,n).

Three presentations are covered, dispatched on (d, e):

* d = 1: generators t_0..t_{e-1}, s_3..s_n  (Corran-Picantin);
* d > 1, e > 1: generators z, t_0..t_{de-1}, s_3..s_n  (Corran-Lee-Lee);
* d > 1, e = 1: generators z, s_2..s_n  (classical type-B-like diagram,
  with s_2 playing the role of t_0).

Words are positive: no formal inverses, z^k contributes k letters.  The
text format is whitespace-separated tokens "z", "tK", "sJ".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadFormat, UnknownSymbol
from .group import GroupElement, Params, _expect, _is_int

__all__ = [
    "Sym",
    "Word",
    "Z",
    "T",
    "S",
    "alphabet",
    "generator",
    "make_word",
    "parse_word",
    "word_text",
    "eval_word",
    "relations",
]


@dataclass(frozen=True, order=True)
class Sym:
    """One generator symbol: kind 'z', 't' or 's' plus an index.

    The index is the t-subscript (mod de), the s-subscript j, and 0 for z.
    """

    kind: str
    i: int = 0

    def __str__(self):
        return self.kind if self.kind == "z" else f"{self.kind}{self.i}"


Z = Sym("z")


# the normal-form sweeps rebuild the same few letters per element; typed,
# since T(True) and T(1.0) would share T(1)'s key
@lru_cache(maxsize=256, typed=True)
def T(k: int) -> Sym:
    return Sym("t", k)


@lru_cache(maxsize=256, typed=True)
def S(j: int) -> Sym:
    return Sym("s", j)


@dataclass(frozen=True)
class Word:
    params: Params
    syms: tuple[Sym, ...]

    def __len__(self):
        return len(self.syms)

    def __str__(self):
        return word_text(self)


def alphabet(params: Params) -> list[Sym]:
    """The generating set, in canonical order (z, then t's, then s's)."""
    _expect(params, Params)
    d, e, n = params.d, params.e, params.n
    if d == 1:
        return [T(k) for k in range(e)] + [S(j) for j in range(3, n + 1)]
    if e == 1:
        return [Z] + [S(j) for j in range(2, n + 1)]
    return [Z] + [T(k) for k in range(d * e)] + [S(j) for j in range(3, n + 1)]


def _check_symbol(params: Params, sym: Sym) -> None:
    d, e, n = params.d, params.e, params.n
    if not (isinstance(sym, Sym) and _is_int(sym.i)):
        # Sym("t", 1.0) and Sym("t", True) equal T(1), but are not letters
        raise UnknownSymbol(f"{sym!r} is not a letter of G({d*e},{e},{n})")
    ok = False
    if sym.kind == "z":
        ok = d > 1 and sym.i == 0
    elif sym.kind == "t":
        ok = (e > 1 or d == 1) and 0 <= sym.i < d * e
    elif sym.kind == "s":
        lo = 2 if (e == 1 and d > 1) else 3
        ok = lo <= sym.i <= n
    if not ok:
        # str(z) hides the index, which may be what is refused
        name = f"z with index {sym.i}" if sym.kind == "z" and sym.i else sym
        raise UnknownSymbol(f"symbol {name} is not in the alphabet of G({d*e},{e},{n})")


def generator(params: Params, sym: Sym) -> GroupElement:
    """The matrix of one generator symbol."""
    _expect(params, Params)
    _check_symbol(params, sym)
    n, de, e = params.n, params.de, params.e
    perm = list(range(1, n + 1))
    exps = [0] * n
    if sym.kind == "z":
        exps[0] = e  # zeta_de^e = zeta_d in position (1,1)
    elif sym.kind == "t":
        perm[0], perm[1] = 2, 1
        exps[0] = (-sym.i) % de  # entry (1,2) = zeta_de^{-i}
        exps[1] = sym.i % de  # entry (2,1) = zeta_de^{i}
    else:
        j = sym.i
        if j == 2 and e == 1:
            perm[0], perm[1] = 2, 1  # s_2 is the transposition matrix (1,2)
        else:
            perm[j - 2], perm[j - 1] = j, j - 1
    return GroupElement(params, tuple(perm), tuple(exps))


def make_word(params: Params, syms) -> Word:
    _expect(params, Params)
    syms = tuple(syms)
    for sym in syms:
        _check_symbol(params, sym)
    return Word(params, syms)


def parse_word(params: Params, text: str) -> Word:
    """Parse "z s3 t1 t0" style text, or a JSON array of such tokens."""
    text = text.strip()
    if text.startswith("["):
        try:
            tokens = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or an int too long
            raise BadFormat(f"invalid word JSON: {exc}") from exc
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise BadFormat("word JSON must be an array of token strings")
    else:
        tokens = text.split()
    syms = []
    for tok in tokens:
        if tok == "z":
            syms.append(Z)
        elif tok[:1] in ("t", "s") and tok[1:].isascii() and tok[1:].isdigit():
            syms.append(Sym(tok[0], int(tok[1:])))
        else:
            raise BadFormat(f"bad word token {tok!r} (expected z, tK or sJ)")
    return make_word(params, syms)


def word_text(word: Word) -> str:
    _expect(word, Word)
    return " ".join(str(s) for s in word.syms)


def eval_word(word: Word) -> GroupElement:
    """Fold the generator matrices left to right."""
    _expect(word, Word)
    p, de = word.params, word.params.de
    mats = _matrices(p)
    perm, exps = list(range(1, p.n + 1)), [0] * p.n
    for sym in word.syms:
        # checked first: Sym("t", [0]) is unhashable, and Sym("s", 3.0)
        # finds the matrix of s3; generator() raises UnknownSymbol for them,
        # and for a letter outside the alphabet
        m = mats.get(sym) if isinstance(sym, Sym) and _is_int(sym.i) else None
        if m is None:
            x = generator(p, sym)
            m = mats[sym] = ((0, *x.perm), (0, *x.exps))
        xp, xe = m
        # right multiplication moves the entry in column c to column xp[c]
        exps = [(k + xe[c]) % de for k, c in zip(exps, perm)]
        perm = [xp[c] for c in perm]
    return GroupElement(p, tuple(perm), tuple(exps))


@lru_cache(maxsize=64)
def _matrices(params: Params) -> dict[Sym, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each letter's column images and exponents, indexed by 1-based column;
    filled by ``eval_word`` with the letters it meets, not the whole alphabet."""
    return {}


def relations(params: Params) -> list[tuple[Word, Word]]:
    """All defining relations of the presentation, order relations included.

    Every quantified family is instantiated over all admissible indices,
    so evaluating both sides over the whole list is an exhaustive check of
    the presentation on matrices.
    """
    d, e, n = params.d, params.e, params.n
    w = lambda *syms: make_word(params, syms)
    rels: list[tuple[Word, Word]] = []
    if e == 1 and d > 1:
        # z s_2 z s_2 = s_2 z s_2 z; z commutes with s_3..s_n
        rels.append((w(Z, S(2), Z, S(2)), w(S(2), Z, S(2), Z)))
        for j in range(3, n + 1):
            rels.append((w(Z, S(j)), w(S(j), Z)))
        for i in range(2, n):
            rels.append((w(S(i), S(i + 1), S(i)), w(S(i + 1), S(i), S(i + 1))))
        for i in range(2, n + 1):
            for j in range(i + 2, n + 1):
                rels.append((w(S(i), S(j)), w(S(j), S(i))))
        rels.append((w(*([Z] * d)), w()))
        for j in range(2, n + 1):
            rels.append((w(S(j), S(j)), w()))
        return rels

    m = d * e  # t-indices run mod de (mod e when d = 1)
    if d > 1:
        for i in range(m):
            rels.append((w(Z, T(i)), w(T((i - e) % m), Z)))
        for j in range(3, n + 1):
            rels.append((w(Z, S(j)), w(S(j), Z)))
    for i in range(m):
        for j in range(i + 1, m):
            rels.append((w(T(i), T((i - 1) % m)), w(T(j), T((j - 1) % m))))
    if n >= 3:
        for i in range(m):
            rels.append((w(T(i), S(3), T(i)), w(S(3), T(i), S(3))))
    for i in range(m):
        for j in range(4, n + 1):
            rels.append((w(S(j), T(i)), w(T(i), S(j))))
    for i in range(3, n):
        rels.append((w(S(i), S(i + 1), S(i)), w(S(i + 1), S(i), S(i + 1))))
    for i in range(3, n + 1):
        for j in range(i + 2, n + 1):
            rels.append((w(S(i), S(j)), w(S(j), S(i))))
    if d > 1:
        rels.append((w(*([Z] * d)), w()))
    for i in range(m):
        rels.append((w(T(i), T(i)), w()))
    for j in range(3, n + 1):
        rels.append((w(S(j), S(j)), w()))
    return rels

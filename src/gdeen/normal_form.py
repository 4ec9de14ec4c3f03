"""Geodesic normal forms for G(de,e,n).

Two row-sweep algorithms share one skeleton.  For i from n down to 2 (down
to 1 when e = 1) the sweep clears row i of the working matrix by right
multiplications: shift the unique nonzero entry of the row to where it can
be killed, kill it, then shift the 1 into the diagonal slot.  The letters
used, inverted and read backwards, are a word for the element; by
construction it splits into per-level parts RE_1 .. RE_n whose shapes are
rigid, and the word is geodesic over the generating set.

Branching:

* e > 1 (any d) and the degenerate G(1,1,n): nonzero entries are killed by
  a t-letter after shifting into column 1; a final z-power accounts for the
  residual determinant-like scalar (skipped when d = 1, where it is 1).
* e = 1, d > 1: entries are killed by z-powers directly in column 1, and
  the sweep includes row 1.

The per-level parts use the conventions: a decreasing run s_i .. s_{i'}
with i < i' is empty, likewise an increasing run, and z^0 is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationTooLarge
from .group import GroupElement, Params
from .words import S, Sym, T, Word, Z, make_word

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

    def parts_by_level(self) -> dict[int, Word]:
        return dict(zip(self.levels, self.parts))


def _desc(top: int, bottom: int) -> list[Sym]:
    """s_top s_{top-1} .. s_bottom, empty when top < bottom."""
    return [S(j) for j in range(top, bottom - 1, -1)]


def _asc(bottom: int, top: int) -> list[Sym]:
    return [S(j) for j in range(bottom, top + 1)]


def normal_form(g: GroupElement) -> NormalForm:
    p = g.params
    if p.e == 1 and p.d > 1:
        parts = _sweep_d1n(g)
        levels = tuple(range(1, p.n + 1))
    else:
        parts = _sweep_general(g)
        levels = tuple(range(1, p.n + 1)) if p.d > 1 else tuple(range(2, p.n + 1))
    # the sweep emits only alphabet letters, so the words skip make_word's check
    words = tuple(Word(p, tuple(syms)) for syms in parts)
    flat = tuple(sym for syms in parts for sym in syms)
    return NormalForm(Word(p, flat), words, levels)


def _sweep_general(g: GroupElement) -> list[list[Sym]]:
    """Rows n..2 for e >= 1, d >= 1 (t-letter presentations); z-part last."""
    p = g.params
    n, de, e = p.n, p.de, p.e
    sig = list(g.perm)
    exps = list(g.exps)
    pos = [0] * (n + 1)  # pos[c] = row index (0-based) holding column c
    for i, c in enumerate(sig):
        pos[c] = i

    def rmul_s(c):  # swap column values c-1 <-> c
        r1, r2 = pos[c - 1], pos[c]
        sig[r1], sig[r2] = c, c - 1
        pos[c - 1], pos[c] = r2, r1

    def rmul_t(k):  # entry (1,2) of t_k is zeta^{-k}, entry (2,1) is zeta^{+k}
        r1, r2 = pos[1], pos[2]
        exps[r1] = (exps[r1] - k) % de
        exps[r2] = (exps[r2] + k) % de
        sig[r1], sig[r2] = 2, 1
        pos[1], pos[2] = r2, r1

    parts: list[list[Sym]] = []
    for i in range(n, 1, -1):
        row = i - 1
        c, k = sig[row], exps[row]
        part: list[Sym] = []
        if k != 0:
            for cc in range(c, 1, -1):
                rmul_s(cc)
            rmul_t(k)
            # row i now holds a 1 in column 2
            part = [T(k)] if c == 1 else [T(k), T(0)] + _asc(3, c)
            c = 2
        for cc in range(c + 1, i + 1):
            rmul_s(cc)
        if c == 1:
            # the decreasing run reaches s_2, spelled t_0 in this alphabet
            part = _desc(i, 3) + [T(0)] + part
        else:
            part = _desc(i, c + 1) + part
        parts.append(part)
    # the 1x1 block is zeta_de^{exps} with exponent divisible by e
    k1 = exps[pos[1]]
    assert k1 % e == 0, "exponent sum invariant violated during sweep"
    if p.d > 1:
        kz = k1 // e
        parts.append([Z] * kz)
    else:
        assert k1 == 0
    parts.reverse()
    return parts


def _sweep_d1n(g: GroupElement) -> list[list[Sym]]:
    """Rows n..1 for e = 1, d > 1 (z-letter presentation)."""
    p = g.params
    n, d = p.n, p.d
    sig = list(g.perm)
    exps = list(g.exps)
    pos = [0] * (n + 1)
    for i, c in enumerate(sig):
        pos[c] = i

    def rmul_s(c):
        r1, r2 = pos[c - 1], pos[c]
        sig[r1], sig[r2] = c, c - 1
        pos[c - 1], pos[c] = r2, r1

    parts: list[list[Sym]] = []
    for i in range(n, 0, -1):
        row = i - 1
        c, k = sig[row], exps[row]
        part: list[Sym] = []
        if k != 0:
            for cc in range(c, 1, -1):
                rmul_s(cc)
            r = pos[1]  # right multiply by z^{-k}; the entry now sits in column 1
            exps[r] = (exps[r] - k) % d
            part = [Z] * k + _asc(2, c)
            c = 1
        for cc in range(c + 1, i + 1):
            rmul_s(cc)
        part = _desc(i, c + 1) + part
        parts.append(part)
    parts.reverse()
    return parts


def length(g: GroupElement) -> int:
    """Geodesic length of g over the generating set."""
    return len(normal_form(g).word)


def all_elements(params: Params, cap: int = 10**6):
    """Yield every group element (direct product enumeration, not BFS)."""
    import itertools

    if params.order() > cap:
        raise EnumerationTooLarge(
            f"|G({params.de},{params.e},{params.n})| = {params.order()} exceeds cap {cap}"
        )
    n, de, e = params.n, params.de, params.e
    for perm in itertools.permutations(range(1, n + 1)):
        for head in itertools.product(range(de), repeat=n - 1):
            rem = (-sum(head)) % e
            for last in range(rem, de, e):
                yield GroupElement(params, perm, head + (last,))


def max_length_census(
    params: Params, cap: int = 10**6
) -> tuple[int, int, list[NormalForm]]:
    """Maximal geodesic length, how many elements attain it, and witnesses.

    Witnesses come from direct enumeration and are sorted by (perm, exps);
    the closed-form predictions live in :func:`census_expected`.
    """
    best = -1
    witnesses: list[GroupElement] = []
    for g in all_elements(params, cap):
        ln = length(g)
        if ln > best:
            best, witnesses = ln, [g]
        elif ln == best:
            witnesses.append(g)
    witnesses.sort(key=lambda g: (g.perm, g.exps))
    return best, len(witnesses), [normal_form(g) for g in witnesses]


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

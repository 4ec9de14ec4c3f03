"""Hecke algebras H(e,e,n) and H(d,1,n) on the geodesic basis Lambda.

The basis Lambda is the set of geodesic normal-form words, encoded per
level by a small shape grammar (levels 2..n for H(e,e,n), 1..n for
H(d,1,n)):

    one           the empty part
    ('d', i2)     s_i s_{i-1} .. s_{i2}
    ('x', k)      s_i .. s_3 t_k            (H(e,e,n))
                  s_i .. s_2 z^k            (H(d,1,n))
    ('xa', k, i2) s_i .. s_3 t_k t_0 s_3 .. s_{i2}
                  s_i .. s_2 z^k s_2 .. s_{i2}
    ('zp', k)     z^k                       (level 1, H(d,1,n) only)

Left multiplication by a generator is a structural recursion on the level
n.  A generator of level below n acts on the prefix inside the rank-(n-1)
subalgebra and the top part is re-appended.  For x = s_m, x commutes past
levels below m-1, and s_m * lambda_{m-1} is itself a level-m shape, the
*lift* (at level 2 of H(d,1,n), s_2 z^k).  Right-multiplication *folds*
then append the letters of lambda_m to it one at a time, its descending
run s_m .. s_ip first and a run of z's as one fold.  Each fold step is a
commutation shift, a braid move, a quadratic split, or a dip into the
rank-2 subalgebra.  That is the one rule for every s_m, from rank 2 up.
Beside it there are:

* rank-2 base cases for the letters that are no s_m: t_i on Lambda_2 of
  H(e,e,n), by the t_j t_i recurrence
  t_j t_i = t_{j-1} t_{i-1} + a (t_i - t_{j-1}), then t_0 on the right;
  and z on level 1 of H(d,1,n), by the cyclotomic relation;
* the expansions that the folds dip into: (s_2 z^k s_2) z^l over
  Lambda_1 Lambda_2, with s_2 z^k s_2 expanded in (s_2 z s_2)-powers, and
  the H(e,e,3)-local expansion of s_3 (t_k t_0) s_3 t_l.

Every prefix produced on the way is re-reduced recursively in the smaller
subalgebra, so termination is by induction on the level, with an explicit
decreasing power in the rank-local recursions.  A move budget converts any
rewriting bug into RecursionGuardExceeded instead of a hang.

The engine has one entry point, ``_Engine.apply``: the sum of c * w * h
over (coefficient, word) pairs, by Horner's rule over the trie of the
words.  ``leftmul_generator``, ``reduce_word``, ``apply_word`` and
``hecke_mul`` all go through it.  The move budget bounds each level-n
column that the engine computes (``_Engine._fetch``), not a call.
Levels below n compute on ``Poly`` terms; the top level n computes on
packed ints, each with a bound on its coefficients that the call proves as
it computes the int (``_TopLevel``).  Its packed state is the one form of
a ``HeckeElement``, which the engine takes and returns as it is; the
``Poly`` coefficients are decoded only when they are read.  A width belongs
to a state, not to what the engine stores: each level-n column is kept
once, as the monomials c * a^k of its coefficients, and a call shifts them
by k * bits at its own width.  A letter of level l acts on
(lambda', lambda'') as on (lambda', 1, .., 1), lambda'' the shapes above
level l, with lambda'' re-appended, so it keeps only its columns at the
indices where lambda'' is empty, and a call reads the others from those,
moved (``_letter_fold``).  A state holds
coefficients by basis position, and the position map is arithmetic
(``_Engine._position``): the mixed-radix number of an index's per-level
shape ranks, top level fastest, which is the order of
``basis_enumerate``.  No engine lists the basis.

Coefficients live in Z[a] (H(e,e,n)) or Z[a, b_1..b_{d-1}] (H(d,1,n));
the quadratic relations are x^2 = a x + 1 and z^d = b_1 z^{d-1} + ... +
b_{d-1} z + 1.  Setting a and all b_i to zero collapses the algebra onto
the integral group algebra, which is the correctness oracle used
throughout the tests.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, ParamsMismatch, RecursionGuardExceeded, UnknownSymbol
from .group import GroupElement, Params, _is_int
from .polyring import WIDTH, Poly, _a_split, _dot, _packed_terms, _render, _rewiden, _unpack
from .words import S, Sym, T, Word, Z, alphabet, eval_word, make_word, relations

__all__ = [
    "HeckeParams",
    "een",
    "d1n",
    "HeckeElement",
    "Shape",
    "BasisIndex",
    "ONE",
    "basis_enumerate",
    "validate_basis_index",
    "identity_index",
    "as_word",
    "unit",
    "basis_element",
    "leftmul_generator",
    "reduce_word",
    "apply_word",
    "hecke_mul",
    "pow_s2zs2",
    "s2_zk_s2",
    "specialize_to_group",
    "hecke_relations",
]

Shape = tuple
BasisIndex = tuple
ONE: Shape = ("one",)
_SHAPE_TYPES = frozenset({str, int})  # of a shape's parts: a kind, then ints

MOVE_BUDGET = 10**6

# The top level of the engine runs on ints, a -> 2^bits (``_TopLevel``):
# each state is made at width _BITS, which a call doubles as it must.  The
# stored level-n columns have no width.
_BITS = 64
_CHUNK = 1024  # slots per list of a column table (``_Engine._table``)


@dataclass(frozen=True)
class HeckeParams:
    """Either H(e,e,n) (family 'een', p = e) or H(d,1,n) (family 'd1n', p = d)."""

    family: str
    p: int
    n: int

    def __post_init__(self):
        if not (_is_int(self.p) and _is_int(self.n)):
            raise ParamsMismatch(f"need ints p, n, got {(self.p, self.n)!r}")
        if self.family == "een":
            if self.p < 1 or self.n < 2:
                raise ParamsMismatch("H(e,e,n) needs e >= 1, n >= 2")
            if self.n == 2 and self.p % 2 == 0:
                raise ParamsMismatch(
                    "H(e,e,2) with e even has two parameter classes and is excluded"
                )
        elif self.family == "d1n":
            if self.p < 2 or self.n < 2:
                raise ParamsMismatch("H(d,1,n) needs d >= 2, n >= 2")
        else:
            raise ParamsMismatch(f"unknown family {self.family!r}")

    @property
    def arity(self) -> int:
        """Number of ring variables: a, then b_1..b_{d-1} for H(d,1,n)."""
        return 1 if self.family == "een" else self.p

    def group_params(self) -> Params:
        if self.family == "een":
            return Params(1, self.p, self.n)
        return Params(self.p, 1, self.n)

    def __str__(self):
        if self.family == "een":
            return f"H({self.p},{self.p},{self.n})"
        return f"H({self.p},1,{self.n})"


def een(e: int, n: int) -> HeckeParams:
    return HeckeParams("een", e, n)


def d1n(d: int, n: int) -> HeckeParams:
    return HeckeParams("d1n", d, n)


# ---------------------------------------------------------------------------
# basis indexing


def _check_params(hp) -> None:
    """The check of an algebra argument, where it enters."""
    if not isinstance(hp, HeckeParams):
        raise ParamsMismatch(f"{hp!r} is not a HeckeParams")


def _level_shapes(hp: HeckeParams, i: int) -> list[Shape]:
    if hp.family == "d1n" and i == 1:
        return [("zp", k) for k in range(hp.p)]
    lo = 3 if hp.family == "een" else 2
    kmin = 0 if hp.family == "een" else 1
    out: list[Shape] = [ONE]
    out += [("d", i2) for i2 in range(lo, i + 1)]
    out += [("x", k) for k in range(kmin, hp.p)]
    out += [("xa", k, i2) for k in range(1, hp.p) for i2 in range(2, i + 1)]
    return out


def _levels(hp: HeckeParams) -> range:
    return range(1, hp.n + 1) if hp.family == "d1n" else range(2, hp.n + 1)


def _letter_level(sym: Sym) -> int:
    """The level of a letter: i for s_i, 2 for a t, 1 for z."""
    return sym.i if sym.kind == "s" else 2 if sym.kind == "t" else 1


def _letter_fold(hp: HeckeParams, sym: Sym) -> int:
    """A letter's fold: the product of the sizes of the levels above its
    own, 1 for s_n.  Positions are mixed radix, top level fastest, so the
    shapes above the letter's level are the position mod its fold."""
    level = _letter_level(sym)
    return math.prod(len(rank) for i, rank in zip(_levels(hp), _shape_table(hp)[0]) if i > level)


@lru_cache(maxsize=None)
def _shape_table(hp: HeckeParams) -> tuple[list[dict[Shape, int]], list[dict[Shape, str]]]:
    """Per level, two maps from each valid shape: to its position in the
    level's canonical order (the map iterates in that order), and to the
    text of its word."""
    ranks = [{sh: r for r, sh in enumerate(_level_shapes(hp, i))} for i in _levels(hp)]
    texts = [
        {sh: " ".join(map(str, _shape_word(hp, i, sh))) for sh in shapes}
        for i, shapes in zip(_levels(hp), ranks)
    ]
    return ranks, texts


def basis_enumerate(hp: HeckeParams) -> list[BasisIndex]:
    """All shape-valid tuples, in canonical order: |Lambda| = e^{n-1} n!
    for H(e,e,n) and d^n n! for H(d,1,n)."""
    _check_params(hp)
    return list(itertools.product(*_shape_table(hp)[0]))


def validate_basis_index(hp: HeckeParams, lam: BasisIndex) -> None:
    _check_params(hp)
    _engine(hp)._position(lam)


def _shape_word(hp: HeckeParams, i: int, shape: Shape) -> tuple[Sym, ...]:
    een_ = hp.family == "een"
    lo = 3 if een_ else 2
    if shape == ONE:
        return ()
    if shape[0] == "zp":
        return (Z,) * shape[1]
    if shape[0] == "d":
        return tuple(S(j) for j in range(i, shape[1] - 1, -1))
    desc = tuple(S(j) for j in range(i, lo - 1, -1))
    if shape[0] == "x":
        tailpart = (T(shape[1]),) if een_ else (Z,) * shape[1]
        return desc + tailpart
    k, i2 = shape[1], shape[2]
    if een_:
        return desc + (T(k), T(0)) + tuple(S(j) for j in range(3, i2 + 1))
    return desc + (Z,) * k + tuple(S(j) for j in range(2, i2 + 1))


def _index_word(hp: HeckeParams, lam: BasisIndex) -> tuple[Sym, ...]:
    """The letters of a basis index's word, level by level, unchecked; of
    its lowest levels when ``lam`` is a prefix of an index."""
    return tuple(x for shape, i in zip(lam, _levels(hp)) for x in _shape_word(hp, i, shape))


def as_word(hp: HeckeParams, lam: BasisIndex) -> Word:
    """The geodesic normal-form word of a basis element."""
    validate_basis_index(hp, lam)
    return make_word(hp.group_params(), _index_word(hp, lam))


def identity_index(hp: HeckeParams) -> BasisIndex:
    _check_params(hp)
    if hp.family == "d1n":
        return (("zp", 0),) + (ONE,) * (hp.n - 1)
    return (ONE,) * (hp.n - 1)


# ---------------------------------------------------------------------------
# elements


def _check_coeff(hp: HeckeParams, c) -> None:
    if not isinstance(c, Poly) or c.arity != hp.arity:
        raise ParamsMismatch(f"coefficient {c!r} is not a Poly of arity {hp.arity}")


def _check_element(h, hp: HeckeParams | None = None) -> None:
    """The check of an element argument, where it enters: a HeckeElement,
    of the algebra ``hp`` when one is given."""
    if not isinstance(h, HeckeElement):
        raise ParamsMismatch(f"{h!r} is not a HeckeElement")
    if hp is not None and h.params != hp:
        raise ParamsMismatch(f"{hp} vs {h.params}")


class HeckeElement:
    """A finite R0-linear combination of basis indices, held as a packed
    state of the engine's top level (``_State``): the coefficients by basis
    position, in the order of ``basis_enumerate``, at a = 2^bits.  The
    constructor checks every coefficient, and positions every index by the
    walk that also checks it (``_Engine._position``), and makes the state
    as the sum of the c * e_pos (``_Engine._state``), by the same ``_lin``
    that makes engine results, sums and scalings.  No operation changes the
    ints or the width of a state, and ``==`` compares the ints.

    ``combo`` maps each basis index to its nonzero coefficient: the
    constructor's map, or the state's, decoded the first time it is read,
    with indices from positions by the inverse walk (``_Engine._index``).
    ``str()`` and ``to_json()`` render the digits of the state, one basis
    position at a time, without it.  Copies and pickles go through it."""

    __slots__ = ("params", "_state", "_combo")

    def __init__(self, params: HeckeParams, combo: dict[BasisIndex, Poly]):
        _check_params(params)
        if not isinstance(combo, dict):
            raise ParamsMismatch(f"{combo!r} is not a dict from basis index to Poly")
        for c in combo.values():
            _check_coeff(params, c)
        self.params, self._state = params, _engine(params)._state(combo)  # checks every index
        self._combo = {lam: c for lam, c in combo.items() if not c.is_zero()}

    @classmethod
    def _of(cls, params: HeckeParams, state: _State) -> HeckeElement:
        """The element of a state, with no re-check."""
        h = object.__new__(cls)
        h.params, h._state, h._combo = params, state, None
        return h

    @property
    def combo(self) -> dict[BasisIndex, Poly]:
        combo = self._combo
        if combo is None:
            eng = _engine(self.params)
            with eng._lock:  # so that threads decode it once
                combo = self._combo
                if combo is None:
                    polys = eng._unpack_vec(self._state.vec, self._state.bits)
                    combo = self._combo = {eng._index(pos): c for pos, c in polys.items()}
        return combo

    def __reduce__(self):
        return HeckeElement, (self.params, self.combo)

    def __eq__(self, other):
        """The two states' nonzero ints, compared at the wider width."""
        if not (isinstance(other, HeckeElement) and self.params == other.params):
            return False
        states = self._state, other._state
        top = _TopLevel(_engine(self.params), max(states, key=lambda st: st.bits))
        a, b = ({q: v for q, v in top._wide(st).vec.items() if v} for st in states)
        return a == b

    def __add__(self, other: HeckeElement) -> HeckeElement:
        _check_element(other, self.params)
        one, top = Poly.const(self.params.arity, 1), _TopLevel(_engine(self.params), self._state)
        return HeckeElement._of(self.params, top._lin([(one, self._state), (one, other._state)]))

    def scaled(self, c: Poly) -> HeckeElement:
        _check_coeff(self.params, c)
        top = _TopLevel(_engine(self.params), self._state)
        return HeckeElement._of(self.params, top._lin([(c, self._state)]))

    def items(self):
        """The terms in the canonical order of ``basis_enumerate``."""
        eng = _engine(self.params)
        return sorted(self.combo.items(), key=lambda kv: eng._position(kv[0]))

    def _rendered(self) -> list[tuple[str, str]]:
        """(basis word text, coefficient text) per term, in basis order: the
        one stream that ``__str__`` and ``to_json`` render, read from the
        digits of the state one basis position at a time."""
        arity, st, eng = self.params.arity, self._state, _engine(self.params)
        groups = eng._by_position(st.vec)
        return [
            (eng._text(pos), _render(arity, _packed_terms(arity, groups[pos], st.bits)))
            for pos in sorted(groups)
        ]

    def __str__(self):
        terms = self._rendered()
        return " + ".join(f"({c})*[{b or '1'}]" for b, c in terms) if terms else "0"

    def __repr__(self):
        return f"HeckeElement({self})"

    def to_json(self) -> str:
        hp = self.params
        params = {"e": hp.p, "n": hp.n} if hp.family == "een" else {"d": hp.p, "n": hp.n}
        head = json.dumps({"family": hp.family, "params": params, "terms": []})[:-2]
        # the texts need no JSON escapes: basis words are letters, digits
        # and blanks, and coefficients add + - * ^ _
        terms = ", ".join(f'{{"basis": "{b}", "coeff": "{c}"}}' for b, c in self._rendered())
        return f"{head}{terms}]}}"


# ---------------------------------------------------------------------------
# the rewriting engine

TermList = list  # list[(Poly, BasisIndex)]
LocList = list  # list[(Poly, tuple[Sym, ...], Shape)]


def _collect(triples) -> list:
    """Sum c * c2 over (c, c2, key) triples with equal keys, as (coeff, key)
    pairs without the zero sums; keys keep the order in which they first
    appear.  A caller with no product passes the ring's 1 as c2.  Each sum
    is multiplied and added on monomial codes and built as one Poly."""
    acc: dict = {}
    for c, c2, key in triples:
        pairs = acc.get(key)
        if pairs is None:
            acc[key] = [(c, c2)]
        else:
            pairs.append((c, c2))
    return [(c, key) for key, pairs in acc.items() if not (c := _dot(pairs)).is_zero()]


class _Engine:
    def __init__(self, hp: HeckeParams):
        self.hp = hp
        self.een = hp.family == "een"
        self.p = hp.p
        self.n = hp.n
        ar = hp.arity
        self.one = Poly.const(ar, 1)
        self.A = Poly.variable(ar, 0)
        self._F = [Poly.const(ar, 0), Poly.const(ar, 1)]
        self._G = [Poly.const(ar, 1), Poly.const(ar, 0)]
        self.letters = frozenset(alphabet(hp.group_params()))
        self._ranks, self._level_texts = _shape_table(hp)
        self._shapes = [list(rank) for rank in self._ranks]
        self.size = math.prod(map(len, self._shapes))  # |Lambda|
        self._at: dict[int, BasisIndex] = {}  # position -> index, as read
        self._texts: dict[int, str] = {}
        self._lm: dict = {}  # levels below n
        self._rw: dict = {}
        self._pairs: dict = {}  # (m, a, b) -> the terms of _pair_terms
        # the level-n columns, with no width: letter -> its fold and its
        # columns (``_table``, ``_column_form``), whose values and entries
        # are kept once each in _entries (``_fetch``); tables are only added to
        self._packed: dict[Sym, tuple[int, dict[int, list]]] = {}
        self._entries: dict[tuple, tuple] = {}
        self._lock = threading.RLock()
        self._tk0: dict[int, list] = {}
        self._zpow: dict[int, list] = {}
        self._ppform: dict[int, list] = {}
        self._powexp: dict[int, list] = {}
        self._moves = 0  # in the column being computed (``_fetch``)

    # -- move accounting ---------------------------------------------------

    def _tick(self, k: int = 1) -> None:
        self._moves += k
        if self._moves > MOVE_BUDGET:
            raise RecursionGuardExceeded(
                f"exceeded {MOVE_BUDGET} primitive moves in one column"
            )

    # -- small polynomial helpers -------------------------------------------

    def _fib(self, j: int) -> tuple[Poly, Poly]:
        """s^j = F_j s + G_j under s^2 = a s + 1."""
        while len(self._F) <= j:
            self._F.append(self._F[-1] * self.A + self._F[-2])
            self._G.append(self._G[-1] * self.A + self._G[-2])
        return self._F[j], self._G[j]

    # -- H(e,e,n) rank-2 subalgebra ------------------------------------------

    def _expand2_tt(self, j: int, i: int) -> list[tuple[Poly, Shape]]:
        """t_j t_i over Lambda_2, by the index-lowering recurrence."""
        e = self.p
        j %= e
        i %= e
        self._tick()
        if j == i:
            return [(self.A, ("x", j)), (self.one, ONE)]
        if i == 0:
            return [(self.one, ("xa", j, 2))]
        one, A = self.one, self.A
        triples = [(one, one, ("xa", (j - i) % e, 2))]
        for r in range(i):
            triples.append((A, one, ("x", (i - r) % e)))
            triples.append((-A, one, ("x", (j - 1 - r) % e)))
        return _collect(triples)

    def _rmul2_t0(self, sh: Shape) -> list[tuple[Poly, Shape]]:
        """(Lambda_2 shape) * t_0."""
        if sh == ONE:
            return [(self.one, ("x", 0))]
        if sh[0] == "x":
            k = sh[1]
            if k == 0:
                return [(self.A, ("x", 0)), (self.one, ONE)]
            return [(self.one, ("xa", k, 2))]
        # t_k t_0 t_0 = a t_k t_0 + t_k
        return [(self.A, sh), (self.one, ("x", sh[1]))]

    def _leftmul2(self, l: int, sh: Shape) -> list[tuple[Poly, Shape]]:
        if sh == ONE:
            return [(self.one, ("x", l % self.p))]
        if sh[0] == "x":
            return self._expand2_tt(l, sh[1])
        return _collect(
            (c, c2, v2) for c, v in self._expand2_tt(l, sh[1]) for c2, v2 in self._rmul2_t0(v)
        )

    # -- H(e,e,n) rank-3 local machinery --------------------------------------
    #
    # expand_P reduces s_3 (t_k t_0) s_3 t_l over Lambda_2 Lambda_3.  It
    # follows the t_k t_0 power expansion
    #     t_k t_0 = (t_1 t_0) t_{k-1} t_0 - a^2 (t_1 t_0) - a t_1
    # and then eliminates (t_1 t_0)^y s_3 t_l s_3^j states with the
    # decreasing-power recursion below.

    def _tk0_expand(self, k: int) -> list[tuple[Poly, str, int]]:
        """t_k t_0 as coefficients on (t_1 t_0)^x words and single t_x."""
        if k in self._tk0:
            return self._tk0[k]
        if k == 1:
            res = [(self.one, "pow", 1)]
        else:
            res = []
            for c, kind, x in self._tk0_expand(k - 1):
                if kind == "pow":
                    res.append((c, "pow", x + 1))
                else:  # (t_1 t_0) t_x = a (t_1 t_0) + t_{x+1}
                    res.append((c * self.A, "pow", 1))
                    res.append((c, "t", (x + 1) % self.p))
            res.append((-(self.A * self.A), "pow", 1))
            res.append((-self.A, "t", 1 % self.p))
        self._tk0[k] = res
        return res

    def _Qprime(self, y: int, l: int, j: int) -> LocList:
        """s_3 (t_1 t_0)^y s_3 t_l s_3^j over Lambda_2 Lambda_3, for y >= 1."""
        self._tick()
        return self._R(y - 1, (l + 1) % self.p, l, j + 1)

    def _R(self, y: int, mm: int, l: int, j: int) -> LocList:
        """s_3 (t_1 t_0)^y t_mm s_3 t_l s_3^j over Lambda_2 Lambda_3.  At
        y = 0, mm - l is 1..e-1 mod e, so t_mm t_l has no 1 term."""
        self._tick()
        if y >= 1:
            out = [(c * self.A, pw, sh) for c, pw, sh in self._Qprime(y, l, j)]
            out += self._R(y - 1, (mm + 1) % self.p, l, j)
            return out
        Fj, Gj = self._fib(j)
        out: LocList = []
        for c, v in self._expand2_tt(mm, l):
            yy = v[1]
            if v[0] == "x":
                out.append((c * Fj, (T(mm), T(yy)), ("x", yy)))
                out.append((c * Gj, (T(mm),), ("x", yy)))
            else:
                out.append((c * Fj, (T(mm),), ("xa", yy, 3)))
                out.append((c * Gj, (T(mm),), ("xa", yy, 2)))
        return [(c, pw, sh) for c, pw, sh in out if not c.is_zero()]

    def _expand_P(self, k: int, l: int) -> LocList:
        """s_3 (t_k t_0) s_3 t_l over Lambda_2 Lambda_3 (prefixes are
        rank-2 words, tails are level-3 shapes)."""
        out: LocList = []
        for c, kind, x in self._tk0_expand(k):
            if kind == "t":
                # s_3 t_x s_3 t_l = t_x s_3 (t_x t_l)  [braid]
                for c2, v in self._expand2_tt(x, l):
                    tail = ("d", 3) if v == ONE else v
                    out.append((c * c2, (T(x),), tail))
            else:
                out += [(c * c2, pw, sh) for c2, pw, sh in self._Qprime(x, l, 0)]
        return out

    # -- H(d,1,n) rank-2 subalgebra --------------------------------------------

    def _zpow_reduce(self, m: int) -> list[tuple[Poly, int]]:
        """z^m over z^0..z^{d-1} via z^d = b_1 z^{d-1} + .. + b_{d-1} z + 1."""
        d = self.p
        if m < d:
            return [(self.one, m)]
        if m in self._zpow:
            return self._zpow[m]
        triples = []
        for i in range(1, d):
            bi = Poly.variable(self.hp.arity, i)
            triples += [(c, bi, cc) for c, cc in self._zpow_reduce(m - i)]
        res = _collect(triples + [(c, self.one, cc) for c, cc in self._zpow_reduce(m - d)])
        self._zpow[m] = res
        return res

    def _ppform_expand(self, k: int) -> list[tuple[Poly, int, tuple]]:
        """s_2 z^k s_2 on the intermediate alphabet: terms are
        z^c * V with V in {s_2 z^{c'}, (s_2 z s_2)^{c'}}."""
        if k in self._ppform:
            return self._ppform[k]
        if k == 1:
            res = [(self.one, 0, ("pow", 1))]
        else:
            # s_2 z^k s_2 = [s_2 z^{k-1} s_2](s_2 z s_2) - a s_2 z^{k-1} (s_2 z s_2)
            res = [(-(self.A * self.A), k - 1, ("pow", 1)), (-self.A, 1, ("s2z", k - 1))]
            for c, cc, v in self._ppform_expand(k - 1):
                if v[0] == "s2z":
                    res.append((c * self.A, cc + v[1], ("pow", 1)))
                    res.append((c, cc + 1, ("s2z", v[1])))
                else:  # ("pow", x): z^{c'} commutes with the (s_2 z s_2) block
                    res.append((c, cc, ("pow", v[1] + 1)))
        self._ppform[k] = res
        return res

    def _pow_expand(self, k: int) -> list[tuple[Poly, int, Shape]]:
        """(s_2 z s_2)^k as genuine z^c * Lambda_2 terms (raw z powers)."""
        if k in self._powexp:
            return self._powexp[k]
        if k == 1:
            res = [(self.one, 0, ("xa", 1, 2))]
        else:
            res = []
            for c, cc, v in self._pow_expand(k - 1):
                if v[0] == "x":
                    res.append((c * self.A, cc + v[1], ("xa", 1, 2)))
                    res.append((c, cc + 1, ("x", v[1])))
                else:  # ("xa", c', 2)
                    res.append((c * self.A * self.A, cc + v[1], ("xa", 1, 2)))
                    res.append((c * self.A, cc + 1, ("x", v[1])))
                    res.append((c, cc, ("xa", v[1] + 1, 2)))
        self._powexp[k] = res
        return res

    def _s2zs2_zl(self, k: int, l: int) -> list[tuple[Poly, int, Shape]]:
        """(s_2 z^k s_2) z^l over Lambda_1 Lambda_2: z^l commutes through
        the (s_2 z s_2)-blocks of the intermediate form, s_2 z^m is
        re-expanded through the cyclotomic relation, and so are the raw
        z powers in front."""
        raw: list[tuple[Poly, int, Shape]] = []
        for c, cc, v in self._ppform_expand(k):
            if v[0] == "s2z":
                for c2, m in self._zpow_reduce(v[1] + l):
                    raw.append((c * c2, cc, ("x", m) if m else ("d", 2)))
            else:
                raw += [(c * c2, cc + l + cc2, sh) for c2, cc2, sh in self._pow_expand(v[1])]
        triples = ((c, c2, (cr, sh)) for c, cc, sh in raw for c2, cr in self._zpow_reduce(cc))
        return [(c, cc, sh) for c, (cc, sh) in _collect(triples)]

    # -- base-case left multiplication -----------------------------------------

    def _base_een(self, sym: Sym, shapes: BasisIndex) -> TermList:
        assert sym.kind == "t"
        (lam2,) = shapes
        return [(c, (sh,)) for c, sh in self._leftmul2(sym.i, lam2)]

    def _base_d1n_z(self, shapes: BasisIndex) -> TermList:
        ((_, k),) = shapes
        return [(c, (("zp", cc),)) for c, cc in self._zpow_reduce(k + 1)]

    # -- the level handler: a lift, then one fold per letter ---------------------

    def _dnorm(self, m: int, i2: int) -> Shape:
        return ("d", i2) if i2 <= m else ONE

    def _lift(self, m: int, a: Shape) -> Shape:
        """s_m * a, for a shape a at level m-1, as a level-m shape: the same
        shape one level up, s_m for the empty part, and at level 2 of
        H(d,1,n), s_2 z^k for z^k (s_2 for z^0)."""
        if a[0] == "zp":
            return ("x", a[1]) if a[1] else ("d", 2)
        return ("d", m) if a == ONE else a

    def _fold(self, m: int, terms: LocList, op: tuple) -> LocList:
        loc = getattr(self, "_loc_" + op[0])  # _loc_s, _loc_t or _loc_zp
        out = _collect(
            (c2, self.one, (pw2, tail2))
            for c, pw, tail in terms
            for c2, pw2, tail2 in loc(m, c, pw, tail, op[1])
        )
        self._tick(len(out))
        return [(c, pw, tail) for c, (pw, tail) in out]

    def _loc_s(self, m: int, c: Poly, pw, tail: Shape, j: int) -> LocList:
        """Right-multiply (prefix, tail) by s_j: commutation shift, braid
        shuffle, descending extension or quadratic split."""
        A, one = self.A, self.one
        if tail == ONE:
            if j == m:
                return [(c, pw, ("d", m))]
            return [(c, pw + (S(j),), ONE)]
        if tail[0] == "d":
            i2 = tail[1]
            if j == i2 - 1:
                return [(c, pw, ("d", i2 - 1))]
            if j < i2 - 1:
                return [(c, pw + (S(j),), tail)]
            if j == i2:
                return [(c * A, pw, tail), (c, pw, self._dnorm(m, i2 + 1))]
            return [(c, pw + (S(j - 1),), tail)]
        if tail[0] == "x":
            k = tail[1]
            if self.een:
                if j == 3:
                    return [(c, pw + (T(k),), tail)]
            else:
                if j == 2:
                    return [(c, pw, ("xa", k, 2))]
            return [(c, pw + (S(j - 1),), tail)]
        k, i2 = tail[1], tail[2]
        if j == i2 + 1:
            return [(c, pw, ("xa", k, i2 + 1))]
        if j == i2:
            down = ("xa", k, i2 - 1) if i2 - 1 >= 2 else ("x", k)
            return [(c * A, pw, tail), (c, pw, down)]
        if j <= i2 - 1:
            return [(c, pw + (S(j),), tail)]
        return [(c, pw + (S(j - 1),), tail)]

    def _loc_t(self, m: int, c: Poly, pw, tail: Shape, l: int) -> LocList:
        """Right-multiply by t_l (H(e,e,n) folds)."""
        if tail == ONE:
            return [(c, pw + (T(l),), ONE)]
        if tail[0] == "d":
            if tail[1] == 3:
                return [(c, pw, ("x", l))]
            return [(c, pw + (T(l),), tail)]
        if tail[0] == "x":
            out = []
            for c2, v in self._expand2_tt(tail[1], l):
                out.append((c * c2, pw, ("d", 3) if v == ONE else v))
            return out
        k, i2 = tail[1], tail[2]
        if i2 == 2:
            return [
                (c * c2, pw, ("d", 3) if v == ONE else v)
                for c2, (v,) in self._reduce_at(2, (T(k), T(0), T(l)))
            ]
        # splice the rank-3 expansion of s_3 (t_k t_0) s_3 t_l back into
        # s_m .. s_4 [ .. ] s_4 .. s_{i2}
        out: LocList = []
        for c2, pw2, v3 in self._expand_P(k, l):
            base: LocList = [(c * c2, pw + pw2, v3)]
            for j in range(4, i2 + 1):
                base = self._fold(m, base, ("s", j))
            out += base
        return out

    def _loc_zp(self, m: int, c: Poly, pw, tail: Shape, l: int) -> LocList:
        """Right-multiply by z^l (H(d,1,n) folds)."""
        if tail == ONE:
            return [(c, pw + (Z,) * l, ONE)]
        if tail[0] == "d":
            if tail[1] == 2:
                return [(c, pw, ("x", l))]
            return [(c, pw + (Z,) * l, tail)]
        # splice the rank-2 expansion of (s_2 z^k s_2) z^l back into
        # s_m .. s_3 [ .. ] s_3 .. s_{i2}; the tail is never an x shape,
        # because the z-fold comes right after the fold of s_2, which turns
        # s_m .. s_2 z^k into s_m .. s_2 z^k s_2
        k, i2 = tail[1], tail[2]
        out: LocList = []
        for c2, cc, v in self._s2zs2_zl(k, l):
            base: LocList = [(c * c2, pw + (Z,) * cc, v)]
            for j in range(3, i2 + 1):
                base = self._fold(m, base, ("s", j))
            out += base
        return out

    # -- the structural recursion ---------------------------------------------

    def _leftmul_at(self, m: int, sym: Sym, shapes: BasisIndex) -> TermList:
        """sym * shapes at level m < n, memoized in ``_lm``."""
        key = (m, sym, shapes)
        cached = self._lm.get(key)
        if cached is None:
            cached = self._lm[key] = self._column(m, sym, shapes)
        return cached

    def _column(self, m: int, sym: Sym, shapes: BasisIndex) -> TermList:
        """sym * shapes at level m, computed; one move, plus those it makes."""
        self._tick()
        lvl = _letter_level(sym)
        if lvl < m:
            sub = self._leftmul_at(m - 1, sym, shapes[:-1])
            res = [(c, sh + (shapes[-1],)) for c, sh in sub]
        elif not self.een and m == 1:
            res = self._base_d1n_z(shapes)
        elif self.een and m == 2:
            res = self._base_een(sym, shapes)
        else:  # sym is s_m
            locterms = self._pair_terms(m, shapes[-2], shapes[-1])
            head = _index_word(self.hp, shapes[:-2])
            res = _collect(
                (c, c2, presh + (tail,))
                for c, pw, tail in locterms
                for c2, presh in self._reduce_at(m - 1, head + pw)
            )
        return res

    def _pair_terms(self, m: int, a: Shape, b: Shape) -> LocList:
        """s_m * (a * b), for shapes a at level m-1 and b at level m, as
        (coefficient, prefix below level m, level-m tail) triples: the lift
        of a, folded by each letter of b's word from the left, so by its
        descending run s_m .. s_ip first.  A run of z's is one fold; other
        letters come one to a run, as no geodesic word repeats s_j or t_k.
        It depends on the top two shapes alone, so it is memoized."""
        key = (m, a, b)
        terms = self._pairs.get(key)
        if terms is None:
            terms = [(self.one, (), self._lift(m, a))]
            for x, run in itertools.groupby(_shape_word(self.hp, m, b)):
                terms = self._fold(m, terms, ("zp", len(list(run))) if x == Z else (x.kind, x.i))
            self._pairs[key] = terms
        return terms

    def _act(self, m: int, sym: Sym, terms: TermList):
        """Triples for ``_collect`` that sum to sym * terms at level m."""
        lm = self._leftmul_at
        return ((c, c2, sh2) for c, sh in terms for c2, sh2 in lm(m, sym, sh))

    def _apply_at(self, m: int, word, terms: TermList) -> TermList:
        """word * terms at level m, one letter at a time from the right."""
        for sym in reversed(word):
            terms = _collect(self._act(m, sym, terms))
        return terms

    def _reduce_at(self, m: int, word: tuple[Sym, ...]) -> TermList:
        """word at level m < n, memoized.  Only the recursion calls it, never
        a top-level call, so ``_rw`` is bounded by the algebra."""
        key = (m, word)
        res = self._rw.get(key)
        if res is None:
            unit_m = identity_index(self.hp)[: m - 1 if self.een else m]  # levels <= m
            res = self._apply_at(m, word, [(self.one, unit_m)])
            self._rw[key] = res
        return res

    # -- the top level, on packed ints ------------------------------------------

    def _position(self, lam: BasisIndex) -> int:
        """The position of a basis index in ``basis_enumerate``, the mixed-radix
        number of its per-level ranks, top level fastest, and its check: each
        shape must be exactly one of its level's, so ("x", True) is refused."""
        levels = _levels(self.hp)
        if not isinstance(lam, tuple) or len(lam) != len(levels):
            raise ParamsMismatch(f"basis index needs a tuple of {len(levels)} levels for {self.hp}")
        for shape, rank, i in zip(lam, self._ranks, levels):
            exact = type(shape) is tuple and _SHAPE_TYPES.issuperset(map(type, shape))
            if not exact or shape not in rank:  # exact, so hashable
                raise ParamsMismatch(f"shape {shape} is not valid at level {i} of {self.hp}")
        return self._walk(lam)

    def _walk(self, lam: BasisIndex) -> int:
        """The position of a basis index with no check: for the indices that
        the engine builds itself."""
        pos = 0
        for shape, rank in zip(lam, self._ranks):
            pos = pos * len(rank) + rank[shape]
        return pos

    def _index(self, pos: int) -> BasisIndex:
        """The basis index at a position (``_unwalk``), kept once read."""
        lam = self._at.get(pos)
        if lam is None:
            lam = self._at[pos] = self._unwalk(pos)
        return lam

    def _unwalk(self, pos: int) -> BasisIndex:
        """The basis index at a position, by the inverse divmod walk."""
        q, parts = pos, []
        for shapes in reversed(self._shapes):
            q, r = divmod(q, len(shapes))
            parts.append(shapes[r])
        return tuple(reversed(parts))

    def _text(self, pos: int) -> str:
        """The text of ``as_word`` of the basis index at a position, joined
        from the per-level texts, and kept once made."""
        text = self._texts.get(pos)
        if text is None:
            levels = map(dict.__getitem__, self._level_texts, self._index(pos))
            text = self._texts[pos] = " ".join(filter(None, levels))
        return text

    def _unit(self, pos: int) -> _State:
        """e_pos as a state at width ``_BITS``: the int 1, with bound 1."""
        return _State({pos: 1}, {pos: 1}, _BITS)

    def _state(self, combo: dict[BasisIndex, Poly]) -> _State:
        """Coefficients by basis index as a packed state: the sum of the
        c * e_pos, made by ``_TopLevel._lin`` on unit states, so at
        ``_BITS``, doubled until its bounds fit."""
        units = [(c, self._unit(self._position(lam))) for lam, c in combo.items()]
        return _TopLevel(self, _State({}, {}, _BITS))._lin(units)

    def _by_position(self, vec: dict[int, int]) -> dict[int, dict[int, int]]:
        """The nonzero ints of a packed vector by position, then by the code
        of their b-monomial; positions in the order in which they first
        appear."""
        size, groups = self.size, {}
        for q, v in vec.items():
            if v:
                b, pos = divmod(q, size)
                groups.setdefault(pos, {})[b] = v
        return groups

    def _unpack_vec(self, vec: dict[int, int], bits: int) -> dict[int, Poly]:
        """A packed vector read back as its nonzero coefficients by position,
        in the order in which the positions first appear."""
        arity = self.hp.arity
        return {pos: _unpack(arity, g, bits) for pos, g in self._by_position(vec).items()}

    def _column_form(self, polys: dict[int, Poly]) -> tuple:
        """Coefficients by position as three tuples of monomials, with no
        width, where key is position + bcode * |Lambda|: (key, k) for a
        coefficient a^k, (key, k) for a coefficient -a^k, which are all but
        a few, and (key, k, c, |c|) for each monomial c * a^k of any other
        coefficient.  So most entries act by a shift rather than a product,
        and add the input's bound to their key's.  A stored column gives its
        positions relative to its own (``_fetch``), and a coefficient at
        position 0, so a key plus the key of the int acted on is the key of
        the result."""
        size, arity = self.size, self.hp.arity
        plus, minus, other = [], [], []
        for pos, c in polys.items():
            for m, v in c.terms.items():
                b, k = _a_split(arity, m)
                entry = (pos + b * size, k)
                if len(c.terms) > 1 or abs(v) != 1:
                    other.append(entry + (v, abs(v)))
                else:
                    (plus if v == 1 else minus).append(entry)
        return tuple(plus), tuple(minus), tuple(other)

    def _table(self, x: Sym) -> tuple[int, dict[int, list]]:
        """x's fold w (``_letter_fold``), and its level-n columns at the
        positions that are multiples of w, the one at p in slot j = p // w:
        slot j % _CHUNK of the list kept under j // _CHUNK, which is made
        when a column in it is first fetched, so a table holds only the
        lists that calls read; None where a column has not been fetched.
        x's column at p is the one at p - r, r = p mod w, with every
        position moved by r: the same column, since its keys are relative
        to its position.  A key is position + bcode * |Lambda|, and w
        divides |Lambda|, so the move keeps the b-code."""
        try:
            return self._packed[x]
        except KeyError:
            fold = _letter_fold(self.hp, x)
            with self._lock:
                return self._packed.setdefault(x, (fold, {}))

    def _fetch(self, x: Sym, pos: int) -> tuple:
        """x * e_pos at level n, for a position that x's table keeps, in the
        form of ``_column_form`` with positions relative to pos: computed
        once, under the lock, and stored for every width.  Relative keys
        repeat from column to column, and each entry and each column value
        is kept once, in ``_entries``."""
        with self._lock:
            fold, table = self._table(x)
            i, r = divmod(pos // fold, _CHUNK)
            chunk = table.get(i)
            if chunk is None:
                chunk = table[i] = [None] * _CHUNK
            if chunk[r] is None:
                self._moves = 0  # the budget is per column
                column = self._column(self.n, x, self._unwalk(pos))  # read once
                form = self._column_form({self._walk(lam) - pos: c for c, lam in column})
                share = self._entries.setdefault
                col = tuple(tuple(map(share, part, part)) for part in form)
                chunk[r] = share(col, col)
            return chunk[r]

    # -- the one entry point ---------------------------------------------------

    def apply(self, words, terms: _State) -> HeckeElement:
        """The sum of c * w * terms over the (c, w) in ``words``, by Horner's
        rule over the trie of the words, on the packed state ``terms``
        (``_TopLevel``).  Each level-n column that the call computes has
        its own move budget, counted under the lock (``_fetch``), so
        another call in another thread does not spend it."""
        root: dict = {}
        for c, syms in words:
            node = root
            for x in syms:
                node = node.setdefault(x, {})
            node[None] = c
        return HeckeElement._of(self.hp, _TopLevel(self, terms).horner(root))


class _State:
    """A packed vector at width ``bits``, keyed by basis position (from
    ``_Engine._position``) and b-monomial, and its bounds by the same keys:
    ``bound[q]`` is at least the L1 norm of the polynomial in a that
    ``vec[q]`` packs, and below 2^(bits-1).  Nothing in a state changes
    after it is made."""

    __slots__ = ("vec", "bound", "bits")

    def __init__(self, vec: dict[int, int], bound: int, bits: int):
        self.vec, self.bound, self.bits = vec, bound, bits


class _TopLevel:
    """The level-n work of one ``_Engine.apply`` call, or of one sum or
    scaling of elements, on packed ints.

    A state maps position + bcode * |Lambda| to one int (``_Engine._state``):
    the position of a basis element in ``basis_enumerate``, computed by
    ``_Engine._position`` (|Lambda| is the product of the level sizes, and
    no list of the basis is made), the code of a monomial in the b_i
    (always 0 for H(e,e,n)), and that monomial's polynomial in a at
    a = 2^bits.  a -> 2^bits is a ring map, so the ints
    are exact at any size.  They read back exactly, as balanced base-2^bits
    digits, when every coefficient is below 2^(bits-1); each state carries,
    per int, a bound on the L1 norm of its polynomial in a, which is more.
    L1 norms are sub-multiplicative, so ``_lin`` proves each bound of its
    result beside the int, as it adds into it: the input's bound times |c|
    for each monomial c * a^k that it adds in, which is 1 for +-a^k.  When
    the largest bound reaches 2^(bits-1), the width is doubled, for the rest
    of the call, the inputs are re-widened into new states, and the sum is
    made again.  The width is the states' alone: the letters' columns and
    the coefficients act through their monomials, shifted by k * bits.
    """

    def __init__(self, eng: _Engine, terms: _State):
        self.eng, self.terms, self.bits = eng, terms, terms.bits

    def horner(self, node: dict) -> _State:
        """The sum of c * w * terms over the words w of a trie, where the
        node that ends w holds c under the key None.  By Horner's rule,
        R(v) = c_v * terms + sum over letters x of x * R(child_x), so a
        prefix shared by many words is applied once.  A chain of nodes with
        one child and no coefficient is applied as one word, which keeps
        the recursion as deep as the trie has branch points.  A leaf whose
        coefficient is 1 is the state itself."""
        parts = []
        if None in node:
            self.terms = self._wide(self.terms)  # re-widened once per width
            if len(node) == 1 and node[None] == self.eng.one:
                return self.terms
            parts.append((node[None], self.terms))
        for x, child in node.items():
            if x is None:
                continue
            chain = []
            while len(child) == 1 and None not in child:
                ((y, child),) = child.items()
                chain.append(y)
            below = self.horner(child)
            for y in reversed(chain):
                below = self._lin([(y, below)])
            parts.append((x, below))
        return self._lin(parts)

    def _wide(self, st: _State) -> _State:
        """st at this call's width: st itself, or a new, re-widened state."""
        if st.bits == self.bits:
            return st
        vec = {q: _rewiden(v, st.bits, self.bits) for q, v in st.vec.items()}
        return _State(vec, st.bound, self.bits)

    def _lin(self, parts: list) -> _State:
        """The sum of op * state over the (op, state) pairs, where op is a
        letter or a coefficient, at this call's width, with its bound.  Both
        act through monomials in the form of ``_Engine._column_form``: a
        letter through its column at each position of the state, read from
        its table (``_Engine._table``), a coefficient through its own, keyed
        by b-monomial alone.  Both forms key their entries relative to the
        position they act on, so each entry's key plus the int's key q is
        the key it adds into.  The width is at least that of every state,
        and only grows."""
        eng, arity = self.eng, self.eng.hp.arity
        size = eng.size
        self.bits = max([self.bits] + [st.bits for _, st in parts])
        while True:
            parts = [(op, self._wide(st)) for op, st in parts]
            bits = self.bits
            out: dict[int, int] = {}
            bound: dict[int, int] = {}
            get, bget = out.get, bound.get
            for op, st in parts:
                norm = st.bound
                if isinstance(op, Poly):
                    table, col = None, eng._column_form({0: op})
                else:
                    fold, table = eng._table(op)
                for q, v in st.vec.items():
                    if table is not None:
                        if not v:  # so no column is fetched for nothing
                            continue
                        j = q % size // fold  # the kept column, moved to q
                        chunk = table.get(j // _CHUNK)
                        col = chunk and chunk[j % _CHUNK] or eng._fetch(op, j * fold)
                    u = norm[q]
                    plus, minus, other = col
                    for key, k in plus:
                        key += q
                        out[key] = get(key, 0) + (v << k * bits)
                        bound[key] = bget(key, 0) + u
                    for key, k in minus:
                        key += q
                        out[key] = get(key, 0) - (v << k * bits)
                        bound[key] = bget(key, 0) + u
                    for key, k, c, l1 in other:
                        key += q
                        out[key] = get(key, 0) + (c * v << k * bits)
                        bound[key] = bget(key, 0) + u * l1
            # b-codes add field by field: no field may carry into the next
            if arity > 1 and out and max(out) // size >> (WIDTH * arity):
                raise InvariantViolation(f"product degree reaches 2^{WIDTH} in arity {arity}")
            top = max(bound.values(), default=0)
            if not top >> (self.bits - 1):
                return _State(out, bound, self.bits)
            while top >> (self.bits - 1):
                self.bits *= 2


@lru_cache(maxsize=None)
def _engine(hp: HeckeParams) -> _Engine:
    return _Engine(hp)


# ---------------------------------------------------------------------------
# public operations


def leftmul_generator(hp: HeckeParams, sym: Sym, lam: BasisIndex) -> HeckeElement:
    """x * lambda expressed on the basis Lambda."""
    _check_params(hp)
    eng = _engine(hp)
    # as in make_word: Sym("t", 1.0) equals, and would pass as, T(1)
    if not (isinstance(sym, Sym) and _is_int(sym.i) and sym in eng.letters):
        raise UnknownSymbol(f"{sym} is not a generator of {hp}")
    return eng.apply([(eng.one, (sym,))], eng._unit(eng._position(lam)))


def reduce_word(hp: HeckeParams, word: Word | str) -> HeckeElement:
    """The image of a positive word in the algebra, on the basis Lambda."""
    _check_params(hp)
    if isinstance(word, str):
        from .words import parse_word

        word = parse_word(hp.group_params(), word)
    return apply_word(word, unit(hp))


def apply_word(word: Word, h: HeckeElement) -> HeckeElement:
    """word * h: the letters of the word act on h one at a time, from the right."""
    _check_element(h)
    hp = h.params
    if not (isinstance(word, Word) and word.params == hp.group_params()):
        raise ParamsMismatch(f"{word!r} is not a word of {hp}")
    eng = _engine(hp)
    return eng.apply([(eng.one, word.syms)], h._state)


def hecke_mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Bilinear product: the sum of c * (lambda * h2) over the terms of h1.

    The basis words of h1 go into a trie, letters left to right, and the
    product is evaluated by Horner's rule over it, so a prefix that several
    words share acts on h2 once.  The move budget bounds each level-n column
    that the product computes, and only memo misses count as moves, so a
    cold engine is the worst case.  Over the 80 products of 20
    associativity samples (xy)z = x(yz) of basis elements of H(3,3,5),
    drawn as ``verify_hecke`` draws them at seed 1, on a fresh engine, the
    largest column took 204 moves against the budget of 10^6.
    """
    _check_element(h1)
    _check_element(h2, h1.params)
    hp = h1.params
    words = [(c, _index_word(hp, lam)) for lam, c in h1.combo.items()]
    return _engine(hp).apply(words, h2._state)


def unit(hp: HeckeParams) -> HeckeElement:
    return basis_element(hp, identity_index(hp))


def basis_element(hp: HeckeParams, lam: BasisIndex) -> HeckeElement:
    # checked before it is a dict key: an index that is a list is unhashable
    validate_basis_index(hp, lam)
    return HeckeElement(hp, {lam: Poly.const(hp.arity, 1)})


def _check_power(hp: HeckeParams, k, helper: str) -> None:
    _check_params(hp)
    if hp.family != "d1n":
        raise ParamsMismatch(f"{helper} is an H(d,1,n) helper")
    # a bool is refused: True would pass as the power 1
    if not (_is_int(k) and 1 <= k <= hp.p - 1):
        raise ParamsMismatch(f"need an int 1 <= k <= d-1, got {k!r}")


def pow_s2zs2(hp: HeckeParams, k: int) -> HeckeElement:
    """(s_2 z s_2)^k over Lambda, for H(d,1,n), 1 <= k <= d-1."""
    _check_power(hp, k, "pow_s2zs2")
    return reduce_word(hp, make_word(hp.group_params(), (S(2), Z, S(2)) * k))


def s2_zk_s2(hp: HeckeParams, k: int) -> HeckeElement:
    """s_2 z^k s_2 over Lambda, for H(d,1,n), 1 <= k <= d-1."""
    _check_power(hp, k, "s2_zk_s2")
    return reduce_word(hp, make_word(hp.group_params(), (S(2),) + (Z,) * k + (S(2),)))


def specialize_to_group(h: HeckeElement) -> dict[GroupElement, int]:
    """The a -> 0, b_i -> 0 specialization onto the group algebra.

    Returns the support as a map from group elements to integers.  It
    needs no group table: the indices of ``h`` were validated when ``h``
    was built, so each one spells an element of ``h.params``'s group.
    """
    _check_element(h)
    hp = h.params
    zeros = [0] * hp.arity
    out: dict[GroupElement, int] = {}
    for lam, c in h.combo.items():
        v = c.specialize(zeros)
        if v:
            g = eval_word(as_word(hp, lam))
            out[g] = out.get(g, 0) + v
    return {g: v for g, v in out.items() if v}


def hecke_relations(hp: HeckeParams) -> list[tuple[Word, Word]]:
    """The braid-type defining relations (order relations excluded; those
    are deformed into the quadratic/cyclotomic relations)."""
    _check_params(hp)
    return [(u, v) for u, v in relations(hp.group_params()) if len(v.syms) > 0]


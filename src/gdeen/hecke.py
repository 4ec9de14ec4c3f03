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
subalgebra and the top part is re-appended.  For x = s_n, x commutes past
levels 2..n-2 and the pair (lambda_{n-1}, lambda_n) is rewritten by a
case analysis built from three ingredients:

* closed-form *heads* for s_n * (lambda_{n-1} * s_n..s_{i'}), which use
  only commutation shifts and braid moves (plus one quadratic split in the
  descending/descending case);
* right-multiplication *folds* that append the remaining letters of
  lambda_n one at a time, each fold step being a commutation shift, a
  braid move, a quadratic expansion, or a dip into the rank-2 subalgebra;
* rank-2 base cases, each a rank-2 product followed by one letter on the
  right: for H(e,e,n), the t_j t_i recurrence
  t_j t_i = t_{j-1} t_{i-1} + a (t_i - t_{j-1}), then t_0 on the right;
  for H(d,1,n), (s_2 z^k s_2) z^l, then s_2 on the right, where
  s_2 z^k s_2 is expanded in (s_2 z s_2)-powers.  The folds also need
  the H(e,e,3)-local expansion of s_3 (t_k t_0) s_3 t_l.

Every prefix produced on the way is re-reduced recursively in the smaller
subalgebra, so termination is by induction on the level, with an explicit
decreasing power in the rank-local recursions.  A move budget converts any
rewriting bug into RecursionGuardExceeded instead of a hang.

The engine has one entry point, ``_Engine.apply``: the sum of c * w * h
over (coefficient, word) pairs, by Horner's rule over the trie of the
words.  ``leftmul_generator``, ``reduce_word``, ``apply_word`` and
``hecke_mul`` all go through it, and each call is one budget session.

Coefficients live in Z[a] (H(e,e,n)) or Z[a, b_1..b_{d-1}] (H(d,1,n));
the quadratic relations are x^2 = a x + 1 and z^d = b_1 z^{d-1} + ... +
b_{d-1} z + 1.  Setting a and all b_i to zero collapses the algebra onto
the integral group algebra, which is the correctness oracle used
throughout the tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParamsMismatch, RecursionGuardExceeded, UnknownSymbol
from .group import GroupElement, Params, _is_int
from .polyring import Poly, _dot
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
    "action_matrix",
]

Shape = tuple
BasisIndex = tuple
ONE: Shape = ("one",)

MOVE_BUDGET = 10**6


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
    return list(itertools.product(*_shape_table(hp)[0]))


def validate_basis_index(hp: HeckeParams, lam: BasisIndex) -> None:
    levels = _levels(hp)
    if not isinstance(lam, tuple) or len(lam) != len(levels):
        raise ParamsMismatch(f"basis index needs a tuple of {len(levels)} levels for {hp}")
    for shape, i, valid in zip(lam, levels, _shape_table(hp)[1]):
        try:
            ok = shape in valid
        except TypeError:  # unhashable, so not a shape
            ok = False
        if not ok:
            raise ParamsMismatch(f"shape {shape} is not valid at level {i} of {hp}")


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


def as_word(hp: HeckeParams, lam: BasisIndex) -> Word:
    """The geodesic normal-form word of a basis element."""
    syms: list[Sym] = []
    for shape, i in zip(lam, _levels(hp)):
        syms.extend(_shape_word(hp, i, shape))
    return make_word(hp.group_params(), syms)


def _basis_text(hp: HeckeParams, lam: BasisIndex) -> str:
    """The text of ``as_word(hp, lam)``, joined from the per-level texts."""
    return " ".join(filter(None, map(dict.__getitem__, _shape_table(hp)[1], lam)))


def identity_index(hp: HeckeParams) -> BasisIndex:
    if hp.family == "d1n":
        return (("zp", 0),) + (ONE,) * (hp.n - 1)
    return (ONE,) * (hp.n - 1)


# ---------------------------------------------------------------------------
# elements


def _check_coeff(hp: HeckeParams, c) -> None:
    if not isinstance(c, Poly) or c.arity != hp.arity:
        raise ParamsMismatch(f"coefficient {c!r} is not a Poly of arity {hp.arity}")


class HeckeElement:
    """A finite R0-linear combination of basis indices.  The constructor
    validates every index and coefficient; engine results, sums and
    scalings are built by ``_element`` with no re-check."""

    __slots__ = ("params", "combo")

    def __init__(self, params: HeckeParams, combo: dict[BasisIndex, Poly]):
        if not isinstance(params, HeckeParams):
            raise ParamsMismatch(f"{params!r} is not a HeckeParams")
        for lam, c in combo.items():
            validate_basis_index(params, lam)
            _check_coeff(params, c)
        self.params = params
        self.combo = {lam: c for lam, c in combo.items() if not c.is_zero()}

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.params == other.params
            and self.combo == other.combo
        )

    def __add__(self, other: HeckeElement) -> HeckeElement:
        if self.params != other.params:
            raise ParamsMismatch(f"{self.params} vs {other.params}")
        one = Poly.const(self.params.arity, 1)
        terms = [(c, one, lam) for h in (self, other) for lam, c in h.combo.items()]
        return _element(self.params, _collect(terms))

    def scaled(self, c: Poly) -> HeckeElement:
        _check_coeff(self.params, c)
        # Z[a, b_i] has no zero divisors, so only c = 0 makes a term vanish
        terms = [] if c.is_zero() else [(v * c, lam) for lam, v in self.combo.items()]
        return _element(self.params, terms)

    def items(self):
        """The terms in the canonical order of ``basis_enumerate``."""
        ranks = _shape_table(self.params)[0]
        return sorted(
            self.combo.items(), key=lambda kv: tuple(map(dict.__getitem__, ranks, kv[0]))
        )

    def __str__(self):
        if not self.combo:
            return "0"
        hp = self.params
        return " + ".join(f"({c})*[{_basis_text(hp, lam) or '1'}]" for lam, c in self.items())

    def __repr__(self):
        return f"HeckeElement({self})"

    def to_json(self) -> str:
        hp = self.params
        obj = {
            "family": hp.family,
            "params": (
                {"e": hp.p, "n": hp.n} if hp.family == "een" else {"d": hp.p, "n": hp.n}
            ),
            "terms": [
                {"basis": _basis_text(hp, lam), "coeff": str(c)}
                for lam, c in self.items()
            ],
        }
        return json.dumps(obj)


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


def _element(hp: HeckeParams, terms: TermList) -> HeckeElement:
    """A HeckeElement on (coeff, index) pairs known valid, distinct and nonzero."""
    h = object.__new__(HeckeElement)
    h.params = hp
    h.combo = {lam: c for c, lam in terms}
    return h


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
        self._lm: dict = {}
        self._rw: dict = {}
        self._tk0: dict[int, list] = {}
        self._zpow: dict[int, list] = {}
        self._ppform: dict[int, list] = {}
        self._powexp: dict[int, list] = {}
        self._moves = 0
        self._active = False

    # -- move accounting ---------------------------------------------------

    def _tick(self, k: int = 1) -> None:
        self._moves += k
        if self._moves > MOVE_BUDGET:
            raise RecursionGuardExceeded(
                f"exceeded {MOVE_BUDGET} primitive moves in one reduction"
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

    def _rmul2_s2(self, sh: Shape) -> list[tuple[Poly, Shape]]:
        """(Lambda_2 shape) * s_2, for the shapes s_2, s_2 z^j and
        s_2 z^j s_2 that _s2zs2_zl yields (never the empty word)."""
        if sh[0] == "x":
            return [(self.one, ("xa", sh[1], 2))]
        # s_2 s_2 = a s_2 + 1, and s_2 z^j s_2 s_2 = a s_2 z^j s_2 + s_2 z^j
        return [(self.A, sh), (self.one, ONE if sh[0] == "d" else ("x", sh[1]))]

    # -- base-case left multiplication -----------------------------------------

    def _base_een(self, sym: Sym, shapes: BasisIndex) -> TermList:
        assert sym.kind == "t"
        (lam2,) = shapes
        return [(c, (sh,)) for c, sh in self._leftmul2(sym.i, lam2)]

    def _base_d1n_z(self, shapes: BasisIndex) -> TermList:
        ((_, k),) = shapes
        return [(c, (("zp", cc),)) for c, cc in self._zpow_reduce(k + 1)]

    def _base_d1n_s2(self, shapes: BasisIndex) -> TermList:
        (_, k), lam2 = shapes
        A, one = self.A, self.one
        if k == 0:
            if lam2 == ONE:
                return [(one, (("zp", 0), ("d", 2)))]
            if lam2 == ("d", 2):
                return [(A, (("zp", 0), ("d", 2))), (one, (("zp", 0), ONE))]
            if lam2[0] == "x":
                return [(A, (("zp", 0), lam2)), (one, (("zp", lam2[1]), ONE))]
            return [(A, (("zp", 0), lam2)), (one, (("zp", lam2[1]), ("d", 2)))]
        if lam2 == ONE:
            return [(one, (("zp", 0), ("x", k)))]
        if lam2 == ("d", 2):  # s_2 z^k s_2 is itself a basis word
            return [(one, (("zp", 0), ("xa", k, 2)))]
        terms = self._s2zs2_zl(k, lam2[1])
        if lam2[0] == "x":
            return [(c, (("zp", cc), sh)) for c, cc, sh in terms]
        # s_2 z^k (s_2 z^l s_2) = (s_2 z^k s_2) z^l, then s_2 on the right
        return _collect(
            (c, c2, (("zp", cc), sh2)) for c, cc, sh in terms for c2, sh2 in self._rmul2_s2(sh)
        )

    # -- the level handler: heads -----------------------------------------------

    def _desc_word(self, top: int, bottom: int) -> tuple[Sym, ...]:
        return tuple(S(j) for j in range(top, bottom - 1, -1))

    def _dnorm(self, m: int, i2: int) -> Shape:
        return ("d", i2) if i2 <= m else ONE

    def _lift(self, m: int, a: Shape) -> Shape:
        """Prefix a level-(m-1) shape with s_m: the same shape one level up."""
        return ("d", m) if a == ONE else a

    def _head(self, m: int, a: Shape, ip: int) -> LocList:
        """s_m * (a * s_m .. s_{ip}) with a at level m-1: commutation and
        braid moves only, except one quadratic split in the d/d case."""
        A, one = self.A, self.one
        dw = self._desc_word
        if a == ONE:
            return [(A, (), ("d", ip)), (one, dw(m - 1, ip), ONE)]
        if a[0] == "d":
            i = a[1]
            if i < ip:
                return [(one, dw(m - 1, ip - 1), ("d", i))]
            return [
                (A, dw(m - 1, i), ("d", ip)),
                (one, dw(m - 1, ip), self._dnorm(m, i + 1)),
            ]
        if a[0] == "x":
            k = a[1]
            if self.een:
                if ip == 3:
                    return [(one, dw(m - 1, 3) + (T(k),), ("x", k))]
            else:
                if ip == 2:
                    return [(one, dw(m - 1, 2), ("xa", k, 2))]
            return [(one, dw(m - 1, ip - 1), ("x", k))]
        k, i = a[1], a[2]
        if i < ip:
            if ip == i + 1:
                return [(one, dw(m - 1, i + 1), ("xa", k, i + 1))]
            return [(one, dw(m - 1, ip - 1), ("xa", k, i))]
        return [(one, dw(m - 1, ip), ("xa", k, i + 1))]

    def _b_split(self, b: Shape) -> tuple[int, list[tuple]]:
        """Split a level-m shape into a descending head and fold letters."""
        if b[0] == "d":
            return b[1], []
        if b[0] == "x":
            if self.een:
                return 3, [("t", b[1])]
            return 2, [("zp", b[1])]
        k, i2 = b[1], b[2]
        if self.een:
            return 3, [("t", k), ("t", 0)] + [("s", j) for j in range(3, i2 + 1)]
        return 2, [("zp", k), ("s", 2)] + [("s", j) for j in range(3, i2 + 1)]

    # -- the level handler: folds -------------------------------------------------

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
        # because the z-fold comes right after _head(m, a, 2)
        k, i2 = tail[1], tail[2]
        out: LocList = []
        for c2, cc, v in self._s2zs2_zl(k, l):
            base: LocList = [(c * c2, pw + (Z,) * cc, v)]
            for j in range(3, i2 + 1):
                base = self._fold(m, base, ("s", j))
            out += base
        return out

    # -- the structural recursion ---------------------------------------------

    def _sym_level(self, sym: Sym) -> int:
        if sym.kind == "s":
            return sym.i
        if sym.kind == "t":
            return 2
        return 1  # z

    def _leftmul_at(self, m: int, sym: Sym, shapes: BasisIndex) -> TermList:
        key = (m, sym, shapes)
        cached = self._lm.get(key)
        if cached is not None:
            return cached
        self._tick()
        lvl = self._sym_level(sym)
        if lvl < m:
            sub = self._leftmul_at(m - 1, sym, shapes[:-1])
            res = [(c, sh + (shapes[-1],)) for c, sh in sub]
        elif not self.een and m == 1:
            res = self._base_d1n_z(shapes)
        elif m == 2:
            res = self._base_een(sym, shapes) if self.een else self._base_d1n_s2(shapes)
        else:
            locterms = self._pair_terms(m, shapes[-2], shapes[-1])
            head = tuple(
                s
                for sh, lev in zip(shapes[:-2], _levels(self.hp))
                for s in _shape_word(self.hp, lev, sh)
            )
            res = _collect(
                (c, c2, presh + (tail,))
                for c, pw, tail in locterms
                for c2, presh in self._reduce_at(m - 1, head + pw)
            )
        self._lm[key] = res
        return res

    def _pair_terms(self, m: int, a: Shape, b: Shape) -> LocList:
        if b == ONE:
            return [(self.one, (), self._lift(m, a))]
        ip, extras = self._b_split(b)
        terms = self._head(m, a, ip)
        for op in extras:
            terms = self._fold(m, terms, op)
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

    def _horner(self, m: int, node: dict, terms: TermList) -> TermList:
        """The sum of c * w * terms over the words w of a trie, where the
        node that ends w holds c under the key None.  By Horner's rule,
        R(v) = c_v * terms + sum over letters x of x * R(child_x), so a
        prefix shared by many words is applied once.  A chain of nodes with
        one child and no coefficient is applied as one word, which keeps
        the recursion as deep as the trie has branch points."""
        triples = [(node[None], c2, sh) for c2, sh in terms] if None in node else []
        for x, child in node.items():
            if x is None:
                continue
            chain = []
            while len(child) == 1 and None not in child:
                ((y, child),) = child.items()
                chain.append(y)
            below = self._apply_at(m, chain, self._horner(m, child, terms))
            triples += self._act(m, x, below)
        return _collect(triples)

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

    # -- the one entry point ---------------------------------------------------

    def apply(self, words, terms: TermList) -> HeckeElement:
        """The sum of c * w * terms over the (c, w) in ``words``, by Horner's
        rule over the trie of the words.  The call is one move-budget
        session: the count starts from zero unless another call on this
        engine is still running."""
        root: dict = {}
        for c, syms in words:
            node = root
            for x in syms:
                node = node.setdefault(x, {})
            node[None] = c
        fresh = not self._active
        if fresh:
            self._active = True
            self._moves = 0
        try:
            return _element(self.hp, self._horner(self.n, root, terms))
        finally:
            if fresh:
                self._active = False


@lru_cache(maxsize=None)
def _engine(hp: HeckeParams) -> _Engine:
    return _Engine(hp)


# ---------------------------------------------------------------------------
# public operations


def leftmul_generator(hp: HeckeParams, sym: Sym, lam: BasisIndex) -> HeckeElement:
    """x * lambda expressed on the basis Lambda."""
    if sym not in set(alphabet(hp.group_params())):
        raise UnknownSymbol(f"{sym} is not a generator of {hp}")
    validate_basis_index(hp, lam)
    eng = _engine(hp)
    return eng.apply([(eng.one, (sym,))], [(eng.one, lam)])


def reduce_word(hp: HeckeParams, word: Word | str) -> HeckeElement:
    """The image of a positive word in the algebra, on the basis Lambda."""
    if isinstance(word, str):
        from .words import parse_word

        word = parse_word(hp.group_params(), word)
    return apply_word(word, unit(hp))


def apply_word(word: Word, h: HeckeElement) -> HeckeElement:
    """word * h: the letters of the word act on h one at a time, from the right."""
    hp = h.params
    if word.params != hp.group_params():
        raise ParamsMismatch(f"word over {word.params}, algebra {hp}")
    eng = _engine(hp)
    return eng.apply([(eng.one, word.syms)], _terms(h))


def hecke_mul(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Bilinear product: the sum of c * (lambda * h2) over the terms of h1.

    The basis words of h1 go into a trie, letters left to right, and the
    product is evaluated by Horner's rule over it, so a prefix that several
    words share acts on h2 once.  The whole product is one move-budget
    session.  Only memo misses count as moves, so a cold engine is the worst
    case: over the products in 40 associativity samples (xy)z = x(yz) of
    basis elements of H(3,3,5), seeds 0 and 1, from a fresh engine, the
    largest took 44 001 moves against the budget of 10^6.
    """
    if h1.params != h2.params:
        raise ParamsMismatch(f"{h1.params} vs {h2.params}")
    hp = h1.params
    words = [(c, as_word(hp, lam).syms) for lam, c in h1.combo.items()]
    return _engine(hp).apply(words, _terms(h2))


def _terms(h: HeckeElement) -> TermList:
    return [(c, lam) for lam, c in h.combo.items()]


def unit(hp: HeckeParams) -> HeckeElement:
    return _element(hp, [(Poly.const(hp.arity, 1), identity_index(hp))])


def basis_element(hp: HeckeParams, lam: BasisIndex) -> HeckeElement:
    # checked before it is a dict key: an index that is a list is unhashable
    validate_basis_index(hp, lam)
    return _element(hp, [(Poly.const(hp.arity, 1), lam)])


def pow_s2zs2(hp: HeckeParams, k: int) -> HeckeElement:
    """(s_2 z s_2)^k over Lambda, for H(d,1,n), 1 <= k <= d-1."""
    if hp.family != "d1n":
        raise ParamsMismatch("pow_s2zs2 is an H(d,1,n) helper")
    if not 1 <= k <= hp.p - 1:
        raise ParamsMismatch(f"need 1 <= k <= d-1, got {k}")
    return reduce_word(hp, make_word(hp.group_params(), (S(2), Z, S(2)) * k))


def s2_zk_s2(hp: HeckeParams, k: int) -> HeckeElement:
    """s_2 z^k s_2 over Lambda, for H(d,1,n), 1 <= k <= d-1."""
    if hp.family != "d1n":
        raise ParamsMismatch("s2_zk_s2 is an H(d,1,n) helper")
    if not 1 <= k <= hp.p - 1:
        raise ParamsMismatch(f"need 1 <= k <= d-1, got {k}")
    return reduce_word(hp, make_word(hp.group_params(), (S(2),) + (Z,) * k + (S(2),)))


def specialize_to_group(h: HeckeElement) -> dict[GroupElement, int]:
    """The a -> 0, b_i -> 0 specialization onto the group algebra.

    Returns the support as a map from group elements to integers.  It
    needs no group table: the indices of ``h`` were validated when ``h``
    was built, so each one spells an element of ``h.params``'s group.
    """
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
    return [(u, v) for u, v in relations(hp.group_params()) if len(v.syms) > 0]


def action_matrix(hp: HeckeParams, sym: Sym) -> list[list[Poly]]:
    """The matrix of left multiplication by one generator in the basis
    Lambda, materialized on demand: entry [i][j] is the coefficient of
    basis[i] in x * basis[j], with basis_enumerate's ordering."""
    basis = basis_enumerate(hp)
    pos = {lam: i for i, lam in enumerate(basis)}
    zero = Poly.const(hp.arity, 0)
    cols = []
    for lam in basis:
        col = [zero] * len(basis)
        for mu, c in leftmul_generator(hp, sym, lam).combo.items():
            col[pos[mu]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]

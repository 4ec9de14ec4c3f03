"""Sparse multivariate polynomials over the integers.

The coefficient ring of the Hecke algebras is Z[a] or Z[a, b_1..b_{d-1}];
a polynomial is a map from monomials (fixed arity = number of variables,
variable 0 is ``a``) to nonzero Python ints.  Values are immutable and
hashable, equal polynomials have identical term maps, and text rendering
uses a fixed degree-lex order so renderings are canonical.

A monomial is stored as one int code: its total degree, followed by the
exponents of every variable but the last, each in a field of ``WIDTH``
bits (for arity 1 the code is the exponent).  A monomial product is then
one int add, and numeric order on codes is the degree-lex order.  For
arity 2 and up every total degree must stay below ``2**WIDTH``; a product
that would pass it raises rather than carry into the next field.

No GCDs, no factorization, no Laurent exponents: the Hecke relations are
normalized to live over the plain polynomial ring.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArityMismatch, InvariantViolation

__all__ = ["Poly", "var_names", "WIDTH"]

WIDTH = 16
_MASK = (1 << WIDTH) - 1
_UNIT = {0: 1}  # the terms of the constant 1


def var_names(arity: int) -> list[str]:
    return ["a"] + [f"b_{i}" for i in range(1, arity)]


def _encode(arity: int, mono) -> int:
    if len(mono) != arity:
        raise ArityMismatch(f"monomial {mono!r} for arity {arity}")
    if not all(isinstance(p, int) and p >= 0 for p in mono):
        raise InvariantViolation(f"monomial {mono!r} needs exponents that are ints >= 0")
    code = sum(mono)
    if arity > 1 and code >> WIDTH:
        raise InvariantViolation(f"monomial {mono!r} has degree {code} >= 2^{WIDTH}")
    for p in mono[:-1]:
        code = code << WIDTH | p
    return code


def _decode(arity: int, code: int) -> list[int]:
    exps = [code >> (WIDTH * k) & _MASK for k in range(arity - 2, -1, -1)]
    return exps + [(code >> (WIDTH * (arity - 1))) - sum(exps)]


@lru_cache(maxsize=4096)
def _pieces(arity: int, code: int) -> tuple[str, str, str]:
    """The texts of a monomial in a term: with coefficient 1, with
    coefficient -1, and after any other coefficient, such as ``+ a^2*b_1``,
    ``- a^2*b_1`` and ``*a^2*b_1`` (``+ 1``, ``- 1`` and ``""`` for 1)."""
    pairs = zip(var_names(arity), _decode(arity, code))
    body = "*".join(name if p == 1 else f"{name}^{p}" for name, p in pairs if p)
    return "+ " + (body or "1"), "- " + (body or "1"), body and "*" + body


def _render(arity: int, terms) -> str:
    """The text of the polynomial with these (code, coefficient) pairs,
    given highest code first, that is in degree-lex order with a before
    b_1 before b_2 ...; zero coefficients are skipped.  This is the one
    rendering of a coefficient: ``Poly.__str__`` and the Hecke element
    renderings both call it."""
    out = []
    add = out.append
    for code, c in terms:
        if not c:
            continue
        piece = _pieces(arity, code)
        if c == 1:
            add(piece[0])
        elif c == -1:
            add(piece[1])
        else:
            add(f"+ {c}{piece[2]}" if c > 0 else f"- {-c}{piece[2]}")
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """``terms`` without its zero coefficients, as a fresh dict if it had any."""
    return {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms


_set = object.__setattr__


def _make(arity: int, terms: dict[int, int]) -> Poly:
    """A Poly on a code map already known to be valid and free of zeros;
    for a +-monomial, ``_unit_monomial``'s shared one."""
    if len(terms) == 1:
        ((m, c),) = terms.items()
        if c == 1 or c == -1:
            return _unit_monomial(arity, m, c)
    return _new(arity, terms)


def _new(arity: int, terms: dict[int, int]) -> Poly:
    """A new Poly on a code map, as ``_make`` and ``_unit_monomial`` build it."""
    p = object.__new__(Poly)
    _set(p, "arity", arity)
    _set(p, "terms", terms)
    return p


class Poly:
    """Immutable sparse polynomial with arbitrary-precision int coefficients:
    ``terms`` maps monomial codes to them, the constructor takes exponent tuples."""

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity: int, terms: dict[tuple[int, ...], int]):
        if not isinstance(arity, int) or arity < 1:
            raise ArityMismatch(f"arity {arity!r} is not an int >= 1")
        for c in terms.values():
            if isinstance(c, bool) or not isinstance(c, int):
                raise InvariantViolation(f"coefficient {c!r} is not an integer")
        _set(self, "arity", arity)
        _set(self, "terms", _nonzero({_encode(arity, m): c for m, c in terms.items()}))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the validated constructor, since
        # restoring the slots would go through the __setattr__ above
        a = self.arity
        return Poly, (a, {tuple(_decode(a, m)): c for m, c in self.terms.items()})

    @staticmethod
    def const(arity: int, c: int) -> Poly:
        return _make(arity, Poly(arity, {(0,) * arity: c}).terms)

    @staticmethod
    def variable(arity: int, i: int) -> Poly:
        if not 0 <= i < arity:
            raise ArityMismatch(f"no variable {i} in arity {arity}")
        return _make(arity, Poly(arity, {tuple(int(j == i) for j in range(arity)): 1}).terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: Poly) -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return _make(self.arity, _nonzero(terms))

    def __neg__(self) -> Poly:
        return _make(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        t1, t2, big = self.terms, other.terms, other
        if len(t1) > len(t2):
            t1, t2, big = t2, t1, self
        if not t1:
            return _make(self.arity, {})
        if len(t1) == 1 and t1.get(0) == 1:
            return big
        arity = self.arity
        if arity > 1 and (max(t1) + max(t2)) >> (WIDTH * arity):
            raise InvariantViolation(f"product degree reaches 2^{WIDTH} in arity {arity}")
        if len(t1) == 1:
            ((m0, c0),) = t1.items()
            # Z has no zero divisors: no coefficient becomes 0
            return _make(arity, {m0 + m: c0 * c for m, c in t2.items()})
        terms: dict[int, int] = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                m = m1 + m2
                terms[m] = terms.get(m, 0) + c1 * c2
        return _make(arity, _nonzero(terms))

    def scaled(self, c: int) -> Poly:
        return _make(self.arity, {m: c * v for m, v in self.terms.items()} if c else {})

    def specialize(self, assignment) -> int:
        """Evaluate at integer values; ``assignment`` is a full dict over
        variable names or a sequence of length arity."""
        if isinstance(assignment, dict):
            names = var_names(self.arity)
            missing = [nm for nm in names if nm not in assignment]
            if missing:
                raise ArityMismatch(f"assignment is missing {missing}")
            values = [assignment[nm] for nm in names]
        else:
            values = list(assignment)
            if len(values) != self.arity:
                raise ArityMismatch(f"need {self.arity} values, got {len(values)}")
        total = 0
        for code, coeff in self.terms.items():
            prod = coeff
            for v, p in zip(values, _decode(self.arity, code)):
                if p:
                    prod *= v**p
            total += prod
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.arity, frozenset(self.terms.items())))
            _set(self, "_hash", h)
            return h

    def __str__(self):
        return _render(self.arity, sorted(self.terms.items(), reverse=True))

    def __repr__(self):
        return f"Poly({self})"


def _a_step(arity: int) -> int:
    """The code of ``a``: adding it to a code multiplies the monomial by a."""
    return 1 if arity == 1 else (1 << WIDTH * (arity - 1)) | (1 << WIDTH * (arity - 2))


def _a_split(arity: int, code: int) -> tuple[int, int]:
    """The code of a monomial's part in the b_i (0 for 1, and for every
    monomial of arity 1), and its degree in ``a``."""
    if arity == 1:
        return 0, code
    k = code >> WIDTH * (arity - 2) & _MASK
    return code - k * _a_step(arity), k


@lru_cache(maxsize=4096)
def _offset(bits: int, n: int) -> int:
    """2^(bits-1) in each of n base-2^bits digits."""
    return (1 << (bits - 1)) * (((1 << bits * n) - 1) // ((1 << bits) - 1))


def _digits(v: int, bits: int) -> list[int]:
    """v in balanced base 2^bits, lowest digit first: each digit is in
    [-2^(bits-1), 2^(bits-1)), and there may be zeros on top.  Adding
    2^(bits-1) to every digit makes them the plain digits of one int >= 0;
    when bits is a multiple of 64 they are read off its 64-bit words.  At
    width 64, flipping each word's top bit makes its signed reading the
    digit: w ^ 2^63 read signed is w - 2^63."""
    n = (v.bit_length() + 1) // bits + 1  # at least as many as v has
    half, off = 1 << (bits - 1), _offset(bits, n)
    u = v + off
    if bits % 64:
        return [(u >> bits * k & (2 * half - 1)) - half for k in range(n)]
    if bits == 64:
        return memoryview((u ^ off).to_bytes(8 * n, "little")).cast("q").tolist()
    j = bits // 64  # words per digit, the top one offset by 2^63
    words = memoryview(u.to_bytes(n * bits // 8, "little")).cast("Q").tolist()
    digits = [w - (1 << 63) for w in words[j - 1 :: j]]
    for t in range(j - 2, -1, -1):
        digits = [d << 64 | w for d, w in zip(digits, words[t::j])]
    return digits


def _rewiden(v: int, bits: int, new: int) -> int:
    """The int packed at width ``new`` of what ``v`` packs at width ``bits``:
    its digits (``_digits``) summed back at the new width.  Exact when every
    coefficient is below 2^(bits-1) in absolute value."""
    return sum(d << new * k for k, d in enumerate(_digits(v, bits)))


def _packed_terms(arity: int, packed: dict[int, int], bits: int):
    """The (code, coefficient) pairs of a polynomial packed as a map from the
    code of each monomial in the b_i (``_a_split``) to the int of its
    polynomial in ``a`` at a = 2^bits, highest code first, as ``_render``
    takes them, read back as balanced base-2^bits digits (``_digits``);
    some coefficients may be 0.  Exact when every coefficient is below
    2^(bits-1) in absolute value.  An int of one b-monomial needs no sort:
    its codes fall with its digits."""
    step = _a_step(arity)
    if len(packed) == 1:
        ((m, v),) = packed.items()
        digits = _digits(v, bits)
        return zip(range(m + (len(digits) - 1) * step, m - 1, -step), reversed(digits))
    pairs = [
        (m + k * step, c) for m, v in packed.items() for k, c in enumerate(_digits(v, bits)) if c
    ]
    return sorted(pairs, reverse=True)


def _unpack(arity: int, packed: dict[int, int], bits: int) -> Poly:
    """The Poly of ``_packed_terms``."""
    terms = {m: c for m, c in _packed_terms(arity, packed, bits) if c}
    if arity > 1 and terms and max(terms) >> (WIDTH * arity):
        raise InvariantViolation(f"product degree reaches 2^{WIDTH} in arity {arity}")
    return _make(arity, terms)


@lru_cache(maxsize=4096)
def _unit_monomial(arity: int, code: int, c: int) -> Poly:
    """One shared Poly per +-monomial, which ``_make`` hands out: most
    entries of a generator's column, and most products in the engine's
    memos below level n, are +-a^k, and no one keeps copies of them."""
    return _new(arity, {code: c})


def _dot(pairs: list[tuple[Poly, Poly]]) -> Poly:
    """The sum of ``p * q`` over the pairs, multiplied and summed on the
    monomial codes, so that only the result is built as a Poly."""
    if len(pairs) == 1:
        ((p, q),) = pairs
        return p if q.terms == _UNIT and q.arity == p.arity else p * q
    arity = pairs[0][0].arity
    acc: dict[int, int] = {}
    get = acc.get
    for p, q in pairs:
        if p.arity != arity or q.arity != arity:
            raise ArityMismatch(f"arity {p.arity} times {q.arity} in arity {arity}")
        t2 = q.terms
        for m1, c1 in p.terms.items():
            for m2, c2 in t2.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    # an overflowing product sets a bit at or past the top of the total
    # degree field, so no code below that is ever a carried one
    if arity > 1 and acc and max(acc) >> (WIDTH * arity):
        raise InvariantViolation(f"product degree reaches 2^{WIDTH} in arity {arity}")
    return _make(arity, _nonzero(acc))

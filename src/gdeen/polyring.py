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
def _factors(arity: int, code: int) -> str:
    """The monomial as text, such as ``a^2*b_1``; ``""`` for 1."""
    pairs = zip(var_names(arity), _decode(arity, code))
    return "*".join(name if p == 1 else f"{name}^{p}" for name, p in pairs if p)


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """``terms`` without its zero coefficients, as a fresh dict if it had any."""
    return {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms


_set = object.__setattr__


def _make(arity: int, terms: dict[int, int]) -> Poly:
    """A Poly on a code map already known to be valid and free of zeros."""
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
        return Poly(arity, {(0,) * arity: c})

    @staticmethod
    def variable(arity: int, i: int) -> Poly:
        if not 0 <= i < arity:
            raise ArityMismatch(f"no variable {i} in arity {arity}")
        return Poly(arity, {tuple(int(j == i) for j in range(arity)): 1})

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
        if not self.terms:
            return "0"
        # degree-lex, a before b_1 before b_2 ..., highest first
        pieces = []
        for code in sorted(self.terms, reverse=True):
            c = self.terms[code]
            body, a = _factors(self.arity, code), abs(c)
            body = (body if a == 1 else f"{a}*{body}") if body else str(a)
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"Poly({self})"

"""Exact arithmetic for the complex reflection groups G(de,e,n).

An element is an n x n monomial matrix whose nonzero entries are de-th
roots of unity and whose product of nonzero entries is a d-th root of
unity.  We never touch floating point: row i carries its column sigma(i)
and an integer exponent k_i with entry (i, sigma(i)) = zeta_de^{k_i},
so an element is just a permutation plus an exponent vector mod de,
subject to sum(k_i) = 0 mod e.

Multiplication is O(n):
    (g*h)[i, c] = g[i, sigma_g(i)] * h[sigma_g(i), c]
so sigma_{gh} = sigma_h o sigma_g and k_{gh,i} = k_{g,i} + k_{h,sigma_g(i)}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import BadFormat, EnumerationTooLarge, InvariantViolation, ParamsMismatch

__all__ = [
    "Params",
    "GroupElement",
    "identity",
    "mul",
    "inverse",
    "element",
    "element_to_json",
    "element_from_json",
]


@dataclass(frozen=True)
class Params:
    """Parameters (d, e, n) of the group G(de,e,n)."""

    d: int
    e: int
    n: int

    def __post_init__(self):
        dims = (self.d, self.e, self.n)
        if not all(map(_is_int, dims)) or self.d < 1 or self.e < 1 or self.n < 2:
            raise InvariantViolation(
                f"need ints d >= 1, e >= 1, n >= 2, got (d={self.d!r}, e={self.e!r}, n={self.n!r})"
            )

    @property
    def de(self) -> int:
        return self.d * self.e

    def order(self) -> int:
        """Group order (de)^n * n! / e, computed exactly."""
        return self.de**self.n * math.factorial(self.n) // self.e


DEFAULT_CAP = 10**6


def _checked_order(params: Params, cap: int) -> int:
    """The group order, refused with EnumerationTooLarge when it exceeds cap."""
    if not isinstance(params, Params):
        raise ParamsMismatch(f"{params!r} is not a Params")
    if not _is_int(cap):
        raise ParamsMismatch(f"cap must be an int, got {cap!r}")
    order = params.order()
    if order > cap:
        raise EnumerationTooLarge(
            f"|G({params.de},{params.e},{params.n})| = {order} exceeds cap {cap}"
        )
    return order


@dataclass(frozen=True)
class GroupElement:
    """A monomial matrix, stored as (sigma, exps).

    ``perm[i-1]`` is sigma(i) (1-based columns) and ``exps[i-1]`` is the
    exponent of zeta_de in row i.  Instances are assumed valid; use
    :func:`element` to build one from untrusted data.
    """

    params: Params
    perm: tuple[int, ...]
    exps: tuple[int, ...]

    def __str__(self):
        rows = ", ".join(f"{i + 1}->{c}^{k}" for i, (c, k) in enumerate(zip(self.perm, self.exps)))
        return f"G({self.params.de},{self.params.e},{self.params.n})[{rows}]"


def identity(params: Params) -> GroupElement:
    n = params.n
    return GroupElement(params, tuple(range(1, n + 1)), (0,) * n)


def element(params: Params, perm, exps) -> GroupElement:
    """Validated constructor; raises InvariantViolation naming the failure."""
    try:
        perm, exps = tuple(perm), tuple(exps)
    except TypeError as exc:  # not iterable
        raise InvariantViolation(f"perm and exps must be sequences of ints: {exc}") from exc
    if not all(map(_is_int, perm + exps)):
        raise InvariantViolation(f"perm {perm} and exps {exps} must hold ints only")
    n, de = params.n, params.de
    if len(perm) != n or sorted(perm) != list(range(1, n + 1)):
        raise InvariantViolation(f"perm {perm} is not a bijection of 1..{n}")
    exps = tuple(k % de for k in exps)
    if len(exps) != n:
        raise InvariantViolation(f"need {n} exponents, got {len(exps)}")
    if sum(exps) % params.e != 0:
        raise InvariantViolation(
            f"exponent sum {sum(exps)} is not 0 mod e={params.e}"
            " (product of entries must be a d-th root of unity)"
        )
    return GroupElement(params, perm, exps)


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.params != h.params:
        raise ParamsMismatch(f"{g.params} vs {h.params}")
    de = g.params.de
    gp, ge, hp, he = g.perm, g.exps, h.perm, h.exps
    perm = tuple(hp[c - 1] for c in gp)
    exps = tuple((ge[i] + he[gp[i] - 1]) % de for i in range(len(gp)))
    return GroupElement(g.params, perm, exps)


def inverse(g: GroupElement) -> GroupElement:
    n, de = g.params.n, g.params.de
    inv = [0] * n
    for i, c in enumerate(g.perm):
        inv[c - 1] = i + 1
    exps = tuple((-g.exps[inv[i] - 1]) % de for i in range(n))
    return GroupElement(g.params, tuple(inv), exps)


def element_to_json(g: GroupElement) -> str:
    """Matrix JSON: {"d":..,"e":..,"n":..,"rows":[[col,exp],...]} (1-based cols)."""
    p = g.params
    obj = {
        "d": p.d,
        "e": p.e,
        "n": p.n,
        "rows": [[c, k] for c, k in zip(g.perm, g.exps)],
    }
    return json.dumps(obj)


def element_from_json(text: str | dict) -> GroupElement:
    if isinstance(text, str):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or an int too long
            raise BadFormat(f"invalid JSON: {exc}") from exc
    else:
        obj = text
    if not isinstance(obj, dict):
        raise BadFormat("matrix JSON must be an object")
    try:
        params = Params(_json_int(obj["d"]), _json_int(obj["e"]), _json_int(obj["n"]))
        rows = obj["rows"]
    except (KeyError, TypeError) as exc:
        raise BadFormat(f"matrix JSON needs integer d, e, n and a rows list: {exc}") from exc
    if not isinstance(rows, list) or len(rows) != params.n:
        raise BadFormat(f"rows must be a list of {params.n} [col, exp] pairs")
    try:
        perm = [_json_int(r[0]) for r in rows]
        exps = [_json_int(r[1]) for r in rows]
    except (TypeError, IndexError, KeyError) as exc:
        raise BadFormat(f"each row must be a [col, exp] pair: {exc}") from exc
    return element(params, perm, exps)


def _is_int(v) -> bool:
    """An int that is not a bool (3.0 and True would share the int's memos)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _json_int(v) -> int:
    """A JSON integer: bools and floats are refused, not coerced."""
    if not _is_int(v):
        raise TypeError(f"{v!r} is not an integer")
    return v

"""Brute-force ground truth for the tests: the Cayley table of a small group.

The table is built by breadth-first search from the identity under *left*
multiplication by the positive generating alphabet (no inverses), so
``dist[g]`` is the minimal number of letters whose product is g.  It is
the oracle against which the normal-form lengths, the geodesic
certificate and ``gdeen enumerate`` are checked; the package itself never
builds it.

Elements are stored in canonical order, lexicographic on (perm, exps), so
indices are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from gdeen.errors import NotInGroup
from gdeen.group import DEFAULT_CAP, GroupElement, Params, _checked_order, mul
from gdeen.words import Sym, alphabet, generator


@dataclass(frozen=True)
class GroupTable:
    params: Params
    elements: tuple[GroupElement, ...]
    index: dict[GroupElement, int]
    dist: tuple[int, ...]

    def __len__(self):
        return len(self.elements)


def enumerate_group(params: Params, cap: int = DEFAULT_CAP) -> GroupTable:
    order = _checked_order(params, cap)
    # An element is coded as an int whose digits are its 0-based columns
    # (base n, most significant first), then its exponents (base de), so
    # numeric order on codes is the canonical (perm, exps) order.
    n, de = params.n, params.de
    ew = [de ** (n - 1 - r) for r in range(n)]
    cw = [de**n * n ** (n - 1 - r) for r in range(n)]
    # Row r of x*g is row x.perm[r] of g with x.exps[r] added to its
    # exponent; only the (at most two) rows a letter moves are recomputed.
    # The moves are read from the generator matrices here, not shared with
    # the certificate's ``cayley.row_moves``.
    moves = []
    for sym in alphabet(params):
        x = generator(params, sym)
        rows = enumerate(zip(x.perm, x.exps))
        moves.append([(r, c - 1, k) for r, (c, k) in rows if c != r + 1 or k])
    start = sum(r * w for r, w in enumerate(cw))
    dist = {start: 0}
    frontier, depth = [start], 0
    while frontier:
        depth += 1
        nxt = []
        for code in frontier:
            cols = [code // w % n for w in cw]
            exps = [code // w % de for w in ew]
            for mv in moves:
                h = code
                for r, src, k in mv:
                    h += (cols[src] - cols[r]) * cw[r] + ((exps[src] + k) % de - exps[r]) * ew[r]
                if h not in dist:
                    dist[h] = depth
                    nxt.append(h)
        frontier = nxt
    assert len(dist) == order, "alphabet failed to generate the predicted group"
    codes = sorted(dist)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal tuples are stored once
    elements = tuple(
        GroupElement(
            params,
            shared.setdefault(p := tuple(c // w % n + 1 for w in cw), p),
            shared.setdefault(ks := tuple(c // w % de for w in ew), ks),
        )
        for c in codes
    )
    index = {g: i for i, g in enumerate(elements)}
    return GroupTable(params, elements, index, tuple(dist[c] for c in codes))


def geodesic_distance(table: GroupTable, g: GroupElement) -> int:
    try:
        return table.dist[table.index[g]]
    except KeyError:
        raise NotInGroup(f"{g} is not in the table for {table.params}") from None


def regular_representation(table: GroupTable, sym: Sym) -> list[int]:
    """Left translation by one generator as a permutation of table indices.

    Position i maps to index(x * elements[i]); composing the permutation
    for t1 and then the one for t0 therefore gives the permutation of the
    product t0*t1.
    """
    x = generator(table.params, sym)
    return [table.index[mul(x, g)] for g in table.elements]

"""Brute-force ground truth: group enumeration and Cayley-graph geodesics.

The table is built by breadth-first search from the identity under *left*
multiplication by the positive generating alphabet (no inverses), so
``dist[g]`` is the minimal number of letters whose product is g.  This is
the oracle against which the normal-form lengths are certified.

Elements are stored in canonical order, lexicographic on (perm, exps), so
indices are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import EnumerationTooLarge, NotInGroup
from .group import GroupElement, Params, identity, mul
from .words import Sym, alphabet, generator

__all__ = [
    "GroupTable",
    "enumerate_group",
    "geodesic_distance",
    "regular_representation",
]

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class GroupTable:
    params: Params
    elements: tuple[GroupElement, ...]
    index: dict[GroupElement, int]
    dist: tuple[int, ...]

    def __len__(self):
        return len(self.elements)


def enumerate_group(params: Params, cap: int = DEFAULT_CAP) -> GroupTable:
    order = params.order()
    if order > cap:
        raise EnumerationTooLarge(
            f"|G({params.de},{params.e},{params.n})| = {order} exceeds cap {cap}"
        )
    gens = [generator(params, sym) for sym in alphabet(params)]
    start = identity(params)
    dist_map: dict[GroupElement, int] = {start: 0}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        dg = dist_map[g]
        for x in gens:
            h = mul(x, g)
            if h not in dist_map:
                dist_map[h] = dg + 1
                queue.append(h)
    assert len(dist_map) == order, "alphabet failed to generate the predicted group"
    elements = tuple(sorted(dist_map, key=lambda g: (g.perm, g.exps)))
    index = {g: i for i, g in enumerate(elements)}
    dist = tuple(dist_map[g] for g in elements)
    return GroupTable(params, elements, index, dist)


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


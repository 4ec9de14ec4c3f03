"""The generators' row moves: left multiplication as a rewrite of rows.

Both certificates in ``verify`` evaluate words with these moves, on ranks
of permutations and exponent vectors, and build no group table: the normal
forms and the Cayley-graph edges g -> x*g, the basis words and translations.
"""

from __future__ import annotations

from .group import Params
from .words import alphabet, generator

__all__ = ["row_moves"]


def row_moves(params: Params) -> list[list[tuple[int, int, int]]]:
    """Per alphabet letter x, the rows that left multiplication by x rewrites.

    Row r of x*g is row x.perm[r] of g with x.exps[r] added to its
    exponent.  Each letter lists (r, source row, added exponent), 0-based,
    for the rows where that is not row r unchanged: at most two.
    """
    moves = []
    for sym in alphabet(params):
        x = generator(params, sym)
        rows = enumerate(zip(x.perm, x.exps))
        moves.append([(r, c - 1, k) for r, (c, k) in rows if c != r + 1 or k])
    return moves

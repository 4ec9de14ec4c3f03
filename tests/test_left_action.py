"""The row-move tables of the certificates against the group law."""

import pytest

import gdeen.verify as verify_mod
from gdeen import GroupElement, Params, alphabet, generator, mul

from test_certificate import REFERENCE_GRID
from test_lipschitz_lanes import EDGE_SHAPES


@pytest.mark.parametrize("params", REFERENCE_GRID + EDGE_SHAPES + [Params(1, 1, 5)], ids=str)
def test_the_tables_send_g_to_x_times_g(params):
    # for every g and letter x, the tables send the rank of g to that of
    # x*g, multiplied as matrices
    perms, vecs, tables = verify_mod._left_action(params, 10**6)
    rank = {(p, v): i * len(vecs) + j for i, p in enumerate(perms) for j, v in enumerate(vecs)}
    for (ptab, etab), sym in zip(tables, alphabet(params)):
        x = generator(params, sym)
        moved = {r: ptab[r // len(vecs)] * len(vecs) + etab[r % len(vecs)] for r in rank.values()}
        want = {r: rank[h.perm, h.exps] for (p, v), r in rank.items() for h in [mul(x, GroupElement(params, p, v))]}
        assert moved == want, sym

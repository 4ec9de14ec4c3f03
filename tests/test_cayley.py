"""The brute-force group table and left-regular representation of the test oracle."""

from collections import deque

import pytest
from cayley_oracle import enumerate_group, geodesic_distance, regular_representation

from gdeen import EnumerationTooLarge, NotInGroup, Params, element, identity, mul, relations
from gdeen.words import T, Z
from gdeen.words import alphabet, generator


def test_orders():
    assert len(enumerate_group(Params(1, 3, 3))) == 54
    assert len(enumerate_group(Params(3, 1, 3))) == 162
    assert Params(3, 3, 4).order() == 52488


@pytest.mark.parametrize(
    "params",
    [Params(1, 2, 3), Params(2, 1, 2), Params(2, 2, 2), Params(3, 3, 2), Params(2, 3, 3)],
)
def test_order_formula(params):
    assert len(enumerate_group(params)) == params.order()


def test_distance_identity():
    table = enumerate_group(Params(1, 3, 3))
    assert geodesic_distance(table, identity(Params(1, 3, 3))) == 0


def test_distance_example_34():
    params = Params(3, 3, 4)
    table = enumerate_group(params)
    g = element(params, [1, 3, 4, 2], [1, 0, 1, 1])
    assert geodesic_distance(table, g) == 9


def test_longest_element_g212():
    params = Params(2, 1, 2)
    table = enumerate_group(params)
    assert max(table.dist) == 4  # n^2 with n = 2


def test_not_in_group():
    table = enumerate_group(Params(1, 2, 2))
    with pytest.raises(NotInGroup):
        geodesic_distance(table, identity(Params(1, 2, 3)))


def test_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_group(Params(3, 3, 4), cap=1000)


def test_regular_representation_t0_g332():
    params = Params(1, 3, 2)
    table = enumerate_group(params)
    perm = regular_representation(table, T(0))
    assert sorted(perm) == list(range(6))
    assert all(perm[perm[i]] == i for i in range(6))  # involution
    assert all(perm[i] != i for i in range(6))  # fixed-point free


def test_regular_representation_composition():
    # composing the permutations for t1 then t0 is the permutation of t0*t1
    params = Params(1, 3, 2)
    table = enumerate_group(params)
    p0 = regular_representation(table, T(0))
    p1 = regular_representation(table, T(1))
    t0t1 = mul(generator(params, T(0)), generator(params, T(1)))
    composed = [p0[p1[i]] for i in range(len(table))]
    expected = [table.index[mul(t0t1, g)] for g in table.elements]
    assert composed == expected


def test_regular_representation_z_order():
    params = Params(3, 1, 2)
    table = enumerate_group(params)
    pz = regular_representation(table, Z)
    cur = list(range(len(table)))
    for _ in range(3):
        cur = [pz[i] for i in cur]
    assert cur == list(range(len(table)))
    once = [pz[i] for i in range(len(table))]
    assert once != list(range(len(table)))


def test_translation_perms_satisfy_relations():
    params = Params(2, 2, 2)
    table = enumerate_group(params)
    perms = {sym: regular_representation(table, sym) for sym in alphabet(params)}

    def act(word):
        cur = list(range(len(table)))
        for sym in word.syms:  # leftmost letter acts last
            cur = [perms[sym][i] for i in cur]
        return cur

    for u, v in relations(params):
        assert act(u) == act(v)


def test_dist_edges():
    params = Params(2, 1, 3)
    table = enumerate_group(params)
    gens = [generator(params, sym) for sym in alphabet(params)]
    for g in table.elements:
        dg = geodesic_distance(table, g)
        for x in gens:
            assert geodesic_distance(table, mul(x, g)) <= dg + 1


def test_canonical_order_is_lex():
    table = enumerate_group(Params(1, 2, 3))
    keys = [(g.perm, g.exps) for g in table.elements]
    assert keys == sorted(keys)


def reference_bfs(params):
    """The table by a plain BFS over group elements, with group.mul only."""
    gens = [generator(params, sym) for sym in alphabet(params)]
    dist = {identity(params): 0}
    queue = deque(dist)
    while queue:
        g = queue.popleft()
        for x in gens:
            if (h := mul(x, g)) not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    elements = tuple(sorted(dist, key=lambda g: (g.perm, g.exps)))
    return elements, {g: i for i, g in enumerate(elements)}, tuple(dist[g] for g in elements)


# G(1,1,4), G(2,2,2), G(3,3,3) | G(6,3,3) | G(3,1,3), G(4,1,2): all three
# presentations, with the degenerate symmetric and dihedral cases
@pytest.mark.parametrize(
    "params",
    [
        Params(1, 1, 4),
        Params(1, 2, 2),
        Params(1, 3, 3),
        Params(2, 3, 3),
        Params(3, 1, 3),
        Params(4, 1, 2),
    ],
)
def test_bfs_matches_reference(params):
    table = enumerate_group(params)
    assert (table.elements, table.index, table.dist) == reference_bfs(params)

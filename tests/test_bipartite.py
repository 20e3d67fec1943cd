import random

import pytest

from diagcx.bipartite import (
    BipartiteForest,
    enumerate_bipartite,
    enumerate_bipartite_forests,
    horizontal_fold,
    partial_partition_of,
    subdivide,
    vertical_fold,
)
from diagcx.forests import (
    blocks_as_pairs,
    build_gamma_Fn,
    enumerate_forests,
    gamma_forest,
    poset_from_forest,
    x_n_pairs,
)
from diagcx.partitions import PartialPartition, is_partial_coarsening


def test_validation():
    with pytest.raises(ValueError):
        # internal vertex with no child is a leaf
        BipartiteForest(2, 1, (0, 0, 1))
    with pytest.raises(ValueError):
        # internal vertex must hang under an ordinary vertex
        BipartiteForest(2, 2, (3, 0, 0, 2))
    with pytest.raises(ValueError):
        # ordinary vertex cannot hang under an ordinary vertex
        BipartiteForest(2, 0, (2, 0))
    with pytest.raises(ValueError):
        BipartiteForest.of(2, {1: 3, 3: 2, 2: 4, 4: 1})  # cycle


def test_canonical_labelling_identifies_relabellings():
    a = BipartiteForest.of(3, {10: 3, 11: 3, 1: 10, 2: 11})
    b = BipartiteForest.of(3, {77: 3, 5: 3, 1: 5, 2: 77})
    assert a == b
    with pytest.raises(ValueError):
        # raw constructor rejects non-canonical internal names
        BipartiteForest(3, 2, (5, 4, 0, 3, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_of_recovers_every_forest_from_shuffled_internal_ids(n, seed):
    # ids spread past n + internal, so .of renames them as well as reordering them
    rng = random.Random(seed)
    for forest in enumerate_bipartite_forests(n):
        ids = dict(zip(forest.internal_vertices(), rng.sample(range(n + 1, 4 * n + 10), forest.internal)))
        shuffled = {ids.get(v, v): ids.get(p, p) for v, p in enumerate(forest.parent, start=1) if p}
        assert BipartiteForest.of(n, shuffled) == forest


def test_single_block_partition():
    # one internal vertex below k = 3 with children 1 and 2
    f = BipartiteForest.of(3, {9: 3, 1: 9, 2: 9})
    part = partial_partition_of(f)
    assert blocks_as_pairs(part.blocks, 3) == (((3, 1), (3, 2)),)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subdivision_realises_forest_partitions(n):
    for forest in enumerate_forests(n):
        sub = subdivide(forest)
        assert partial_partition_of(sub) == gamma_forest(poset_from_forest(forest))


def test_horizontal_fold_figure():
    # two internal vertices under k = 3, carrying 1 and 2
    f = BipartiteForest.of(3, {10: 3, 11: 3, 1: 10, 2: 11})
    x, y = f.internal_vertices()
    folded = horizontal_fold(f, x, y)
    assert folded == BipartiteForest.of(3, {10: 3, 1: 10, 2: 10})
    # blocks merge
    merged = partial_partition_of(folded)
    assert blocks_as_pairs(merged.blocks, 3) == (((3, 1), (3, 2)),)


def _block_of_internal(f, x):
    index = {pair: k for k, pair in enumerate(x_n_pairs(f.n))}
    p = f.parent[x - 1]
    return frozenset(index[(p, w)] for w in f.ordinary_descendants(x))


def test_horizontal_fold_merges_blocks_structurally():
    for f in enumerate_bipartite_forests(3):
        internal = f.internal_vertices()
        for x in internal:
            for y in internal:
                if x >= y or f.parent[x - 1] != f.parent[y - 1]:
                    continue
                before = set(map(frozenset, partial_partition_of(f).blocks))
                after = set(map(frozenset, partial_partition_of(horizontal_fold(f, x, y)).blocks))
                bx, by = _block_of_internal(f, x), _block_of_internal(f, y)
                assert after == (before - {bx, by}) | {bx | by}


def test_horizontal_fold_rejects_distinct_parents():
    f = BipartiteForest.of(3, {10: 3, 2: 10, 11: 2, 1: 11})
    x, y = f.internal_vertices()
    with pytest.raises(ValueError):
        horizontal_fold(f, x, y)


def test_vertical_fold_figure():
    # chain: root 3, internal y, vertex 2, internal x, vertex 1
    f = BipartiteForest.of(3, {10: 3, 2: 10, 11: 2, 1: 11})
    x = next(v for v in f.internal_vertices() if f.parent[v - 1] == 2)
    y = next(v for v in f.internal_vertices() if f.parent[v - 1] == 3)
    folded = vertical_fold(f, x, y)
    assert folded == BipartiteForest.of(3, {10: 3, 1: 10, 2: 10})
    # U_x disappears, U_y survives
    before = set(map(frozenset, partial_partition_of(f).blocks))
    after = set(map(frozenset, partial_partition_of(folded).blocks))
    index = {pair: k for k, pair in enumerate(x_n_pairs(3))}
    u_x = frozenset([index[(2, 1)]])
    assert after == before - {u_x}


def test_vertical_fold_rejects_bad_configuration():
    f = BipartiteForest.of(3, {10: 3, 11: 3, 1: 10, 2: 11})
    x, y = f.internal_vertices()
    with pytest.raises(ValueError):
        vertical_fold(f, x, y)


def _all_legal_folds(f):
    internal = f.internal_vertices()
    for x in internal:
        for y in internal:
            if x == y:
                continue
            if x < y and f.parent[x - 1] == f.parent[y - 1]:
                yield horizontal_fold(f, x, y)
            j = f.parent[x - 1]
            if j <= f.n and f.parent[j - 1] == y:
                yield vertical_fold(f, x, y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_folding_is_monotone_for_partial_coarsening(n):
    for f in enumerate_bipartite_forests(n):
        if f.internal > 3:
            continue
        original = partial_partition_of(f)
        for folded in _all_legal_folds(f):
            assert is_partial_coarsening(partial_partition_of(folded), original)


def test_enumerate_bipartite_n2():
    index = {pair: k for k, pair in enumerate(x_n_pairs(2))}
    expected = {
        PartialPartition.of(2, [[index[(1, 2)]]]),
        PartialPartition.of(2, [[index[(2, 1)]]]),
    }
    assert set(enumerate_bipartite(2)) == expected


def test_enumerate_bipartite_guard():
    with pytest.raises(ValueError):
        enumerate_bipartite(5)


@pytest.mark.parametrize("n", [2, 3])
def test_object_set_equality(n):
    complex_ = build_gamma_Fn(n)
    objects = set(complex_.category_objects())
    assert set(enumerate_bipartite(n)) == objects


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_forest_partition_is_realised(n):
    realised = set(enumerate_bipartite(n))
    for forest in enumerate_forests(n):
        assert gamma_forest(poset_from_forest(forest)) in realised

import itertools
import random

import pytest

from conftest import all_partial_partitions
from diagcx.partitions import EMPTY_MEET, PartialPartition, bits, is_partial_coarsening, meet, spell, to_mask


def test_canonical_form():
    p = PartialPartition.of(4, [(3, 1), (0, 2)])
    assert p.blocks == ((0, 2), (1, 3))
    assert p.support == {0, 1, 2, 3}


def test_construction_errors():
    with pytest.raises(ValueError):
        PartialPartition.of(3, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        PartialPartition.of(2, [[0, 5]])  # out of range
    with pytest.raises(ValueError):
        PartialPartition(3, (((1, 0)),))  # not canonical
    with pytest.raises(ValueError):
        PartialPartition.of(3, [[]])  # empty block


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_mask_roundtrip(n):
    # one bit per element of the support, so the masks stay as wide as the support, not the ground
    for p in all_partial_partitions(n):
        elements = sorted(p.support)
        bit = {x: i for i, x in enumerate(elements)}
        masks = tuple(to_mask(block, bit) for block in p.blocks)
        assert sum(map(len, map(bits, masks))) == len(elements) and max(masks, default=0) < 1 << len(elements)
        assert PartialPartition(n, spell(masks, elements)) == p


def test_bits_matches_a_bit_by_bit_reference():
    rng = random.Random(3)
    masks = [0, 1, 1 << 2999] + [1 << i for i in range(0, 3000, 97)]
    masks += [sum(1 << i for i in range(3000) if rng.random() < density) for density in (0.9, 0.3, 0.01)]
    for mask in masks:
        assert bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_coarsening_examples():
    p = PartialPartition.of(3, [[0, 1]])
    q = PartialPartition.of(3, [[0], [1], [2]])
    assert is_partial_coarsening(p, q)
    assert is_partial_coarsening(p, p)
    r = PartialPartition.of(3, [[0, 2]])
    s = PartialPartition.of(3, [[0, 1], [2]])
    # brute force: {0,2} is not a union of blocks of s
    unions = set()
    for k in range(len(s.blocks) + 1):
        for combo in itertools.combinations(s.blocks, k):
            unions.add(frozenset(x for b in combo for x in b))
    assert frozenset([0, 2]) not in unions
    assert not is_partial_coarsening(r, s)


def test_coarsening_ground_mismatch():
    with pytest.raises(ValueError):
        is_partial_coarsening(PartialPartition.of(2, [[0]]), PartialPartition.of(3, [[0]]))


@pytest.mark.parametrize("n", [2, 3])
def test_partial_coarsening_is_a_partial_order(n):
    parts = all_partial_partitions(n)
    for p in parts:
        assert is_partial_coarsening(p, p)
    for p in parts:
        for q in parts:
            if p != q:
                assert not (
                    is_partial_coarsening(p, q) and is_partial_coarsening(q, p)
                )
    for p, q, r in itertools.product(parts, repeat=3):
        if is_partial_coarsening(p, q) and is_partial_coarsening(q, r):
            assert is_partial_coarsening(p, r)


def test_meet_idempotent_examples():
    for p in all_partial_partitions(3):
        assert meet(p, p) == p


def test_meet_disjoint_supports_is_empty():
    p = PartialPartition.of(2, [[0]])
    q = PartialPartition.of(2, [[1]])
    assert meet(p, q) is EMPTY_MEET


def test_meet_overlapping_blocks_forced_to_basepoint():
    # elements outside the common support are absorbed; the closure then
    # drags the whole merged class with them
    p = PartialPartition.of(3, [[0, 1]])
    q = PartialPartition.of(3, [[1, 2]])
    assert meet(p, q) is EMPTY_MEET
    # indeed no nonempty partition lies below both
    below_both = [
        r
        for r in all_partial_partitions(3)
        if is_partial_coarsening(r, p) and is_partial_coarsening(r, q)
    ]
    assert below_both == []


def test_meet_respects_partial_supports():
    p = PartialPartition.of(3, [[0, 1], [2]])
    q = PartialPartition.of(3, [[0], [1]])
    assert meet(p, q) == PartialPartition.of(3, [[0, 1]])


def _diagonal_image(p, n):
    """All 0/1 tuples constant on blocks and zero off the support."""
    image = set()
    for values in itertools.product((0, 1), repeat=len(p.blocks)):
        point = [0] * n
        for block, v in zip(p.blocks, values):
            for x in block:
                point[x] = v
        image.add(tuple(point))
    return image


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_meet_matches_image_intersection(n):
    parts = all_partial_partitions(n)
    basepoint = {tuple([0] * n)}
    for p in parts:
        for q in parts:
            m = meet(p, q)
            expected = _diagonal_image(p, n) & _diagonal_image(q, n)
            if m is EMPTY_MEET:
                assert expected == basepoint
            else:
                assert expected == _diagonal_image(m, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_meet_laws(n):
    parts = all_partial_partitions(n)
    for p in parts:
        for q in parts:
            assert meet(p, q) == meet(q, p)
    for p, q, r in itertools.product(parts, repeat=3):
        left = meet(p, q)
        left = left if left is EMPTY_MEET else meet(left, r)
        right = meet(q, r)
        right = right if right is EMPTY_MEET else meet(p, right)
        assert left == right


@pytest.mark.parametrize("n", [2, 3, 4])
def test_meet_is_greatest_lower_bound(n):
    parts = all_partial_partitions(n)
    for p in parts:
        for q in parts:
            m = meet(p, q)
            lower = [
                r
                for r in parts
                if is_partial_coarsening(r, p) and is_partial_coarsening(r, q)
            ]
            if m is EMPTY_MEET:
                assert lower == []
            else:
                assert is_partial_coarsening(m, p) and is_partial_coarsening(m, q)
                for r in lower:
                    assert is_partial_coarsening(r, m)


def test_docstrings():
    import doctest

    import diagcx.partitions as module

    failures, _ = doctest.testmod(module)
    assert failures == 0

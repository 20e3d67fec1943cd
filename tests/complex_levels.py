"""Levels, filtrations and full subcomplexes of diagonal complexes.

The inductive level filters a diagonal complex, and a full subcomplex
restricts it to part of the ground set.  Nothing in the library or the CLI
uses them, so they live beside the tests that check them.
"""

import functools

from diagcx.complexes import DiagonalComplex
from diagcx.partitions import PartialPartition


def levels(complex_, coarse=False):
    """The inductive level of each simplex mask of ``complex_``, as a memoised function: 0 on singletons.

    The plain level recurses through maximal faces U - V, the coarse level
    through the blocks V themselves.
    """

    @functools.cache
    def level(u):
        if u not in complex_.gamma:
            raise ValueError(f"not a simplex: {list(complex_.elements_of(u))}")
        if not u & (u - 1):
            return 0
        return 1 + max(level(b) if coarse else level(u & ~b) for b in complex_.gamma[u])

    return level


def max_level(complex_, coarse=False):
    return max(map(levels(complex_, coarse), complex_.gamma), default=0)


def filtration(complex_, k, coarse=False):
    """The subcomplex of simplices of level at most k, with the same labels."""
    complex_.require_valid()
    level = levels(complex_, coarse)
    gamma = {u: blocks for u, blocks in complex_.gamma.items() if level(u) <= k}
    return DiagonalComplex(complex_.ground_size, complex_.elements, gamma, complex_.labels)


def full_subcomplex(complex_, subset):
    """The full diagonal subcomplex on a subset of the ground set.

    The result lives on the subset, re-indexed in sorted order.
    """
    y = sorted(set(subset))
    rename = {x: k for k, x in enumerate(y)}
    partitions = {
        frozenset(rename[x] for x in u): PartialPartition.of(len(y), [[rename[x] for x in b] for b in part.blocks])
        for u, part in complex_.partitions().items()
        if u <= set(y)
    }
    return DiagonalComplex.of(len(y), partitions)

import itertools

import pytest

from diagcx.bipartite import set_partitions
from diagcx.complexes import DiagonalComplex, Labelling
from diagcx.partitions import PartialPartition


def example_t_complex():
    """Ground {0,1,2}; simplices are the whole set, {0,1} and the singletons.

    The big simplex splits into the block {0,1} and the singleton {2}.
    """
    gamma = {
        frozenset([0]): PartialPartition.of(3, [[0]]),
        frozenset([1]): PartialPartition.of(3, [[1]]),
        frozenset([2]): PartialPartition.of(3, [[2]]),
        frozenset([0, 1]): PartialPartition.of(3, [[0], [1]]),
        frozenset([0, 1, 2]): PartialPartition.of(3, [[0, 1], [2]]),
    }
    return DiagonalComplex(3, gamma)


def example_t_labelling(complex_):
    return Labelling(complex_, [1, 1, 2])


def example_t_improper():
    """The same complex with the extra simplex {0,2}; no longer proper."""
    base = example_t_complex()
    gamma = dict(base.gamma)
    gamma[frozenset([0, 2])] = PartialPartition.of(3, [[0], [2]])
    return DiagonalComplex(3, gamma)


def all_partial_partitions(n, include_empty=False):
    """Every partial partition of {0..n-1}, by choosing a support and splitting it."""
    out = []
    for r in range(n + 1):
        for support in itertools.combinations(range(n), r):
            for blocks in set_partitions(list(support)):
                if blocks or include_empty:
                    out.append(PartialPartition.of(n, blocks))
    return out


@pytest.fixture
def example_t():
    complex_ = example_t_complex()
    return complex_, example_t_labelling(complex_)

import itertools
import json
import signal

import pytest

from diagcx.bipartite import set_partitions
from diagcx.complexes import DiagonalComplex, Labelling
from diagcx.partitions import PartialPartition
from diagcx.series import GradedModuleSeries


@pytest.fixture(autouse=True)
def _deadline():
    """Fail every test, instead of hanging the suite, when it runs for 30 s.

    A reduction or a subgroup closure that does not terminate then fails its test.
    """

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def canonical_json(text):
    """The sorted-keys, compact encoding of the JSON document ``text``, ended by a newline.

    Every ``--format json`` output is its own canonical encoding, so rows the
    CLI spells by hand cannot drift in key order or spacing.
    """
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def term_product(truncation, factors, exponents):
    """The product of factors[k].reduced()^exponents[k], one multiplication per factor.

    The reference for ``series._monomial_modules``: each monomial is
    multiplied out afresh, with no memo.
    """
    term = GradedModuleSeries.unit(truncation)
    for factor, e in zip(factors, exponents):
        for _ in range(e):
            term = term.mul(factor.reduced())
    return term


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
    return DiagonalComplex.of(3, gamma)


def example_t_labelling(complex_):
    return Labelling(complex_, [1, 1, 2])


def example_t_improper():
    """The same complex with the extra simplex {0,2}; no longer proper."""
    base = example_t_complex()
    gamma = base.partitions()
    gamma[frozenset([0, 2])] = PartialPartition.of(3, [[0], [2]])
    return DiagonalComplex.of(3, gamma)


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

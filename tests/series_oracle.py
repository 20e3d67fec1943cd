"""Series arithmetic degree by degree, the reference for ``GradedModuleSeries``.

The library stores a series as one count polynomial per summand kind and
writes the Kunneth rule once, in ``GradedModuleSeries.mul``.  These
functions compute the same operations on the per-degree ``AbelianGroup``
view instead: direct sums, tensor products and Tor of single groups, and
a product that places the tensor part in equal degree and the Tor part one
degree up.
"""

import itertools
from collections import Counter

from diagcx.series import AbelianGroup, GradedModuleSeries


def of_counts(free_rank, counts):
    """The group with the given {(p, e): count} torsion; zero counts dropped."""
    return AbelianGroup(free_rank, tuple(sorted((key, c) for key, c in counts.items() if c)))


def direct_sum(a, b):
    return of_counts(a.free_rank + b.free_rank, Counter(dict(a.torsion)) + Counter(dict(b.torsion)))


def tor(a, b):
    """Tor_1 over Z: Z/p^i and Z/p^j give Z/p^min(i,j); other pairs give 0."""
    counts = Counter()
    for ((p, i), x), ((q, j), y) in itertools.product(a.torsion, b.torsion):
        if p == q:
            counts[(p, min(i, j))] += x * y
    return of_counts(0, counts)


def tensor(a, b):
    """Tensor product over Z: torsion times the other free rank, plus the tor part."""
    counts = Counter()
    for x, y in ((a, b), (b, a)):
        for key, c in x.torsion:
            counts[key] += c * y.free_rank
    return direct_sum(of_counts(a.free_rank * b.free_rank, counts), tor(a, b))


def scale_group(a, k):
    if k < 0:
        raise ValueError("scale factor must be nonnegative")
    return of_counts(k * a.free_rank, {key: k * c for key, c in a.torsion})


def add(s, t):
    s._check(t)
    return GradedModuleSeries.of(s.truncation, map(direct_sum, s.coeffs, t.coeffs))


def mul(s, t):
    """The Kunneth product: tensor in equal degree, Tor one degree up."""
    s._check(t)
    out = [AbelianGroup.free(0) for _ in range(s.truncation + 1)]
    for (i, a), (j, b) in itertools.product(enumerate(s.coeffs), enumerate(t.coeffs)):
        if i + j <= s.truncation:
            out[i + j] = direct_sum(out[i + j], tensor(a, b))
        if i + j + 1 <= s.truncation:
            out[i + j + 1] = direct_sum(out[i + j + 1], tor(a, b))
    return GradedModuleSeries.of(s.truncation, out)


def scale(s, k):
    return GradedModuleSeries.of(s.truncation, [scale_group(c, k) for c in s.coeffs])


def reduced(s):
    head, *rest = s.coeffs
    if head.free_rank < 1:
        raise ValueError("degree-0 coefficient has no Z summand to remove")
    return GradedModuleSeries.of(s.truncation, [AbelianGroup(head.free_rank - 1, head.torsion), *rest])


def power(s, k):
    result = GradedModuleSeries.unit(s.truncation)
    for _ in range(k):
        result = mul(result, s)
    return result

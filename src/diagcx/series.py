"""Hilbert-Poincare polynomials and graded-module series.

Two layers of generating functions live here.  MultiPoly is a table of
monomial counts, the terms of an integer polynomial in variables indexed
by labels; the polynomial of a labelled diagonal complex counts its
simplices by block-label monomial (no constant term).
GradedModuleSeries is a truncated power series of abelian groups, stored
as one polynomial of summand counts per summand kind (Z, or Z/p^e);
AbelianGroup is the view of one degree.  The product follows the
Kunneth rule, one convolution per pair of kinds:

    Z/p^i . Z/q^j = (1 + t) Z/p^min(i,j)   if p = q, and 0 otherwise,

with Z as the unit.  Substituting reduced factor series into a complex's
polynomial and adding the unit gives the homology series of the complex
product.
"""

import collections
import functools
import itertools
import math
import operator

SERIES_JSON_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["free", "torsion"],
        "properties": {
            "free": {"type": "integer", "minimum": 0},
            "torsion": {"type": "array", "items": {"type": "string"}},
        },
    },
}


# Miller-Rabin on the primes up to 37 is exact below this bound.
MR_EXACT_BELOW = 318665857834031151167461
# Largest trial divisor tried when factoring; past it, factoring is refused.
TRIAL_BOUND = 1 << 20


def _factor_prime_powers(m):
    """Prime-power decomposition of m >= 2 as a sorted tuple of (p, e).

    Trial division stops once the cofactor is prime.  An m that still
    has a composite (or unprovable) cofactor after trial divisors up to
    TRIAL_BOUND is refused, so factoring always ends quickly.
    """
    original, out, p = m, [], 2
    cofactor_is_prime = m < MR_EXACT_BELOW and _is_prime(m)
    while not cofactor_is_prime and p * p <= m:
        if p > TRIAL_BOUND:
            raise ValueError(f"cannot factor {original}: it needs trial division past {TRIAL_BOUND}")
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
            cofactor_is_prime = m < MR_EXACT_BELOW and _is_prime(m)
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _is_prime(p):
    """Exact primality.

    Miller-Rabin on the primes up to 37 decides every p below
    MR_EXACT_BELOW; larger p is factored, within TRIAL_BOUND.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    if p >= MR_EXACT_BELOW:
        return _factor_prime_powers(p) == ((p, 1),)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a is a witness to compositeness when a^d != 1 and a^(d 2^r) != -1 for every r < s
    return not any(
        pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s)) for a in bases
    )


class AbelianGroup(collections.namedtuple("AbelianGroup", "free_rank torsion", defaults=((),))):
    """A finitely generated abelian group: free rank plus prime-power torsion.

    Torsion is a tuple of ((prime, exponent), count) entries, one per
    distinct cyclic summand Z/prime^exponent, with keys strictly
    increasing and every count positive; so equal groups compare equal.
    A group is the view of one degree of a GradedModuleSeries, which does the arithmetic.

    >>> AbelianGroup.of_order(12)
    AbelianGroup(free_rank=0, torsion=(((2, 2), 1), ((3, 1), 1)))
    >>> print(AbelianGroup(1, (((2, 1), 3), ((2, 2), 1))))
    Z + (Z/2)^3 + Z/4
    """

    __slots__ = ()

    def __new__(cls, free_rank, torsion=()):
        self = super().__new__(cls, free_rank, torsion)
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        try:  # an entry that does not unpack as ((p, e), count) raises here
            keys = [(p, e) for (p, e), c in self.torsion
                    if all(isinstance(v, int) and v >= 1 for v in (p - 1, e, c))]
        except (TypeError, ValueError):
            keys = None
        if not isinstance(self.torsion, tuple) or keys is None or len(keys) < len(self.torsion):
            raise ValueError("torsion entries must be ((p, e), count) with p >= 2, e >= 1, count >= 1")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("torsion keys must be strictly increasing")
        return self

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic_prime_power(cls, p, e=1):
        return cls(0, (((p, e), 1),))

    @classmethod
    def of_order(cls, m):
        """The cyclic group Z/m split into prime-power summands."""
        if m == 0:
            return cls.free(1)
        if m == 1:
            return cls.zero()
        return cls(0, tuple((key, 1) for key in _factor_prime_powers(m)))

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def render(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for value, mult in sorted((p**e, c) for (p, e), c in self.torsion):
            parts.append(f"Z/{value}" if mult == 1 else f"(Z/{value})^{mult}")
        return " + ".join(parts)

    def to_json(self):
        # the only place that lists the summands one by one
        torsion = [f"{p}^{e}" for (p, e), c in self.torsion for _ in range(c)]
        return {"free": self.free_rank, "torsion": torsion}

    def __str__(self):
        return self.render()


# The kind of the summand Z; Z/p^e has the kind (p, e), and FREE sorts first.
FREE = (0, 0)


class GradedModuleSeries(collections.namedtuple("GradedModuleSeries", "truncation terms")):
    """A power series truncated at a fixed degree with abelian group coefficients.

    ``terms`` is a sorted tuple of (kind, counts) pairs, one per summand
    kind that occurs: the kind is FREE for Z or (p, e) for Z/p^e, and
    counts[d] is the number of such summands in degree d.  Every counts
    tuple has truncation + 1 entries and is not all zero, so equal series
    compare equal.  ``coeffs`` is the view by degree.

    >>> s = cyclic_classifying_series(12, 3)
    >>> s.terms
    (((0, 0), (1, 0, 0, 0)), ((2, 2), (0, 1, 0, 1)), ((3, 1), (0, 1, 0, 1)))
    >>> print(s.mul(s))
    1 + ((Z/3)^2 + (Z/4)^2) t + (Z/3 + Z/4) t^2 + ((Z/3)^3 + (Z/4)^3) t^3
    """

    __slots__ = ()

    def __new__(cls, truncation, terms):
        self = super().__new__(cls, truncation, terms)
        kinds = [kind for kind, _ in self.terms]
        if any(a >= b for a, b in zip(kinds, kinds[1:])):
            raise ValueError("summand kinds must be strictly increasing")
        if any(len(c) != self.truncation + 1 or not any(c) or min(c) < 0 for _, c in self.terms):
            raise ValueError("each kind needs truncation + 1 nonnegative counts, not all zero")
        return self

    @classmethod
    def _of_table(cls, truncation, table):
        """The series with table[kind][d] summands of each kind in degree d; lists are padded or cut."""
        size = truncation + 1
        padded = {kind: tuple(counts[:size]) + (0,) * (size - len(counts)) for kind, counts in table.items()}
        return cls(truncation, tuple(sorted((kind, c) for kind, c in padded.items() if any(c))))

    @classmethod
    def of(cls, truncation, coeffs):
        """The series with the given AbelianGroup coefficients, padded with zeros or cut."""
        table = {}
        for degree, coeff in enumerate(itertools.islice(coeffs, truncation + 1)):
            for kind, count in ((FREE, coeff.free_rank), *coeff.torsion):
                table.setdefault(kind, [0] * (truncation + 1))[degree] = count
        return cls._of_table(truncation, table)

    @classmethod
    def unit(cls, truncation):
        return cls._of_table(truncation, {FREE: [1]})

    @classmethod
    def zero(cls, truncation):
        return cls(truncation, ())

    @property
    def coeffs(self):
        """The AbelianGroup of each degree, built afresh on every access."""
        free = dict(self.terms).get(FREE, (0,) * (self.truncation + 1))
        torsion = [(kind, counts) for kind, counts in self.terms if kind != FREE]
        return tuple(
            AbelianGroup(rank, tuple((kind, counts[d]) for kind, counts in torsion if counts[d]))
            for d, rank in enumerate(free)
        )

    def _check(self, other):
        if self.truncation != other.truncation:
            raise ValueError("mixed truncations")

    def add(self, other):
        self._check(other)
        table = dict(self.terms)
        zeros = (0,) * (self.truncation + 1)
        for kind, counts in other.terms:
            table[kind] = [a + b for a, b in zip(table.get(kind, zeros), counts)]
        return GradedModuleSeries._of_table(self.truncation, table)

    def mul(self, other):
        """The Kunneth product, the one place where its rule is written.

        Z times a kind gives that kind; Z/p^i times Z/p^j gives Z/p^min(i,j) in
        the same degree (tensor) and one degree up (Tor); other primes give nothing.
        """
        self._check(other)
        size = self.truncation + 1
        table = {}
        for ka, a in self.terms:
            for kb, b in other.terms:
                if FREE in (ka, kb):
                    kind, shifts = max(ka, kb), (0,)
                elif ka[0] == kb[0]:
                    kind, shifts = min(ka, kb), (0, 1)
                else:
                    continue
                # the count polynomials' product, cut at the truncation
                product = [sum(map(operator.mul, a[: d + 1], b[d::-1])) for d in range(size)]
                counts = table.setdefault(kind, [0] * size)
                for shift in shifts:
                    counts[shift:] = map(operator.add, counts[shift:], product)
        return GradedModuleSeries._of_table(self.truncation, table)

    def pow(self, k):
        """The k-th power in k - 1 products; the unit for k = 0."""
        if k < 0:
            raise ValueError("negative power")
        return functools.reduce(GradedModuleSeries.mul, [self] * k) if k else GradedModuleSeries.unit(self.truncation)

    def scale(self, k):
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        table = {kind: [k * c for c in counts] for kind, counts in self.terms}
        return GradedModuleSeries._of_table(self.truncation, table)

    def reduced(self):
        """Drop one Z from degree zero (the reduced series of a connected space)."""
        table = {kind: list(counts) for kind, counts in self.terms}
        if table.get(FREE, [0])[0] < 1:
            raise ValueError("degree-0 coefficient has no Z summand to remove")
        table[FREE][0] -= 1
        return GradedModuleSeries._of_table(self.truncation, table)

    def render(self):
        parts = []
        for degree, coeff in enumerate(self.coeffs):
            if coeff.is_zero:
                continue
            t_part = "" if degree == 0 else ("t" if degree == 1 else f"t^{degree}")
            if coeff.torsion:
                body = coeff.render()
                body = f"({body}) " if " + " in body else f"{body} "
            else:  # a free rank is written as an integer coefficient, 1 t as t
                body = "" if coeff.free_rank == 1 and t_part else str(coeff.free_rank)
            parts.append(f"{body}{t_part}".rstrip())
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __str__(self):
        return self.render()


def circle_series(truncation):
    """Homology series of the circle: 1 + t."""
    return GradedModuleSeries._of_table(truncation, {FREE: [1, 1]})


def cyclic_classifying_series(m, truncation):
    """Homology series of B(Z/m): Z in degree 0, Z/m in odd degrees."""
    if m < 2:
        raise ValueError("m must be at least 2")
    odd = [d % 2 for d in range(truncation + 1)]
    return GradedModuleSeries._of_table(truncation, {FREE: [1], **dict.fromkeys(_factor_prime_powers(m), odd)})


# -- monomial-count tables ----------------------------------------------


class MultiPoly(collections.namedtuple("MultiPoly", "variables terms")):
    """The terms of an integer polynomial in a fixed ordered tuple of variables."""

    # terms: sorted tuple of (exponent-vector, coefficient), no zero coefficients
    __slots__ = ()

    @classmethod
    def of(cls, variables, term_map):
        variables = tuple(variables)
        terms = tuple(sorted((tuple(e), c) for e, c in term_map.items() if c != 0))
        for exponents, _ in terms:
            if len(exponents) != len(variables) or any(e < 0 for e in exponents):
                raise ValueError("bad exponent vector")
        return cls(variables, terms)


def hilbert_polynomial(complex_):
    """Sum of block-label monomials over all simplices (no constant term)."""
    complex_.require_valid()
    variables = tuple(sorted(set(complex_.require_labels())))
    index = {v: i for i, v in enumerate(variables)}
    terms = {}
    for u in complex_.gamma:
        exponents = [0] * len(variables)
        for label, e in complex_.monomial(u).items():
            exponents[index[label]] += e
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly.of(variables, terms)


def forest_hilbert_closed_form(n):
    """(1 + x_1 + ... + x_n)^(n-1), the word-count closed form, read off Prüfer words.

    A planted forest on [n] is a word of n - 1 letters over 0..n, and a
    letter v >= 1 is one child of v.  So the coefficient of x^e counts the
    words with e_v letters v: the multinomial (n-1)! / prod_a (count of a)!,
    letter 0 included.  The word of n - 1 zeros, the forest with no edges,
    gives the constant term; the polynomial of the forest complex omits it,
    so the two differ by exactly 1.

    >>> forest_hilbert_closed_form(2).terms
    (((0, 0), 1), ((0, 1), 1), ((1, 0), 1))
    >>> dict(forest_hilbert_closed_form(3).terms)[(1, 1, 0)]
    2
    """
    terms = {}
    for letters in itertools.combinations_with_replacement(range(n + 1), n - 1):
        counts = [letters.count(a) for a in range(n + 1)]
        terms[tuple(counts[1:])] = math.factorial(n - 1) // math.prod(map(math.factorial, counts))
    return MultiPoly.of(range(1, n + 1), terms)


def _reduced_factors(factors, truncation=None, others=()):
    """The one truncation of ``factors``, ``others`` and ``truncation`` (if given); the reduced ``factors``."""
    truncations = {s.truncation for s in itertools.chain(factors, others)}
    if truncation is not None:
        truncations.add(truncation)
    if len(truncations) != 1:
        raise ValueError("mixed truncations" if truncations else "no variables: pass an explicit truncation")
    return truncations.pop(), [s.reduced() for s in factors]


def _monomial_modules(truncation, reduced, vectors):
    """A dict from each exponent vector e, and each vector it is built from, to prod_k reduced[k]^e[k].

    The module of e is that of e with its last nonzero exponent lowered by one, times that
    factor, so each distinct vector costs one product.  A loop: degrees may pass the recursion limit.

    >>> modules = _monomial_modules(3, [circle_series(3).reduced()], [(2,)])
    >>> sorted(modules), str(modules[(2,)])
    ([(0,), (1,), (2,)], 't^2')
    """
    memo = {(0,) * len(reduced): GradedModuleSeries.unit(truncation)}
    for vector in vectors:
        chain = []
        while vector not in memo:
            k = max(i for i, e in enumerate(vector) if e)
            chain.append((vector, k))
            vector = vector[:k] + (vector[k] - 1,) + vector[k + 1 :]
        for upper, k in reversed(chain):
            memo[upper], vector = memo[vector].mul(reduced[k]), upper
    return memo


def substitute(poly, assignment, truncation=None):
    """Evaluate a polynomial at (y_v - 1) in the Tor ring and add the unit.

    ``assignment`` maps each variable to the homology series of its
    factor, all with one truncation; subtraction of 1 is realised by
    taking reduced series, which keeps everything inside the semiring.
    Each distinct monomial is evaluated once.  ``truncation`` is only
    needed when the polynomial has no variables at all.  On the Hilbert
    polynomial of Γ(F_n) this is the oracle for ``series fr``, which runs
    ``free_product_series(...).pow(n - 1)``.
    """
    for var in poly.variables:
        if var not in assignment:
            raise ValueError(f"no series assigned to variable {var}")
    factors = [assignment[var] for var in poly.variables]
    truncation, reduced = _reduced_factors(factors, truncation, assignment.values())
    modules = _monomial_modules(truncation, reduced, (e for e, _ in poly.terms))
    terms = (modules[exponents].scale(coeff) for exponents, coeff in poly.terms)
    return functools.reduce(GradedModuleSeries.add, terms, GradedModuleSeries.unit(truncation))


def free_product_series(factors):
    """Homology series of a wedge: 1 + sum of reduced factor series.

    Its (n-1)-th power is what ``series fr`` prints; ``substitute`` on the
    Hilbert polynomial of Γ(F_n) is the oracle that the tests compare it with.
    """
    if not factors:
        raise ValueError("need at least one factor")
    truncation, reduced = _reduced_factors(factors)
    return functools.reduce(GradedModuleSeries.add, reduced, GradedModuleSeries.unit(truncation))


# -- closed forms for the forest complex --------------------------------


def series_Wh_free(n):
    """Coefficients of (1 + t n)^(n-1) and the Euler characteristic (1-n)^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [math.comb(n - 1, k) * n**k for k in range(n)]
    chi = (1 - n) ** (n - 1)
    return coeffs, chi


def series_Wh_Zp(n, p, truncation):
    """Degree-by-degree expansion of 1 + y/(1+t) * ((1 + nt/(1-t))^(n-1) - 1).

    The y coefficient counts Z/p summands; the constant term is the
    single Z in degree zero.  Since (t/(1-t))^k has degree-d coefficient
    C(d-1, k-1), the power minus one has degree-d coefficient
    sum_k C(n-1, k) n^k C(d-1, k-1); dividing by 1+t subtracts the
    previous count.  The work is O(truncation^2) for every n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not _is_prime(p):
        raise ValueError("p must be a prime >= 2")
    weights = [math.comb(n - 1, k) * n**k for k in range(1, min(truncation, n - 1) + 1)]
    row = [1]  # C(d-1, k-1) for k = 1..d
    counts = [0]
    for _ in range(truncation):
        counts.append(sum(w * c for w, c in zip(weights, row)) - counts[-1])
        if counts[-1] < 0:
            raise ValueError("negative summand count; series is corrupt")
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return GradedModuleSeries._of_table(truncation, {FREE: [1], (p, 1): counts})

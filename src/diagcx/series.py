"""Hilbert-Poincare polynomials and graded-module series.

Two layers of generating functions live here.  MultiPoly is an honest
integer polynomial in variables indexed by labels; the polynomial of a
labelled diagonal complex sums the block-label monomials over all
simplices (no constant term).  GradedModuleSeries is a truncated power
series whose degree-k coefficient is a finitely generated abelian group;
multiplication follows the Kunneth rule, so cyclic summands obey

    Z/p^i . Z/q^j = (1 + t) Z/p^min(i,j)   if p = q, and 0 otherwise,

with Z as the unit.  Substituting reduced factor series into a complex's
polynomial and adding the unit gives the homology series of the complex
product.
"""

import itertools
import math
from dataclasses import dataclass

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


def _factor_prime_powers(m):
    """Prime-power decomposition of m >= 2 as a sorted tuple of (p, e)."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(sorted(out))


def _is_prime(p):
    """Exact primality.

    Miller-Rabin on the primes up to 37 decides every p below
    318665857834031151167461 without trial division up to sqrt(p);
    larger p is factored.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    if p >= 318665857834031151167461:
        return _factor_prime_powers(p) == ((p, 1),)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a is a witness to compositeness when a^d != 1 and a^(d 2^r) != -1 for every r < s
    return not any(
        pow(a, d, p) != 1 and all(pow(a, d << r, p) != p - 1 for r in range(s)) for a in bases
    )


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: free rank plus prime-power torsion.

    Torsion is a sorted tuple of (prime, exponent) pairs with multiplicity.

    >>> AbelianGroup.of_order(12)
    AbelianGroup(free_rank=0, torsion=((2, 2), (3, 1)))
    >>> print(AbelianGroup.free(1).tensor(AbelianGroup.of_order(4)))
    Z/4
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if list(self.torsion) != sorted(self.torsion):
            raise ValueError("torsion must be sorted")
        for p, e in self.torsion:
            if p < 2 or e < 1:
                raise ValueError("torsion entries must be prime powers >= 2")

    @classmethod
    def zero(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic_prime_power(cls, p, e=1):
        return cls(0, ((p, e),))

    @classmethod
    def of_order(cls, m):
        """The cyclic group Z/m split into prime-power summands."""
        if m == 0:
            return cls.free(1)
        if m == 1:
            return cls.zero()
        return cls(0, _factor_prime_powers(m))

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other):
        return AbelianGroup(
            self.free_rank + other.free_rank, tuple(sorted(self.torsion + other.torsion))
        )

    def tensor(self, other):
        """Tensor product over Z."""
        torsion = []
        torsion.extend(other.free_rank * list(self.torsion))
        torsion.extend(self.free_rank * list(other.torsion))
        for (p, i), (q, j) in itertools.product(self.torsion, other.torsion):
            if p == q:
                torsion.append((p, min(i, j)))
        return AbelianGroup(self.free_rank * other.free_rank, tuple(sorted(torsion)))

    def tor(self, other):
        """Tor_1 over Z; only torsion pairs contribute."""
        torsion = []
        for (p, i), (q, j) in itertools.product(self.torsion, other.torsion):
            if p == q:
                torsion.append((p, min(i, j)))
        return AbelianGroup(0, tuple(sorted(torsion)))

    def scale(self, k):
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return AbelianGroup(k * self.free_rank, tuple(sorted(k * list(self.torsion))))

    def render(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        counts = {}
        for p, e in self.torsion:
            counts[p**e] = counts.get(p**e, 0) + 1
        for value in sorted(counts):
            mult = counts[value]
            parts.append(f"Z/{value}" if mult == 1 else f"(Z/{value})^{mult}")
        return " + ".join(parts)

    def to_json(self):
        return {"free": self.free_rank, "torsion": [f"{p}^{e}" for p, e in self.torsion]}

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class GradedModuleSeries:
    """A power series truncated at a fixed degree with AbelianGroup coefficients."""

    truncation: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coefficient count must match truncation")

    @classmethod
    def of(cls, truncation, coeffs):
        coeffs = list(coeffs)
        coeffs += [AbelianGroup.zero()] * (truncation + 1 - len(coeffs))
        return cls(truncation, tuple(coeffs[: truncation + 1]))

    @classmethod
    def unit(cls, truncation):
        return cls.of(truncation, [AbelianGroup.free(1)])

    @classmethod
    def zero(cls, truncation):
        return cls.of(truncation, [])

    def _check(self, other):
        if self.truncation != other.truncation:
            raise ValueError("mixed truncations")

    def add(self, other):
        self._check(other)
        return GradedModuleSeries(
            self.truncation,
            tuple(a.direct_sum(b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __add__(self, other):
        return self.add(other)

    def mul(self, other):
        """The Kunneth product: tensor in equal degree, Tor one degree up."""
        self._check(other)
        out = [AbelianGroup.zero() for _ in range(self.truncation + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                if i + j <= self.truncation:
                    out[i + j] = out[i + j].direct_sum(a.tensor(b))
                if i + j + 1 <= self.truncation:
                    out[i + j + 1] = out[i + j + 1].direct_sum(a.tor(b))
        return GradedModuleSeries(self.truncation, tuple(out))

    def __mul__(self, other):
        return self.mul(other)

    def pow(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = GradedModuleSeries.unit(self.truncation)
        for _ in range(k):
            result = result.mul(self)
        return result

    def scale(self, k):
        return GradedModuleSeries(self.truncation, tuple(c.scale(k) for c in self.coeffs))

    def reduced(self):
        """Drop one Z from degree zero (the reduced series of a connected space)."""
        head = self.coeffs[0]
        if head.free_rank < 1:
            raise ValueError("degree-0 coefficient has no Z summand to remove")
        head = AbelianGroup(head.free_rank - 1, head.torsion)
        return GradedModuleSeries(self.truncation, (head,) + self.coeffs[1:])

    def render(self):
        parts = []
        for degree, coeff in enumerate(self.coeffs):
            if coeff.is_zero:
                continue
            t_part = "" if degree == 0 else ("t" if degree == 1 else f"t^{degree}")
            if coeff.torsion:
                body = coeff.render()
                if " + " in body:
                    body = f"({body})"
                parts.append(f"{body} {t_part}".rstrip())
            else:
                r = coeff.free_rank
                if not t_part:
                    parts.append(str(r))
                else:
                    parts.append(t_part if r == 1 else f"{r}{t_part}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __str__(self):
        return self.render()


def circle_series(truncation):
    """Homology series of the circle: 1 + t."""
    return GradedModuleSeries.of(truncation, [AbelianGroup.free(1), AbelianGroup.free(1)])


def cyclic_classifying_series(m, truncation):
    """Homology series of B(Z/m): Z in degree 0, Z/m in odd degrees."""
    if m < 2:
        raise ValueError("m must be at least 2")
    coeffs = [AbelianGroup.free(1)]
    for degree in range(1, truncation + 1):
        coeffs.append(AbelianGroup.of_order(m) if degree % 2 == 1 else AbelianGroup.zero())
    return GradedModuleSeries.of(truncation, coeffs)


# -- integer polynomials ------------------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """An integer polynomial in a fixed ordered tuple of variables."""

    variables: tuple
    terms: tuple  # sorted tuple of (exponent-vector, coefficient)

    @classmethod
    def of(cls, variables, term_map):
        variables = tuple(variables)
        terms = tuple(sorted((tuple(e), c) for e, c in term_map.items() if c != 0))
        for exponents, _ in terms:
            if len(exponents) != len(variables) or any(e < 0 for e in exponents):
                raise ValueError("bad exponent vector")
        return cls(variables, terms)

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls.of(variables, {tuple([0] * len(variables)): value})

    @classmethod
    def variable(cls, variables, var):
        variables = tuple(variables)
        exponents = [0] * len(variables)
        exponents[variables.index(var)] = 1
        return cls.of(variables, {tuple(exponents): 1})

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("mixed variable sets")

    def add(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms:
            terms[e] = terms.get(e, 0) + c
        return MultiPoly.of(self.variables, terms)

    def __add__(self, other):
        return self.add(other)

    def mul(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly.of(self.variables, terms)

    def __mul__(self, other):
        return self.mul(other)

    def pow(self, k):
        result = MultiPoly.constant(self.variables, 1)
        for _ in range(k):
            result = result.mul(self)
        return result

    def coefficient(self, exponents):
        return dict(self.terms).get(tuple(exponents), 0)

    def evaluate_int(self, values):
        total = 0
        for exponents, coeff in self.terms:
            term = coeff
            for var, e in zip(self.variables, exponents):
                term *= values[var] ** e
            total += term
        return total

    def render(self, prefix="x"):
        if not self.terms:
            return "0"
        parts = []
        for exponents, coeff in self.terms:
            factors = []
            for var, e in zip(self.variables, exponents):
                if e == 1:
                    factors.append(f"{prefix}_{var}")
                elif e > 1:
                    factors.append(f"{prefix}_{var}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.render()


def hilbert_polynomial(complex_, labelling):
    """Sum of block-label monomials over all simplices (no constant term)."""
    report = complex_.validate()
    if not report.ok:
        raise ValueError("invalid diagonal complex")
    variables = labelling.label_set
    index = {v: i for i, v in enumerate(variables)}
    terms = {}
    for u in complex_.simplices:
        exponents = [0] * len(variables)
        for label, e in complex_.monomial(labelling, u).items():
            exponents[index[label]] += e
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly.of(variables, terms)


def forest_hilbert_closed_form(n):
    """(1 + x_1 + ... + x_n)^(n-1), the word-count closed form.

    Includes the constant term contributed by the empty word; the
    polynomial of the forest complex itself omits it, so the two sides
    differ by exactly 1.
    """
    variables = tuple(range(1, n + 1))
    base = MultiPoly.constant(variables, 1)
    for v in variables:
        base = base.add(MultiPoly.variable(variables, v))
    return base.pow(n - 1)


def substitute(poly, assignment, truncation=None):
    """Evaluate a polynomial at (y_v - 1) in the Tor ring and add the unit.

    ``assignment`` maps each variable to the homology series of its
    factor; subtraction of 1 is realised by taking reduced series, which
    keeps everything inside the semiring.  ``truncation`` is only needed
    when the polynomial has no variables at all.
    """
    truncations = {s.truncation for s in assignment.values()}
    if truncation is not None:
        truncations.add(truncation)
    if len(truncations) != 1:
        raise ValueError("mixed truncations in assignment" if truncations else
                         "no variables: pass an explicit truncation")
    truncation = truncations.pop()
    reduced = {}
    for var in poly.variables:
        if var not in assignment:
            raise ValueError(f"no series assigned to variable {var}")
        reduced[var] = assignment[var].reduced()
    total = GradedModuleSeries.unit(truncation)
    for exponents, coeff in poly.terms:
        term = GradedModuleSeries.unit(truncation)
        for var, e in zip(poly.variables, exponents):
            for _ in range(e):
                term = term.mul(reduced[var])
        total = total.add(term.scale(coeff))
    return total


def free_product_series(factors):
    """Homology series of a wedge: 1 + sum of reduced factor series."""
    if not factors:
        raise ValueError("need at least one factor")
    truncations = {s.truncation for s in factors}
    if len(truncations) != 1:
        raise ValueError("mixed truncations")
    total = GradedModuleSeries.unit(truncations.pop())
    for s in factors:
        total = total.add(s.reduced())
    return total


# -- closed forms for the forest complex --------------------------------


def series_Wh_free(n):
    """Coefficients of (1 + t n)^(n-1) and the Euler characteristic (1-n)^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [math.comb(n - 1, k) * n**k for k in range(n)]
    chi = (1 - n) ** (n - 1)
    return coeffs, chi


def render_poly_in_t(coeffs):
    parts = []
    for degree, c in enumerate(coeffs):
        if c == 0:
            continue
        if degree == 0:
            parts.append(str(c))
        elif degree == 1:
            parts.append("t" if c == 1 else f"{c}t")
        else:
            parts.append(f"t^{degree}" if c == 1 else f"{c}t^{degree}")
    return " + ".join(parts) if parts else "0"


def _poly_mul_trunc(a, b, d):
    out = [0] * (d + 1)
    for i, x in enumerate(a):
        if x == 0 or i > d:
            continue
        for j, y in enumerate(b):
            if i + j > d:
                break
            out[i + j] += x * y
    return out


def _poly_pow_trunc(a, k, d):
    out = [1] + [0] * d
    for _ in range(k):
        out = _poly_mul_trunc(out, a, d)
    return out


def _poly_div_trunc(a, b, d):
    if b[0] == 0:
        raise ValueError("divisor must be a unit")
    out = [0] * (d + 1)
    rem = list(a) + [0] * (d + 1 - len(a))
    for i in range(d + 1):
        q, r = divmod(rem[i], b[0])
        if r:
            raise ValueError("non-integral division")
        out[i] = q
        for j in range(1, min(len(b), d + 1 - i)):
            rem[i + j] -= q * b[j]
    return out


def series_Wh_Zp(n, p, truncation):
    """Degree-by-degree expansion of 1 + y/(1+t) * ((1 + nt/(1-t))^(n-1) - 1).

    The y coefficient counts Z/p summands; the constant term is the
    single Z in degree zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not _is_prime(p):
        raise ValueError("p must be a prime >= 2")
    d = truncation
    base = [1] + [n] * d  # 1 + nt/(1-t)
    powered = _poly_pow_trunc(base, n - 1, d)
    powered[0] -= 1
    counts = _poly_div_trunc(powered, [1, 1], d)
    coeffs = [AbelianGroup.free(1)]
    for degree in range(1, d + 1):
        c = counts[degree]
        if c < 0:
            raise ValueError("negative summand count; series is corrupt")
        coeffs.append(AbelianGroup(0, ((p, 1),) * c))
    return GradedModuleSeries.of(d, coeffs)

import collections
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from conftest import example_t_labelled, term_product
from diagcx.forests import build_gamma_Fn
from diagcx.series import (
    FREE,
    TRIAL_BOUND,
    AbelianGroup,
    GradedModuleSeries,
    MultiPoly,
    circle_series,
    cyclic_classifying_series,
    forest_hilbert_closed_form,
    free_product_series,
    hilbert_polynomial,
    _factor_prime_powers,
    _is_prime,
    series_Wh_Zp,
    series_Wh_free,
    substitute,
)


# -- abelian groups -----------------------------------------------------------


def test_abelian_group_basics():
    assert AbelianGroup.of_order(12) == AbelianGroup(0, (((2, 2), 1), ((3, 1), 1)))
    assert AbelianGroup.of_order(1).is_zero
    assert AbelianGroup.of_order(0) == AbelianGroup.free(1)
    assert AbelianGroup.free(2).render() == "Z^2"
    assert AbelianGroup(1, (((2, 1), 2),)).render() == "Z + (Z/2)^2"


@pytest.mark.parametrize(
    "torsion",
    [
        (((3, 1), 1), ((2, 1), 1)),  # keys out of order
        (((2, 1), 1), ((2, 1), 2)),  # a repeated key
        (((2, 1), 0),),  # a zero count
        (((1, 1), 1),),  # p < 2
        (((2, 0), 1),),  # e < 1
        ((2, 1),),  # one entry per summand, without counts
        (((2, 1), "1"),),
        (((2, 1, 1), 1),),
        [((2, 1), 1)],
    ],
)
def test_malformed_torsion_is_a_value_error(torsion):
    with pytest.raises(ValueError):
        AbelianGroup(0, torsion)


def test_torsion_is_stored_as_counts():
    # one entry per distinct summand, however many summands there are
    s = series_Wh_Zp(6, 5, 12)
    assert len(s.coeffs[12].torsion) == 1
    assert s.coeffs[12].torsion == (((5, 1), 2237760),)
    # only to_json lists the summands one by one
    assert s.coeffs[2].to_json() == {"free": 0, "torsion": ["5^1"] * s.coeffs[2].torsion[0][1]}
    # the series holds one count polynomial per summand kind
    assert [kind for kind, _ in s.terms] == [FREE, (5, 1)]
    assert dict(s.terms)[(5, 1)][12] == 2237760
    # the oracle's group arithmetic on the same counts
    mixed = AbelianGroup(2, (((2, 1), 3), ((3, 2), 1)))
    assert oracle.direct_sum(mixed, mixed) == AbelianGroup(4, (((2, 1), 6), ((3, 2), 2)))
    assert oracle.scale_group(mixed, 0) == AbelianGroup.free(0)
    assert oracle.tor(mixed, mixed) == AbelianGroup(0, (((2, 1), 9), ((3, 2), 1)))
    assert oracle.tensor(mixed, mixed) == AbelianGroup(4, (((2, 1), 21), ((3, 2), 5)))


def test_tensor_and_tor():
    z4 = AbelianGroup.of_order(4)
    z6 = AbelianGroup.of_order(6)
    assert oracle.tensor(z4, z6) == AbelianGroup.of_order(2)
    assert oracle.tor(z4, z6) == AbelianGroup.of_order(2)
    assert oracle.tensor(AbelianGroup.free(2), z4) == AbelianGroup(0, (((2, 2), 2),))
    assert oracle.tor(AbelianGroup.free(1), z4).is_zero
    assert oracle.tensor(z4, AbelianGroup.of_order(3)).is_zero


@pytest.mark.parametrize(
    "terms",
    [
        ((FREE, (1, 0)),),  # counts shorter than truncation + 1
        ((FREE, (0, 0, 0)),),  # all zero
        ((FREE, (1, -1, 0)),),  # a negative count
        (((2, 1), (0, 1, 0)), (FREE, (1, 0, 0))),  # kinds out of order
        ((FREE, (1, 0, 0)), (FREE, (0, 1, 0))),  # a repeated kind
    ],
)
def test_malformed_terms_are_a_value_error(terms):
    with pytest.raises(ValueError):
        GradedModuleSeries(2, terms)


def test_series_product_rules():
    # x_p . x_p = (1 + t) x_p in one degree up and the same degree
    xp = GradedModuleSeries.of(4, [AbelianGroup.cyclic_prime_power(2)])
    square = xp.mul(xp)
    assert square.coeffs[0] == AbelianGroup.cyclic_prime_power(2)
    assert square.coeffs[1] == AbelianGroup.cyclic_prime_power(2)
    assert all(c.is_zero for c in square.coeffs[2:])
    # cross-prime products vanish
    x2 = GradedModuleSeries.of(4, [AbelianGroup.cyclic_prime_power(2)])
    x3 = GradedModuleSeries.of(4, [AbelianGroup.cyclic_prime_power(3)])
    assert all(c.is_zero for c in x2.mul(x3).coeffs)
    # prime powers multiply to the smaller exponent
    x4 = GradedModuleSeries.of(4, [AbelianGroup.cyclic_prime_power(2, 2)])
    mixed = x2.mul(x4)
    assert mixed.coeffs[0] == AbelianGroup.cyclic_prime_power(2, 1)
    # the unit is neutral
    s = cyclic_classifying_series(4, 4)
    assert GradedModuleSeries.unit(4).mul(s) == s


def test_series_truncation_mismatch():
    with pytest.raises(ValueError):
        circle_series(3).mul(circle_series(4))
    with pytest.raises(ValueError):
        circle_series(3).add(circle_series(4))


def test_reduced_requires_unit():
    with pytest.raises(ValueError):
        GradedModuleSeries(3, ()).reduced()


def _random_series(rng, truncation):
    coeffs = []
    for _ in range(truncation + 1):
        torsion = {}
        for _ in range(rng.randrange(3)):
            key = (rng.choice([2, 3, 5]), rng.randrange(1, 3))
            torsion[key] = torsion.get(key, 0) + 1
        coeffs.append(AbelianGroup(rng.randrange(3), tuple(sorted(torsion.items()))))
    return GradedModuleSeries.of(truncation, coeffs)


# torsion kinds: several powers of one prime, and other primes; free ranks are drawn apart
SERIES_KINDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@st.composite
def random_series(draw, truncation):
    """A series whose coefficients draw free ranks and summand counts of SERIES_KINDS."""
    coeffs = []
    for _ in range(draw(st.integers(0, truncation + 1))):
        kinds = draw(st.lists(st.sampled_from(SERIES_KINDS), max_size=4, unique=True))
        torsion = tuple(sorted((kind, draw(st.integers(1, 3))) for kind in kinds))
        coeffs.append(AbelianGroup(draw(st.integers(0, 3)), torsion))
    return GradedModuleSeries.of(truncation, coeffs)


@st.composite
def series_pairs(draw):
    truncation = draw(st.integers(0, 8))
    return draw(random_series(truncation)), draw(random_series(truncation))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(series_pairs(), st.integers(0, 3))
def test_series_arithmetic_matches_the_per_degree_oracle(pair, k):
    a, b = pair
    assert GradedModuleSeries.of(a.truncation, a.coeffs) == a
    assert a.mul(b) == oracle.mul(a, b)
    assert a.add(b) == oracle.add(a, b)
    assert a.scale(k) == oracle.scale(a, k)
    assert a.pow(k) == oracle.power(a, k)
    try:
        expected = oracle.reduced(a)
    except ValueError:  # no Z in degree zero
        with pytest.raises(ValueError):
            a.reduced()
    else:
        assert a.reduced() == expected


def test_pow_runs_one_product_fewer_than_its_exponent(monkeypatch):
    # the series fr guard predicts n - 2 products for the power n - 1
    calls = []
    mul = GradedModuleSeries.mul

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(GradedModuleSeries, "mul", counting)
    base = cyclic_classifying_series(6, 4)
    for k in range(6):
        calls.clear()
        assert base.pow(k) == oracle.power(base, k)
        assert len(calls) == max(k - 1, 0), k


def test_scale_and_pow_refuse_negative_arguments():
    with pytest.raises(ValueError, match="scale factor must be nonnegative"):
        circle_series(2).scale(-1)
    with pytest.raises(ValueError, match="negative power"):
        circle_series(2).pow(-1)


def test_product_commutative_and_associative():
    rng = random.Random(20240817)
    for _ in range(25):
        truncation = rng.randrange(3, 10)
        a, b, c = (_random_series(rng, truncation) for _ in range(3))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_classifying_series():
    s = cyclic_classifying_series(2, 5)
    assert s.coeffs[0] == AbelianGroup.free(1)
    assert s.coeffs[1] == AbelianGroup.of_order(2)
    assert s.coeffs[2].is_zero
    assert circle_series(3).coeffs[1] == AbelianGroup.free(1)
    with pytest.raises(ValueError):
        cyclic_classifying_series(1, 3)


def test_render():
    assert circle_series(2).render() == "1 + t"
    coeffs, _ = series_Wh_free(3)
    assert GradedModuleSeries.of(2, map(AbelianGroup.free, coeffs)).render() == "1 + 6t + 9t^2"
    assert GradedModuleSeries.of(3, map(AbelianGroup.free, [0, 1, 0, 2])).render() == "t + 2t^3"
    assert GradedModuleSeries(2, ()).render() == "0"
    assert series_Wh_Zp(2, 2, 3).render() == "1 + (Z/2)^2 t + (Z/2)^2 t^3"


# -- polynomials ---------------------------------------------------------------


def test_multipoly_rejects_bad_exponent_vectors():
    for exponents in [(1,), (1, -1)]:  # one short, one negative
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly.of((1, 2), {exponents: 1})


def test_hilbert_polynomial_gamma_F2():
    complex_ = build_gamma_Fn(2)
    h = hilbert_polynomial(complex_)
    assert h == MultiPoly.of((1, 2), {(1, 0): 1, (0, 1): 1})


def test_hilbert_polynomial_example_t():
    h = hilbert_polynomial(example_t_labelled())
    # three singletons, the pair {0,1}, and the top simplex
    assert h == MultiPoly.of(
        (1, 2), {(1, 0): 2, (0, 1): 1, (2, 0): 1, (1, 1): 1}
    )


def test_hilbert_polynomial_full_simplex():
    import diagcx.complexes as complexes

    faces = [c for k in range(1, 4) for c in itertools.combinations(range(3), k)]
    complex_ = complexes.DiagonalComplex.from_simplicial(3, faces).labelled([0, 0, 0])
    h = hilbert_polynomial(complex_)
    assert h == MultiPoly.of((0,), {(1,): 3, (2,): 3, (3,): 1})  # (1+x)^3 - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_forest_hilbert_closed_form(n):
    """Every Prüfer word of n - 1 letters over 0..n, counted by its letters 1..n."""
    counts = collections.Counter(
        tuple(word.count(v) for v in range(1, n + 1)) for word in itertools.product(range(n + 1), repeat=n - 1)
    )
    closed = forest_hilbert_closed_form(n)
    assert closed.variables == tuple(range(1, n + 1))
    assert dict(closed.terms) == counts


# -- substitution ---------------------------------------------------------------


def test_substitute_single_circle():
    h = MultiPoly.of((1,), {(1,): 1})
    result = substitute(h, {1: circle_series(4)})
    assert result == circle_series(4)


def test_substitute_missing_variable():
    h = MultiPoly.of((1, 2), {(1, 0): 1})
    with pytest.raises(ValueError):
        substitute(h, {1: circle_series(3)})


def test_substitute_no_variables():
    h = MultiPoly.of((), {(): 1})
    assert substitute(h, {}, truncation=4) == GradedModuleSeries.unit(4).add(
        GradedModuleSeries.unit(4)
    )
    with pytest.raises(ValueError):
        substitute(h, {})


def test_substitute_all_circles_n3():
    complex_ = build_gamma_Fn(3)
    h = hilbert_polynomial(complex_)
    result = substitute(h, {v: circle_series(6) for v in h.variables})
    assert [c.free_rank for c in result.coeffs] == [1, 6, 9, 0, 0, 0, 0]
    assert all(not c.torsion for c in result.coeffs)


def test_substitute_torsion_n2():
    complex_ = build_gamma_Fn(2)
    h = hilbert_polynomial(complex_)
    result = substitute(h, {v: cyclic_classifying_series(5, 6) for v in h.variables})
    for degree, coeff in enumerate(result.coeffs):
        if degree == 0:
            assert coeff == AbelianGroup.free(1)
        elif degree % 2 == 1:
            assert coeff == AbelianGroup(0, (((5, 1), 2),))
        else:
            assert coeff.is_zero


def test_free_product_series():
    two_circles = free_product_series([circle_series(4), circle_series(4)])
    assert [c.free_rank for c in two_circles.coeffs] == [1, 2, 0, 0, 0]
    mixed = free_product_series([circle_series(4), cyclic_classifying_series(2, 4)])
    assert mixed.coeffs[1] == AbelianGroup(1, (((2, 1), 1),))
    single = free_product_series([cyclic_classifying_series(3, 4)])
    assert single == cyclic_classifying_series(3, 4)
    with pytest.raises(ValueError):
        free_product_series([])


@st.composite
def substitutions(draw):
    """A polynomial in up to 3 variables and a circle or B(Z/m) series for each."""
    truncation = draw(st.integers(0, 6))
    variables = tuple(range(1, draw(st.integers(0, 3)) + 1))
    exponents = st.tuples(*[st.integers(0, 3)] * len(variables))
    poly = MultiPoly.of(variables, draw(st.dictionaries(exponents, st.integers(1, 3), max_size=6)))
    orders = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 12]), min_size=len(variables), max_size=len(variables)))
    assignment = {
        v: circle_series(truncation) if m == 0 else cyclic_classifying_series(m, truncation)
        for v, m in zip(variables, orders)
    }
    return poly, assignment, truncation


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(substitutions())
def test_substitute_matches_term_products(case):
    poly, assignment, truncation = case
    factors = [assignment[v] for v in poly.variables]
    expected = GradedModuleSeries.unit(truncation)
    for exponents, coeff in poly.terms:
        expected = expected.add(term_product(truncation, factors, exponents).scale(coeff))
    assert substitute(poly, assignment, truncation=truncation) == expected


def test_substitute_multiplies_once_per_monomial(monkeypatch):
    calls = []
    mul = GradedModuleSeries.mul
    monkeypatch.setattr(GradedModuleSeries, "mul", lambda a, b: calls.append(1) or mul(a, b))
    closed = forest_hilbert_closed_form(4)  # every monomial of degree <= 3, the constant included
    substitute(closed, {v: cyclic_classifying_series(6, 6) for v in closed.variables})
    assert len(calls) == len(closed.terms) - 1


def test_substitute_checks_every_assigned_truncation():
    h = MultiPoly.of((1,), {(1,): 1})
    with pytest.raises(ValueError, match="mixed truncations"):
        substitute(h, {1: circle_series(4), 2: circle_series(5)})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_direct_product_identity_small(n):
    complex_ = build_gamma_Fn(n)
    h = hilbert_polynomial(complex_)
    factors = {
        v: [circle_series(8), cyclic_classifying_series(2, 8), cyclic_classifying_series(4, 8)][v % 3]
        for v in h.variables
    }
    lhs = substitute(h, factors)
    rhs = free_product_series([factors[v] for v in h.variables]).pow(n - 1)
    assert lhs == rhs


# -- closed forms -----------------------------------------------------------------


def test_series_wh_free_values():
    assert series_Wh_free(1) == ([1], 1)
    assert series_Wh_free(2) == ([1, 2], -1)
    assert series_Wh_free(3) == ([1, 6, 9], 4)


def test_series_wh_free_alternating_sum_is_chi():
    for n in range(1, 8):
        coeffs, chi = series_Wh_free(n)
        assert sum((-1) ** k * c for k, c in enumerate(coeffs)) == chi


def test_series_wh_zp_n1_is_constant():
    s = series_Wh_Zp(1, 3, 6)
    assert s == GradedModuleSeries.unit(6)


def test_series_wh_zp_n2_pattern():
    s = series_Wh_Zp(2, 3, 9)
    for degree, coeff in enumerate(s.coeffs):
        if degree == 0:
            assert coeff == AbelianGroup.free(1)
        elif degree % 2 == 1:
            assert coeff == AbelianGroup(0, (((3, 1), 2),))
        else:
            assert coeff.is_zero


def test_series_wh_zp_n3_degree_one():
    s = series_Wh_Zp(3, 2, 6)
    assert s.coeffs[1] == AbelianGroup(0, (((2, 1), 6),))


def test_series_wh_zp_needs_a_prime():
    # a large prime is accepted at once; trial division to its square root would not end
    big = 2**61 - 1
    assert series_Wh_Zp(2, big, 1).coeffs[1] == AbelianGroup(0, (((big, 1), 2),))
    # composites, including strong pseudoprimes to several bases, are refused
    for p in (0, 1, 4, 6, 561, 2047, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError):
            series_Wh_Zp(2, p, 1)


def test_factoring_ends():
    start = time.perf_counter()
    assert _factor_prime_powers(2**61 - 1) == ((2**61 - 1, 1),)
    assert AbelianGroup.of_order(2**61 - 1) == AbelianGroup.cyclic_prime_power(2**61 - 1)
    assert time.perf_counter() - start < 1
    assert _factor_prime_powers(1000003 * 1000033) == ((1000003, 1), (1000033, 1))
    assert _factor_prime_powers(2**5 * 3 * 1000003**2) == ((2, 5), (3, 1), (1000003, 2))
    # two prime factors past the trial bound: refused, naming m
    m = (2**61 - 1) * (2**31 - 1)
    assert 2**31 - 1 > TRIAL_BOUND
    with pytest.raises(ValueError, match=str(m)):
        _factor_prime_powers(m)
    # above the exact Miller-Rabin range primality goes through the same bound
    assert not _is_prime(3 * (2**89 - 1))
    with pytest.raises(ValueError, match=str(2**89 - 1)):
        _is_prime(2**89 - 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_series_wh_zp_matches_substitution(n, p):
    complex_ = build_gamma_Fn(n)
    h = hilbert_polynomial(complex_)
    direct = series_Wh_Zp(n, p, 10)
    substituted = substitute(h, {v: cyclic_classifying_series(p, 10) for v in h.variables})
    assert direct == substituted


def test_series_nonnegative_everywhere():
    for n in (2, 3):
        for p in (2, 3):
            s = series_Wh_Zp(n, p, 8)
            for coeff in s.coeffs:
                assert coeff.free_rank >= 0
                assert all(e >= 1 and count >= 1 for (_, e), count in coeff.torsion)


def test_json_shapes():
    s = series_Wh_Zp(2, 2, 2)
    data = s.to_json()
    assert data[0] == {"free": 1, "torsion": []}
    assert data[1] == {"free": 0, "torsion": ["2^1", "2^1"]}


def test_docstrings():
    import doctest

    import diagcx.series as module

    failures, _ = doctest.testmod(module)
    assert failures == 0

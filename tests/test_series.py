import itertools
import random

import pytest

from conftest import example_t_complex, example_t_labelling
from diagcx.forests import build_gamma_Fn
from diagcx.series import (
    AbelianGroup,
    GradedModuleSeries,
    MultiPoly,
    circle_series,
    cyclic_classifying_series,
    forest_hilbert_closed_form,
    free_product_series,
    hilbert_polynomial,
    render_poly_in_t,
    series_Wh_Zp,
    series_Wh_free,
    substitute,
)


# -- abelian groups -----------------------------------------------------------


def test_abelian_group_basics():
    assert AbelianGroup.of_order(12) == AbelianGroup(0, ((2, 2), (3, 1)))
    assert AbelianGroup.of_order(1).is_zero
    assert AbelianGroup.of_order(0) == AbelianGroup.free(1)
    assert AbelianGroup.free(2).render() == "Z^2"
    assert AbelianGroup(1, ((2, 1), (2, 1))).render() == "Z + (Z/2)^2"


def test_tensor_and_tor():
    z4 = AbelianGroup.of_order(4)
    z6 = AbelianGroup.of_order(6)
    assert z4.tensor(z6) == AbelianGroup.of_order(2)
    assert z4.tor(z6) == AbelianGroup.of_order(2)
    assert AbelianGroup.free(2).tensor(z4) == AbelianGroup(0, ((2, 2), (2, 2)))
    assert AbelianGroup.free(1).tor(z4).is_zero
    assert z4.tensor(AbelianGroup.of_order(3)).is_zero


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
        GradedModuleSeries.zero(3).reduced()


def _random_series(rng, truncation):
    coeffs = []
    for _ in range(truncation + 1):
        torsion = []
        for _ in range(rng.randrange(3)):
            torsion.append((rng.choice([2, 3, 5]), rng.randrange(1, 3)))
        coeffs.append(AbelianGroup(rng.randrange(3), tuple(sorted(torsion))))
    return GradedModuleSeries.of(truncation, coeffs)


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
    assert render_poly_in_t(coeffs) == "1 + 6t + 9t^2"
    assert series_Wh_Zp(2, 2, 3).render() == "1 + (Z/2)^2 t + (Z/2)^2 t^3"


# -- polynomials ---------------------------------------------------------------


def test_multipoly_arithmetic():
    x = MultiPoly.variable((1, 2), 1)
    y = MultiPoly.variable((1, 2), 2)
    one = MultiPoly.constant((1, 2), 1)
    square = one.add(x).add(y).pow(2)
    assert square.coefficient((1, 1)) == 2
    assert square.coefficient((0, 0)) == 1
    assert square.evaluate_int({1: -1, 2: -1}) == 1
    with pytest.raises(ValueError):
        x.add(MultiPoly.variable((1, 3), 1))


def test_hilbert_polynomial_gamma_F2():
    fc = build_gamma_Fn(2)
    h = hilbert_polynomial(fc.complex, fc.labelling)
    assert h == MultiPoly.of((1, 2), {(1, 0): 1, (0, 1): 1})


def test_hilbert_polynomial_example_t():
    complex_ = example_t_complex()
    labelling = example_t_labelling(complex_)
    h = hilbert_polynomial(complex_, labelling)
    # three singletons, the pair {0,1}, and the top simplex
    assert h == MultiPoly.of(
        (1, 2), {(1, 0): 2, (0, 1): 1, (2, 0): 1, (1, 1): 1}
    )


def test_hilbert_polynomial_full_simplex():
    import diagcx.complexes as complexes

    faces = [c for k in range(1, 4) for c in itertools.combinations(range(3), k)]
    complex_ = complexes.DiagonalComplex.from_simplicial(3, faces)
    labelling = complexes.Labelling(complex_, [0, 0, 0])
    h = hilbert_polynomial(complex_, labelling)
    assert h == MultiPoly.of((0,), {(1,): 3, (2,): 3, (3,): 1})  # (1+x)^3 - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_forest_hilbert_closed_form(n):
    fc = build_gamma_Fn(n)
    h = hilbert_polynomial(fc.complex, fc.labelling)
    one = MultiPoly.constant(h.variables, 1)
    assert h.add(one) == forest_hilbert_closed_form(n)


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
    h = MultiPoly.constant((), 1)
    assert substitute(h, {}, truncation=4) == GradedModuleSeries.unit(4).add(
        GradedModuleSeries.unit(4)
    )
    with pytest.raises(ValueError):
        substitute(h, {})


def test_substitute_all_circles_n3():
    fc = build_gamma_Fn(3)
    h = hilbert_polynomial(fc.complex, fc.labelling)
    result = substitute(h, {v: circle_series(6) for v in h.variables})
    assert [c.free_rank for c in result.coeffs] == [1, 6, 9, 0, 0, 0, 0]
    assert all(not c.torsion for c in result.coeffs)


def test_substitute_torsion_n2():
    fc = build_gamma_Fn(2)
    h = hilbert_polynomial(fc.complex, fc.labelling)
    result = substitute(h, {v: cyclic_classifying_series(5, 6) for v in h.variables})
    for degree, coeff in enumerate(result.coeffs):
        if degree == 0:
            assert coeff == AbelianGroup.free(1)
        elif degree % 2 == 1:
            assert coeff == AbelianGroup(0, ((5, 1), (5, 1)))
        else:
            assert coeff.is_zero


def test_free_product_series():
    two_circles = free_product_series([circle_series(4), circle_series(4)])
    assert [c.free_rank for c in two_circles.coeffs] == [1, 2, 0, 0, 0]
    mixed = free_product_series([circle_series(4), cyclic_classifying_series(2, 4)])
    assert mixed.coeffs[1] == AbelianGroup(1, ((2, 1),))
    single = free_product_series([cyclic_classifying_series(3, 4)])
    assert single == cyclic_classifying_series(3, 4)
    with pytest.raises(ValueError):
        free_product_series([])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_direct_product_identity_small(n):
    fc = build_gamma_Fn(n)
    h = hilbert_polynomial(fc.complex, fc.labelling)
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
            assert coeff == AbelianGroup(0, ((3, 1), (3, 1)))
        else:
            assert coeff.is_zero


def test_series_wh_zp_n3_degree_one():
    s = series_Wh_Zp(3, 2, 6)
    assert s.coeffs[1] == AbelianGroup(0, ((2, 1),) * 6)


def test_series_wh_zp_needs_a_prime():
    # a large prime is accepted at once; trial division to its square root would not end
    big = 2**61 - 1
    assert series_Wh_Zp(2, big, 1).coeffs[1] == AbelianGroup(0, ((big, 1), (big, 1)))
    # composites, including strong pseudoprimes to several bases, are refused
    for p in (0, 1, 4, 6, 561, 2047, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError):
            series_Wh_Zp(2, p, 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_series_wh_zp_matches_substitution(n, p):
    fc = build_gamma_Fn(n)
    h = hilbert_polynomial(fc.complex, fc.labelling)
    direct = series_Wh_Zp(n, p, 10)
    substituted = substitute(h, {v: cyclic_classifying_series(p, 10) for v in h.variables})
    assert direct == substituted


def test_series_nonnegative_everywhere():
    for n in (2, 3):
        for p in (2, 3):
            s = series_Wh_Zp(n, p, 8)
            for coeff in s.coeffs:
                assert coeff.free_rank >= 0
                assert all(e >= 1 for _, e in coeff.torsion)


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

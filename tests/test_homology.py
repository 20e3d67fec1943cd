import pytest

from conftest import example_t_complex
from diagcx.forests import build_gamma_Fn
from diagcx.groups import FiniteGroup
from diagcx.homology import (
    SimplicialComplexData,
    boundary_matrix,
    coset_nerve,
    integer_rank,
    is_acyclic,
    reduced_betti,
    simplicial_homology,
    smith_normal_form,
    torus_model_betti,
    triplet_dump,
)
from diagcx.series import hilbert_polynomial


# -- exact linear algebra -----------------------------------------------------


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[2, 0, 1], [0, 3, 1]]) == 2
    # values that would overflow floats stay exact
    big = 10**30
    assert integer_rank([[big, big], [big, big + 1]]) == 2


def test_smith_normal_form_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]


def test_smith_normal_form_divisibility_chain():
    factors = smith_normal_form([[6, 4, 2], [4, 10, 2], [2, 2, 8]])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert len(factors) == integer_rank([[6, 4, 2], [4, 10, 2], [2, 2, 8]])


def _det(matrix):
    if not matrix:
        return 1
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for j in range(len(matrix)):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def _determinantal_divisor(matrix, k):
    import itertools
    from math import gcd

    m, n = len(matrix), len(matrix[0])
    value = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            minor = [[matrix[r][c] for c in cols] for r in rows]
            value = gcd(value, _det(minor))
    return value


def test_smith_normal_form_against_determinantal_divisors():
    # the product d_1 ... d_k equals the gcd of all k x k minors
    import random

    rng = random.Random(431)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        matrix = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        factors = smith_normal_form(matrix)
        product = 1
        for k, d in enumerate(factors, start=1):
            product *= d
            assert product == _determinantal_divisor(matrix, k), matrix
        # one more minor size must vanish
        if len(factors) < min(m, n):
            assert _determinantal_divisor(matrix, len(factors) + 1) == 0


def test_integer_rank_against_fraction_elimination():
    import random
    from fractions import Fraction

    def fraction_rank(rows):
        matrix = [[Fraction(v) for v in row] for row in rows]
        rank = 0
        cols = len(matrix[0]) if matrix else 0
        for col in range(cols):
            pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            for r in range(len(matrix)):
                if r != rank and matrix[r][col]:
                    scale = matrix[r][col] / matrix[rank][col]
                    matrix[r] = [a - scale * b for a, b in zip(matrix[r], matrix[rank])]
            rank += 1
        return rank

    rng = random.Random(97)
    for _ in range(60):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        matrix = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        assert integer_rank(matrix) == fraction_rank(matrix), matrix


# -- simplicial complexes ------------------------------------------------------


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplexData(3, frozenset({frozenset([0, 1])}))  # missing vertices
    with pytest.raises(ValueError):
        SimplicialComplexData(1, frozenset({frozenset([5])}))


def test_boundary_matrix_triangle():
    tri = SimplicialComplexData.from_maximal(3, [(0, 1, 2)])
    matrix = boundary_matrix(tri, 1)
    assert len(matrix) == 3 and len(matrix[0]) == 3
    # every column sums to zero under the augmentation
    for j in range(3):
        assert sum(matrix[i][j] for i in range(3)) == 0


def test_full_simplex_is_acyclic():
    full = SimplicialComplexData.from_maximal(4, [(0, 1, 2, 3)])
    assert simplicial_homology(full, 3) == [(1, ()), (0, ()), (0, ()), (0, ())]
    assert is_acyclic(full, 3)


def test_eight_cycle():
    cycle = SimplicialComplexData.from_maximal(8, [(i, (i + 1) % 8) for i in range(8)])
    assert simplicial_homology(cycle, 1) == [(1, ()), (1, ())]
    assert reduced_betti(cycle, 1) == [0, 1]


def test_hollow_triangle_is_a_circle():
    tri = SimplicialComplexData.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    assert simplicial_homology(tri, 1) == [(1, ()), (1, ())]


def test_projective_plane_torsion():
    # the 6-vertex triangulation of the projective plane: 10 triangles,
    # 15 edges, Euler characteristic 1, with 2-torsion in degree 1
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ]
    rp2 = SimplicialComplexData.from_maximal(6, triangles)
    assert len(rp2.faces_of_dimension(1)) == 15
    assert simplicial_homology(rp2, 2) == [(1, ()), (0, (2,)), (0, ())]


def test_two_components():
    c = SimplicialComplexData.from_maximal(4, [(0, 1), (2, 3)])
    assert simplicial_homology(c, 1)[0] == (2, ())


# -- coset nerves ----------------------------------------------------------------


def test_trivial_family_gives_isolated_points():
    g = FiniteGroup.cyclic(4)
    nerve, cosets = coset_nerve(g, [frozenset([0])])
    assert len(cosets) == 4
    assert nerve.faces_of_dimension(1) == []
    assert simplicial_homology(nerve, 0) == [(4, ())]


def test_family_with_whole_group_is_acyclic():
    g = FiniteGroup.cyclic(6)
    nerve, _ = coset_nerve(g, list(g.subgroups()))
    assert is_acyclic(nerve, 3)


def test_klein_four_pair_family_is_a_circle():
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    twos = [s for s in v4.subgroups() if len(s) == 2]
    nerve, cosets = coset_nerve(v4, [frozenset([0]), twos[0], twos[1]])
    assert len(cosets) == 8
    assert reduced_betti(nerve, 1) == [0, 1]


def test_family_must_be_intersection_closed():
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    twos = [s for s in v4.subgroups() if len(s) == 2]
    with pytest.raises(ValueError):
        coset_nerve(v4, [twos[0], twos[1]])  # missing the trivial intersection


def test_family_members_must_be_subgroups():
    g = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        coset_nerve(g, [frozenset([0, 1])])


# -- the circle chain model --------------------------------------------------------


def test_torus_model_betti_forest_complexes():
    assert torus_model_betti(build_gamma_Fn(2).complex) == [1, 2]
    assert torus_model_betti(build_gamma_Fn(3).complex) == [1, 6, 9]


def test_torus_model_matches_block_counts():
    for n in (2, 3):
        fc = build_gamma_Fn(n)
        betti = torus_model_betti(fc.complex, fc.labelling)
        counts = {}
        for part in fc.complex.gamma.values():
            k = len(part.blocks)
            counts[k] = counts.get(k, 0) + 1
        for degree in range(1, len(betti)):
            assert betti[degree] == counts.get(degree, 0)


def test_torus_model_example_t():
    complex_ = example_t_complex()
    betti = torus_model_betti(complex_)
    # one simplex with two blocks ({0,1} | {2}), one with two singleton
    # blocks, three singleton simplices
    assert betti == [1, 3, 2]


def test_torus_model_euler_characteristic():
    for n in (2, 3):
        fc = build_gamma_Fn(n)
        betti = torus_model_betti(fc.complex, fc.labelling)
        h = hilbert_polynomial(fc.complex, fc.labelling)
        chi = sum((-1) ** k * b for k, b in enumerate(betti))
        assert chi == 1 + h.evaluate_int({v: -1 for v in h.variables})


def test_triplet_dump():
    assert triplet_dump([[0, 2], [1, 0]]) == "0 1 2\n1 0 1\n"
    assert triplet_dump([[0]]) == ""

import itertools

import pytest

from conftest import example_t_complex
from diagcx.cli import _nerve_family
from diagcx.forests import build_gamma_Fn
from diagcx.groups import FiniteGroup, group_from_descriptor
from diagcx.homology import (
    SimplicialComplexData,
    boundary_matrix,
    coset_nerve,
    coset_nerve_face_count,
    integer_rank,
    simplicial_homology,
    smith_normal_form,
    torus_model_betti,
    torus_model_generators,
    triplet_dump,
)
from diagcx.series import hilbert_polynomial


# -- exact linear algebra -----------------------------------------------------


def _sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def _dense(rows, width):
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def _bareiss_rank(rows):
    """Rank of an integer matrix by Bareiss fraction-free elimination."""
    matrix = [list(row) for row in rows]
    if not matrix or not matrix[0]:
        return 0
    m, n = len(matrix), len(matrix[0])
    rank = 0
    prev = 1
    col = 0
    while rank < m and col < n:
        pivot_row = next((r for r in range(rank, m) if matrix[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(rank + 1, m):
            factor = matrix[r][col]
            for c in range(col, n):
                matrix[r][c] = (matrix[r][c] * pivot - factor * matrix[rank][c]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def _dense_smith_normal_form(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""
    matrix = [list(row) for row in rows]
    if not matrix or not matrix[0]:
        return []
    m, n = len(matrix), len(matrix[0])
    factors = []
    top = 0
    while top < min(m, n):
        # locate a nonzero entry of minimal absolute value
        best = None
        for r in range(top, m):
            for c in range(top, n):
                v = abs(matrix[r][c])
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, r, c = best
        matrix[top], matrix[r] = matrix[r], matrix[top]
        for row in matrix:
            row[top], row[c] = row[c], row[top]
        pivot = matrix[top][top]
        dirty = False
        for r in range(top + 1, m):
            q = matrix[r][top] // pivot
            if q:
                for k in range(top, n):
                    matrix[r][k] -= q * matrix[top][k]
            if matrix[r][top]:
                dirty = True
        for c in range(top + 1, n):
            q = matrix[top][c] // pivot
            if q:
                for row in matrix:
                    row[c] -= q * row[top]
            if matrix[top][c]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block
        offender = None
        for r in range(top + 1, m):
            for c in range(top + 1, n):
                if matrix[r][c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            for k in range(top, n):
                matrix[top][k] += matrix[offender][k]
            continue
        factors.append(abs(pivot))
        top += 1
    return factors


def _random_matrices(seed, count, size, bound):
    """Dense random matrices up to size x size, entries within +-bound, some of them sparse."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randrange(1, size + 1), rng.randrange(1, size + 1)
        density = rng.random()
        yield [[rng.randrange(-bound, bound + 1) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


def _chain_matrices():
    """Dense nerve boundaries of (Z/2)^3 and D4 and torus generators for n <= 4."""
    for name in ("Z/2xZ/2xZ/2", "D4"):
        group = group_from_descriptor(name)
        nerve, _ = coset_nerve(group, list(group.subgroups()))
        for k in range(1, nerve.dimension() + 1):
            upper = nerve.faces_of_dimension(k)
            yield _dense(boundary_matrix(nerve.faces_of_dimension(k - 1), upper), len(upper))
    for n in range(1, 5):
        complex_ = build_gamma_Fn(n).complex
        for k in range(1, n + 1):
            rows = torus_model_generators(complex_, k)
            yield _dense(rows, 1 + max((c for row in rows for c in row), default=-1))


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank(_sparse([[0, 0], [0, 0]])) == 0
    assert integer_rank(_sparse([[1, 2], [2, 4]])) == 1
    assert integer_rank(_sparse([[1, 2], [3, 4]])) == 2
    assert integer_rank(_sparse([[2, 0, 1], [0, 3, 1]])) == 2
    # values that would overflow floats stay exact
    big = 10**30
    assert integer_rank(_sparse([[big, big], [big, big + 1]])) == 2


def test_smith_normal_form_examples():
    assert smith_normal_form(_sparse([[1, 0], [0, 1]])) == [1, 1]
    assert smith_normal_form(_sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(_sparse([[0, 0], [0, 0]])) == []
    assert smith_normal_form(_sparse([[2, 4], [4, 8]])) == [2]
    assert smith_normal_form(_sparse([[2, 0], [0, 2]])) == [2, 2]


def test_smith_normal_form_divisibility_chain():
    factors = smith_normal_form(_sparse([[6, 4, 2], [4, 10, 2], [2, 2, 8]]))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert len(factors) == integer_rank(_sparse([[6, 4, 2], [4, 10, 2], [2, 2, 8]]))


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
        factors = smith_normal_form(_sparse(matrix))
        product = 1
        for k, d in enumerate(factors, start=1):
            product *= d
            assert product == _determinantal_divisor(matrix, k), matrix
        # one more minor size must vanish
        if len(factors) < min(m, n):
            assert _determinantal_divisor(matrix, len(factors) + 1) == 0
        assert factors == _dense_smith_normal_form(matrix), matrix
    # the dense minimum-entry Smith form on larger entries and on chain matrices
    for matrix in itertools.chain(_random_matrices(433, 1000, 8, 100), _chain_matrices()):
        assert smith_normal_form(_sparse(matrix)) == _dense_smith_normal_form(matrix), matrix


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
        assert integer_rank(_sparse(matrix)) == fraction_rank(matrix), matrix
        assert _bareiss_rank(matrix) == fraction_rank(matrix), matrix
    for matrix in itertools.chain(_random_matrices(99, 1000, 8, 100), _chain_matrices()):
        assert integer_rank(_sparse(matrix)) == _bareiss_rank(matrix), matrix


# -- simplicial complexes ------------------------------------------------------


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplexData(frozenset({(0, 1)}))  # missing vertices
    for edge in itertools.combinations(range(3), 2):  # every vertex and triangle, one edge missing
        faces = SimplicialComplexData.from_maximal([(0, 1, 2)]).faces - {edge}
        with pytest.raises(ValueError, match="missing face"):
            SimplicialComplexData(faces)
    for face in [(1, 0), (0, 0), ()]:  # a face is a nonempty strictly increasing tuple
        with pytest.raises(ValueError, match="increasing"):
            SimplicialComplexData(frozenset({(0,), (1,), face}))


def test_boundary_matrix_triangle():
    tri = SimplicialComplexData.from_maximal([(0, 1, 2)])
    matrix = _dense(boundary_matrix(tri.faces_of_dimension(0), tri.faces_of_dimension(1)), 3)
    assert len(matrix) == 3 and len(matrix[0]) == 3
    # every column sums to zero under the augmentation
    for j in range(3):
        assert sum(matrix[i][j] for i in range(3)) == 0


def test_full_simplex_is_acyclic():
    full = SimplicialComplexData.from_maximal([(0, 1, 2, 3)])
    assert simplicial_homology(full, 3) == [(1, ()), (0, ()), (0, ()), (0, ())]
    assert simplicial_homology(full, 6) == [(1, ())] + [(0, ())] * 6  # zero above the dimension
    empty = SimplicialComplexData(frozenset())  # dimension -1
    assert simplicial_homology(empty) == []
    assert simplicial_homology(empty, 2) == [(0, ())] * 3


def test_eight_cycle():
    cycle = SimplicialComplexData.from_maximal([(i, (i + 1) % 8) for i in range(8)])
    assert simplicial_homology(cycle, 1) == [(1, ()), (1, ())]


def test_hollow_triangle_is_a_circle():
    tri = SimplicialComplexData.from_maximal([(0, 1), (1, 2), (0, 2)])
    assert simplicial_homology(tri, 1) == [(1, ()), (1, ())]


def test_projective_plane_torsion():
    # the 6-vertex triangulation of the projective plane: 10 triangles,
    # 15 edges, Euler characteristic 1, with 2-torsion in degree 1
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ]
    rp2 = SimplicialComplexData.from_maximal(triangles)
    assert len(rp2.faces_of_dimension(1)) == 15
    assert simplicial_homology(rp2, 2) == [(1, ()), (0, (2,)), (0, ())]


def test_two_components():
    c = SimplicialComplexData.from_maximal([(0, 1), (2, 3)])
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
    assert simplicial_homology(nerve, 3) == [(1, ()), (0, ()), (0, ()), (0, ())]


def test_klein_four_pair_family_is_a_circle():
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    twos = [s for s in v4.subgroups() if len(s) == 2]
    nerve, cosets = coset_nerve(v4, [frozenset([0]), twos[0], twos[1]])
    assert len(cosets) == 8
    assert simplicial_homology(nerve, 1) == [(1, ()), (1, ())]


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
        betti = torus_model_betti(fc.complex)
        counts = {}
        for part in fc.complex.partitions().values():
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
        betti = torus_model_betti(fc.complex)
        h = hilbert_polynomial(fc.complex, fc.labelling)
        chi = sum((-1) ** k * b for k, b in enumerate(betti))
        assert chi == 1 + sum(c * (-1) ** sum(e) for e, c in h.terms)


def test_triplet_dump():
    assert triplet_dump(_sparse([[0, 2], [1, 0]])) == "0 1 2\n1 0 1\n"
    assert triplet_dump(_sparse([[0]])) == ""


@pytest.mark.parametrize(
    "name", ["V4", "S3", "S4", "D4", "Q8", "Z/6", "Z/2xZ/2", "Z/2xZ/2xZ/2", "Z/2xZ/2xZ/2xZ/2", "Z/5xZ/5"]
)
def test_nerve_face_count_matches_the_built_nerve(name):
    group = group_from_descriptor(name)
    families = ["all", "klein"] if name in ("V4", "Z/2xZ/2") else ["all"]
    for family_name in families:
        family = _nerve_family(group, family_name)
        nerve, _ = coset_nerve(group, family)
        for max_vertices in range(nerve.dimension() + 3):  # one bound past the longest chain
            built = coset_nerve(group, family, max_vertices)[0].faces
            assert built == {face for face in nerve.faces if len(face) <= max_vertices}, (family_name, max_vertices)
            assert coset_nerve_face_count(group, family, max_vertices) == len(built), (family_name, max_vertices)
        assert coset_nerve_face_count(group, family, 1000) == len(nerve.faces)

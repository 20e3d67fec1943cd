import itertools

import pytest

from diagcx.cactus import CactusDiagram, congruent, coordinates, render_matrix
from diagcx.forests import build_gamma_Fn, x_n_pairs


def test_validation():
    with pytest.raises(ValueError):
        CactusDiagram(2, (0, 0), (0, 0), (2, 2))  # two roots
    with pytest.raises(ValueError):
        CactusDiagram(2, (2, 1), (0, 0), (2, 2))  # cycle
    with pytest.raises(ValueError):
        CactusDiagram(2, (0, 1), (0, 5), (2, 2))  # label outside parent's set
    with pytest.raises(ValueError):
        CactusDiagram(2, (0, 1), (1, 0), (2, 2))  # root carries a label


def test_star_with_basepoint_labels_is_the_wedge():
    d = CactusDiagram(3, (0, 1, 1), (0, 0, 0), (2, 2, 2))
    assert coordinates(d) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_congruence_pair_from_the_two_diagram_figure():
    # both children of the root glued at the same point y of factor 1
    a = CactusDiagram(3, (0, 1, 1), (0, 1, 1), (2, 2, 2))
    # the chain 3 -> 2 -> 1 with labels (basepoint, y)
    b = CactusDiagram(3, (0, 1, 2), (0, 1, 0), (2, 2, 2))
    assert coordinates(a) == coordinates(b)
    assert congruent(a, b)
    matrix = coordinates(a)
    assert matrix[0][1] == 1 and matrix[0][2] == 1
    assert matrix[1][2] == 0 and matrix[2][1] == 0


def test_labelling_determined_on_a_fixed_tree():
    sizes = (2, 3, 2)
    parent = (0, 1, 2)
    seen = {}
    for labels in itertools.product(range(1), range(sizes[0]), range(sizes[1])):
        d = CactusDiagram(3, parent, labels, sizes)
        key = coordinates(d)
        assert key not in seen, "distinct labels must give distinct matrices"
        seen[key] = labels


def test_congruent_requires_same_factors():
    a = CactusDiagram(2, (0, 1), (0, 0), (2, 2))
    b = CactusDiagram(2, (0, 1), (0, 0), (2, 3))
    with pytest.raises(ValueError):
        congruent(a, b)


def _all_diagrams(n, sizes):
    for parent in itertools.product(range(n + 1), repeat=n):
        if sum(1 for p in parent if p == 0) != 1:
            continue
        try:
            CactusDiagram(n, parent, tuple([0] * n), sizes)
        except ValueError:
            continue
        choices = [
            range(sizes[parent[v - 1] - 1]) if parent[v - 1] else (0,)
            for v in range(1, n + 1)
        ]
        for labels in itertools.product(*choices):
            yield CactusDiagram(n, parent, labels, sizes)


def _slide_moves(d):
    """Re-glue a basepoint-attached child to its grandparent.

    A child glued at the basepoint of a non-root parent sits at the same
    geometric point as the parent itself, so it may be re-attached to the
    grandparent with the parent's own label.
    """
    for v in range(1, d.n + 1):
        p = d.parent[v - 1]
        if p and d.labels[v - 1] == 0 and d.parent[p - 1] != 0:
            parent = list(d.parent)
            labels = list(d.labels)
            parent[v - 1] = d.parent[p - 1]
            labels[v - 1] = d.labels[p - 1]
            yield CactusDiagram(d.n, tuple(parent), tuple(labels), d.sizes)


@pytest.mark.parametrize("n", [3, 4])
def test_coordinates_invariant_under_slides(n):
    sizes = tuple([2] * n)
    for d in _all_diagrams(n, sizes):
        for moved in _slide_moves(d):
            assert coordinates(moved) == coordinates(d)


@pytest.mark.parametrize("n", [2, 3])
def test_image_equals_complex_product_model(n):
    sizes = tuple([2] * n)
    image = {coordinates(d) for d in _all_diagrams(n, sizes)}

    complex_ = build_gamma_Fn(n)
    pairs = x_n_pairs(n)
    model = {tuple(tuple(0 for _ in range(n)) for _ in range(n))}
    for part in complex_.partitions().values():
        blocks = part.blocks
        value_ranges = [range(sizes[pairs[b[0]][0] - 1]) for b in blocks]
        for values in itertools.product(*value_ranges):
            matrix = [[0] * n for _ in range(n)]
            for block, value in zip(blocks, values):
                for k in block:
                    i, j = pairs[k]
                    matrix[i - 1][j - 1] = value
            model.add(tuple(map(tuple, matrix)))
    assert image == model


def test_render_matrix():
    d = CactusDiagram(2, (0, 1), (0, 1), (2, 2))
    text = render_matrix(coordinates(d))
    assert text.splitlines() == ["- 1", "· -"]

import json

import pytest

from complex_levels import filtration, full_subcomplex, levels
from conftest import example_t_complex, example_t_improper, example_t_labelled
from diagcx.complexes import DiagonalComplex
from diagcx.forests import build_gamma_Fn, x_n_pairs
from diagcx.groups import FiniteGroup
from diagcx.homology import torus_model_betti, torus_model_matrices
from diagcx.partitions import PartialPartition
from diagcx.present import dc_presentation
from diagcx.series import hilbert_polynomial


def full_simplex(n):
    faces = []
    import itertools

    for k in range(1, n + 1):
        faces.extend(itertools.combinations(range(n), k))
    return DiagonalComplex.from_simplicial(n, faces)


def test_example_t_validates(example_t):
    complex_ = example_t
    report = complex_.validate()
    assert report.ok
    assert [c.axiom for c in report.checks] == [1, 2, 3]


def test_full_simplex_validates():
    assert full_simplex(3).validate().ok


def test_missing_singleton_is_axiom_1():
    complex_ = example_t_complex()
    gamma = {u: p for u, p in complex_.partitions().items() if u != frozenset([2])}
    report = DiagonalComplex.of(3, gamma).validate()
    assert not report.ok
    assert report.failures()[0].axiom == 1


def test_missing_face_is_axiom_3_with_witness():
    complex_ = example_t_complex()
    gamma = {u: p for u, p in complex_.partitions().items() if u != frozenset([0, 1])}
    report = DiagonalComplex.of(3, gamma).validate()
    assert not report.ok
    failure = report.failures()[0]
    assert failure.axiom == 3
    assert "0,1" in failure.witness


def test_improper_partition_is_axiom_2():
    gamma = example_t_complex().partitions()
    gamma[frozenset([0, 1])] = PartialPartition.of(3, [[0, 1]])
    report = DiagonalComplex.of(3, gamma).validate()
    assert not report.ok
    assert report.failures()[0].axiom == 2


def test_is_proper():
    assert example_t_complex().is_proper()
    assert not example_t_improper().is_proper()
    assert full_simplex(4).is_proper()


def test_improper_still_validates():
    assert example_t_improper().validate().ok


def test_is_proper_requires_valid_complex():
    complex_ = example_t_complex()
    gamma = {u: p for u, p in complex_.partitions().items() if u != frozenset([0, 1])}
    broken = DiagonalComplex.of(3, gamma)
    with pytest.raises(ValueError):
        broken.is_proper()
    with pytest.raises(ValueError):
        filtration(broken, 1)


def test_every_consumer_names_the_first_axiom_failure():
    complex_ = example_t_complex()
    broken = DiagonalComplex.of(3, {u: p for u, p in complex_.partitions().items() if u != frozenset([0, 1])})
    broken = broken.labelled([0, 0, 0])
    message = f"invalid diagonal complex: {broken.validate().failures()[0].witness}"
    consumers = [
        broken.require_valid,
        broken.is_proper,
        broken.category_objects,
        lambda: hilbert_polynomial(broken),
        lambda: torus_model_betti(broken),
        lambda: torus_model_matrices(broken),
        lambda: dc_presentation(broken, {0: FiniteGroup.cyclic(2)}),
    ]
    for consumer in consumers:
        with pytest.raises(ValueError) as err:
            consumer()
        assert str(err.value) == message


def _descendants(complex_):
    """Brute-force descendance order: transitive closure of the face relation."""
    import itertools

    gamma = complex_.partitions()
    faces = {u: set() for u in gamma}
    for u, part in gamma.items():
        blocks = part.blocks
        for r in range(1, len(blocks) + 1):
            for combo in itertools.combinations(blocks, r):
                faces[u].add(frozenset(x for b in combo for x in b))
    reachable = {}
    for u in gamma:
        seen = set()
        stack = [u]
        while stack:
            w = stack.pop()
            for f in faces[w]:
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
        reachable[u] = seen
    return reachable


@pytest.mark.parametrize(
    "builder",
    [example_t_complex, example_t_improper, lambda: full_simplex(4),
     lambda: build_gamma_Fn(2), lambda: build_gamma_Fn(3)],
)
def test_proper_matches_descendance_oracle(builder):
    complex_ = builder()
    reachable = _descendants(complex_)
    oracle = all(
        (v in reachable[u]) == (v < u)
        for u in reachable
        for v in reachable
        if v != u
    )
    assert complex_.is_proper() == oracle


def test_levels(example_t):
    complex_ = example_t
    level = levels(complex_)
    # bit x stands for element x: every singleton is a simplex
    assert level(0b001) == 0
    assert level(0b011) == 1
    assert level(0b111) == 2
    assert levels(complex_, coarse=True)(0b111) == 2
    with pytest.raises(ValueError, match=r"not a simplex: \[0, 2\]"):
        level(0b101)


def test_filtration(example_t):
    complex_ = example_t
    level0 = filtration(complex_, 0)
    assert set(level0.partitions()) == {frozenset([x]) for x in range(3)}
    level1 = filtration(complex_, 1)
    assert set(level1.partitions()) == set(level0.partitions()) | {frozenset([0, 1])}
    assert filtration(complex_, 2) == complex_
    assert filtration(complex_, 99) == complex_
    for k in range(3):
        assert filtration(complex_, k).validate().ok
        assert set(filtration(complex_, k).gamma) <= set(filtration(complex_, k + 1).gamma)


def test_category_objects_example_t(example_t):
    complex_ = example_t
    objects = set(complex_.category_objects())
    expected = {
        PartialPartition.of(3, [[0]]),
        PartialPartition.of(3, [[1]]),
        PartialPartition.of(3, [[2]]),
        PartialPartition.of(3, [[0], [1]]),
        PartialPartition.of(3, [[0, 1], [2]]),
        PartialPartition.of(3, [[0, 1]]),
    }
    assert objects == expected


def test_category_objects_full_simplex_pair():
    complex_ = full_simplex(2).labelled([0, 0])
    objects = set(complex_.category_objects())
    expected = {
        PartialPartition.of(2, [[0]]),
        PartialPartition.of(2, [[1]]),
        PartialPartition.of(2, [[0], [1]]),
    }
    assert objects == expected


def test_category_objects_singletons_only():
    complex_ = DiagonalComplex.from_simplicial(3, [(0,), (1,), (2,)]).labelled([0, 1, 2])
    assert len(complex_.category_objects()) == 3


def test_category_objects_meet_closed(example_t):
    from diagcx.partitions import EMPTY_MEET, meet

    complex_ = example_t
    objects = complex_.category_objects()
    for p in objects:
        for q in objects:
            m = meet(p, q)
            assert m is EMPTY_MEET or m in objects


def test_monomial(example_t):
    complex_ = example_t
    assert complex_.monomial(0b001) == {1: 1}
    assert complex_.monomial(0b111) == {1: 1, 2: 1}
    assert complex_.monomial(0b011) == {1: 2}
    with pytest.raises(ValueError):
        complex_.monomial(0b110)


def test_labelling_eager_validation():
    complex_ = example_t_complex()
    with pytest.raises(ValueError):
        complex_.labelled([1, 2, 3])  # block {0,1} would mix labels
    with pytest.raises(ValueError):
        complex_.labelled([1, 1])  # wrong length


@pytest.mark.parametrize(
    "consumer",
    [hilbert_polynomial, lambda c: dc_presentation(c, {}), lambda c: c.monomial(0b11)],
    ids=["hilbert_polynomial", "dc_presentation", "monomial"],
)
def test_unlabelled_complex_is_refused_by_name(consumer):
    complex_ = DiagonalComplex.from_simplicial(2, [(0,), (1,), (0, 1)])
    with pytest.raises(ValueError, match="carries no labels"):
        consumer(complex_)

def test_universal_labelling(example_t):
    complex_ = example_t
    universal = complex_.universally_labelled()
    assert universal.labels[0] == universal.labels[1] != universal.labels[2]
    # the given labelling factors through the universal one
    given = example_t_labelled()
    mapping = {}
    for x in range(3):
        mapping.setdefault(universal.labels[x], set()).add(given.labels[x])
    assert all(len(v) == 1 for v in mapping.values())


def test_universal_labelling_forest_complex():
    universal = build_gamma_Fn(3).universally_labelled()
    # two pairs share a label exactly when they share their first vertex
    firsts = [i for i, _ in x_n_pairs(3)]
    assert len(set(zip(universal.labels, firsts))) == len(set(universal.labels)) == len(set(firsts))


def test_full_subcomplex(example_t):
    complex_ = example_t
    sub = full_subcomplex(complex_, [0, 1])
    assert sub.ground_size == 2
    assert set(sub.partitions()) == {frozenset([0]), frozenset([1]), frozenset([0, 1])}
    assert sub.validate().ok
    # restriction to {1, 2} keeps only the singletons
    sparse = full_subcomplex(complex_, [1, 2])
    assert set(sparse.partitions()) == {frozenset([0]), frozenset([1])}
    assert sparse.validate().ok


def test_json_roundtrip_bit_exact(example_t):
    complex_ = example_t
    text = complex_.to_json()
    restored = DiagonalComplex.from_json(text)
    assert restored == complex_
    assert restored.labels == complex_.labels
    assert restored != restored.labelled(None)  # equality compares the labels too
    assert restored.to_json() == text
    # document order is stable
    assert json.loads(text)["ground"] == 3

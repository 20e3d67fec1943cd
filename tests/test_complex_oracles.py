"""The set-algebra kernels of ``complexes`` against the direct routes they replace.

The oracles below are the earlier implementations: the axiom-3 scan over
``itertools.combinations`` that rebuilds each face, the all-pairs
properness test through maximal proper subsimplices, and the all-pairs
meet closure with a union-find meet.  They are slow but plain, and the
kernels must agree with them, witness strings included.
"""

import itertools
import json
import random

import pytest

from conftest import all_partial_partitions, example_t_complex, example_t_improper
from diagcx.complexes import AxiomCheck, DiagonalComplex, ValidationReport, _meet_closure, _simplex_key
from diagcx.forests import build_gamma_Fn
from diagcx.partitions import EMPTY_MEET, PartialPartition, block_classes


def oracle_validate(complex_):
    gamma = complex_.gamma
    ordered = sorted(gamma.items(), key=lambda kv: _simplex_key(kv[0]))
    checks = []
    missing = [x for x in range(complex_.ground_size) if frozenset([x]) not in gamma]
    checks.append(AxiomCheck(1, not missing, f"missing singleton {{{missing[0]}}}" if missing else None))
    ax2 = None
    for u, part in ordered:
        if part.ground_size != complex_.ground_size:
            ax2 = f"gamma({_simplex_key(u)}) has wrong ground size"
        elif part.support != u:
            ax2 = f"gamma({_simplex_key(u)}) is not a partition of the simplex"
        elif len(u) > 1 and len(part.blocks) < 2:
            ax2 = f"gamma({_simplex_key(u)}) is not proper"
        if ax2:
            break
    checks.append(AxiomCheck(2, ax2 is None, ax2))
    checks.append(AxiomCheck(3, True) if ax2 else _oracle_axiom3(gamma, ordered))
    return ValidationReport(tuple(checks))


def _oracle_axiom3(gamma, ordered):
    for u, part in ordered:
        for r in range(1, len(part.blocks) + 1):
            for combo in itertools.combinations(part.blocks, r):
                face = frozenset(x for b in combo for x in b)
                if face not in gamma:
                    return AxiomCheck(3, False, f"face {_simplex_key(face)} of {_simplex_key(u)} missing")
                chosen = [set(b) for b in combo]
                if not all(any(set(fb) <= c for c in chosen) for fb in gamma[face].blocks):
                    return AxiomCheck(
                        3,
                        False,
                        f"gamma({_simplex_key(face)}) does not refine the blocks "
                        f"{[sorted(b) for b in combo]} of {_simplex_key(u)}",
                    )
    return AxiomCheck(3, True)


def oracle_is_proper(complex_):
    """gamma(U) is the set of complements in U of U's maximal proper subsimplices."""
    simplices = list(complex_.gamma)
    for u, part in complex_.gamma.items():
        if len(u) == 1:
            continue
        subs = [v for v in simplices if v < u]
        maximal = [v for v in subs if not any(v < w for w in subs)]
        if {u - m for m in maximal} != {frozenset(b) for b in part.blocks}:
            return False
    return True


def union_find_meet(p, q):
    """Classes of "shares a block of p or q"; those leaving the common support reach the sink."""
    common = p.support & q.support
    classes = block_classes(p.ground_size, p.blocks + q.blocks).values()
    blocks = [c for c in classes if common.issuperset(c)]
    return PartialPartition.of(p.ground_size, blocks) if blocks else EMPTY_MEET


def oracle_closure(generators):
    objects = set(generators)
    queue = list(objects)
    while queue:
        p = queue.pop()
        for q in list(objects):
            m = union_find_meet(p, q)
            if m is not EMPTY_MEET and m not in objects:
                objects.add(m)
                queue.append(m)
    return objects


# -- derived complexes -----------------------------------------------------


def _dropped_faces(complex_):
    """The complex without each non-singleton simplex in turn."""
    for u in sorted(complex_.gamma, key=_simplex_key):
        if len(u) > 1:
            gamma = {v: part for v, part in complex_.gamma.items() if v != u}
            yield DiagonalComplex(complex_.ground_size, gamma)


def _merged_blocks(complex_):
    """The complex with two blocks of one gamma(U) merged, for every U and pair of blocks."""
    for u in sorted(complex_.gamma, key=_simplex_key):
        blocks = complex_.gamma[u].blocks
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)] + [blocks[i] + blocks[j]]
            gamma = dict(complex_.gamma)
            gamma[u] = PartialPartition.of(complex_.ground_size, merged)
            yield DiagonalComplex(complex_.ground_size, gamma)


def _all_complexes_on_three_points():
    """Every assignment of an optional proper partition to the non-singletons of {0,1,2}."""
    singletons = {frozenset([x]): PartialPartition.of(3, [[x]]) for x in range(3)}
    triple_options = [None, [[0], [1], [2]], [[0, 1], [2]], [[0, 2], [1]], [[0], [1, 2]]]
    for pairs in itertools.product((False, True), repeat=3):
        for triple in triple_options:
            gamma = dict(singletons)
            for (a, b), present in zip([(0, 1), (0, 2), (1, 2)], pairs):
                if present:
                    gamma[frozenset([a, b])] = PartialPartition.of(3, [[a], [b]])
            if triple:
                gamma[frozenset([0, 1, 2])] = PartialPartition.of(3, triple)
            yield DiagonalComplex(3, gamma)


@pytest.mark.parametrize(
    "make_complex, refinement_fails",
    [
        pytest.param(example_t_complex, False, id="T"),
        pytest.param(lambda: build_gamma_Fn(3).complex, False, id="F3"),
        pytest.param(lambda: build_gamma_Fn(4).complex, True, id="F4"),
    ],
)
def test_validation_reports_match_the_combinations_scan(make_complex, refinement_fails):
    base = make_complex()
    derived = list(_dropped_faces(base)) + list(_merged_blocks(base))
    witnesses = set()
    for complex_ in [base] + derived:
        report = complex_.validate()
        assert report == oracle_validate(complex_)
        witnesses.update((c.axiom, "refine" in c.witness) for c in report.failures())
        if report.ok:
            assert complex_.is_proper() == oracle_is_proper(complex_)
    # the mutations reach axiom 2 and a missing face, and on Gamma(F_4) a face that does not refine
    assert witnesses == {(2, False), (3, False)} | ({(3, True)} if refinement_fails else set())


def test_every_complex_on_three_points_matches_the_oracles():
    verdicts = set()
    for complex_ in _all_complexes_on_three_points():
        report = complex_.validate()
        assert report == oracle_validate(complex_)
        if report.ok:
            proper = complex_.is_proper()
            assert proper == oracle_is_proper(complex_)
            verdicts.add(proper)
    assert verdicts == {True, False}


def test_refinement_witness_names_the_chosen_blocks():
    # gamma({0,1,2,3}) = {0,1} | {2} | {3}, but gamma({0,1,2}) splits {1,2} across two of them
    gamma = {
        (0,): [[0]], (1,): [[1]], (2,): [[2]], (3,): [[3]],
        (0, 1): [[0], [1]], (1, 2): [[1], [2]], (2, 3): [[2], [3]],
        (0, 1, 2): [[0], [1, 2]], (0, 1, 3): [[0, 1], [3]],
        (0, 1, 2, 3): [[0, 1], [2], [3]],
    }
    complex_ = DiagonalComplex(4, {frozenset(u): PartialPartition.of(4, p) for u, p in gamma.items()})
    report = complex_.validate()
    assert report == oracle_validate(complex_)
    assert report.failures()[0].witness == "gamma(0,1,2) does not refine the blocks [[0, 1], [2]] of 0,1,2,3"


def test_axiom_3_reports_the_first_face_in_combinations_order():
    # both {2,3} and {0,1} are missing; combinations order tries the block {2,3} first
    gamma = {frozenset([x]): PartialPartition.of(4, [[x]]) for x in range(4)}
    gamma[frozenset(range(4))] = PartialPartition.of(4, [[0], [1], [2, 3]])
    complex_ = DiagonalComplex(4, gamma)
    assert complex_.validate() == oracle_validate(complex_)
    assert complex_.validate().failures()[0].witness == "face 2,3 of 0,1,2,3 missing"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_proper_matches_the_all_pairs_scan_on_forest_complexes(n):
    complex_ = build_gamma_Fn(n).complex
    assert complex_.is_proper() is oracle_is_proper(complex_) is True


def test_is_proper_matches_the_all_pairs_scan_on_other_complexes():
    improper = example_t_improper()
    assert improper.is_proper() is oracle_is_proper(improper) is False
    # Gamma(F_4) without one maximal simplex stays valid
    valid = [c for c in _dropped_faces(build_gamma_Fn(4).complex) if c.validate().ok]
    assert valid
    for complex_ in valid:
        assert complex_.is_proper() == oracle_is_proper(complex_)


def test_validation_report_is_memoised():
    complex_ = build_gamma_Fn(3).complex
    assert complex_.validate() is complex_.validate()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_category_objects_match_the_all_pairs_closure(n):
    fc = build_gamma_Fn(n)
    objects = fc.complex.category_objects(fc.labelling)
    assert list(objects) == sorted(objects, key=lambda part: part.blocks)
    assert set(objects) == oracle_closure(fc.complex.gamma.values())


def test_category_objects_of_a_permuted_complex_file():
    fc = build_gamma_Fn(4)
    rng = random.Random(4)
    perm = list(range(fc.complex.ground_size))
    rng.shuffle(perm)
    document = json.loads(fc.complex.to_json(fc.labelling))
    rng.shuffle(document["simplices"])
    simplices = [sorted(perm[x] for x in s) for s in document["simplices"]]
    gamma = {
        ",".join(map(str, sorted(perm[x] for x in map(int, key.split(","))))): [
            [perm[x] for x in block] for block in blocks
        ]
        for key, blocks in document["gamma"].items()
    }
    labels = [0] * len(perm)
    for x, label in enumerate(document["labels"]):
        labels[perm[x]] = label
    text = json.dumps({"ground": document["ground"], "simplices": simplices, "gamma": gamma, "labels": labels})
    complex_, labelling = DiagonalComplex.from_json(text)
    objects = set(complex_.category_objects(labelling))
    assert objects == oracle_closure(complex_.gamma.values())
    assert len(objects) == 188


def test_example_t_objects_match_the_all_pairs_closure(example_t):
    complex_, labelling = example_t
    assert set(complex_.category_objects(labelling)) == oracle_closure(complex_.gamma.values())


def test_meet_closure_reaches_meets_of_three_generators():
    # no meet of two of these is {0,1,2,3}, but their meet of all three is
    g1 = PartialPartition.of(6, [[0, 1], [2], [3]])
    g2 = PartialPartition.of(6, [[0], [1, 2], [3], [4]])
    g3 = PartialPartition.of(6, [[0], [1], [2, 3], [5]])
    closure = set(_meet_closure([g1, g2, g3]))
    assert PartialPartition.of(6, [[0, 1, 2, 3]]) in closure
    assert closure == oracle_closure([g1, g2, g3])


def test_meet_closure_matches_the_all_pairs_closure_on_random_families():
    parts = all_partial_partitions(4)
    rng = random.Random(11)
    for _ in range(60):
        generators = rng.sample(parts, rng.randint(1, 6))
        assert set(_meet_closure(generators)) == oracle_closure(generators)

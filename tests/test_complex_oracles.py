"""The set-algebra kernels of ``complexes`` against the direct routes they replace.

The oracles below are the earlier implementations: the axiom-3 scan over
``itertools.combinations`` that rebuilds each face, the all-pairs
properness test through maximal proper subsimplices, and the all-pairs
meet closure with a union-find meet.  They are slow but plain, and the
kernels must agree with them, witness strings included.  The Möbius sum
over the category objects checks the objects and their order against
the simplex count, through no code of the closure.
"""

import collections
import itertools
import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_partial_partitions, example_t_complex, example_t_improper
from diagcx import complexes
from diagcx.bipartite import enumerate_bipartite_forests, partial_partition_of
from diagcx.complexes import AxiomCheck, DiagonalComplex, _meet_closure, _simplex_key
from diagcx.forests import build_gamma_Fn
from diagcx.partitions import EMPTY_MEET, PartialPartition, block_classes, is_partial_coarsening, to_mask
from diagcx.partitions import meet as partitions_meet
from diagcx.series import hilbert_polynomial

GOLDEN_INPUTS = pathlib.Path(__file__).with_name("golden") / "inputs"


def oracle_validate(complex_):
    gamma = complex_.partitions()
    ordered = sorted(gamma.items(), key=lambda kv: _simplex_key(kv[0]))
    checks = []
    missing = [x for x in range(complex_.ground_size) if frozenset([x]) not in gamma]
    checks.append(AxiomCheck(1, not missing, f"missing singleton {{{missing[0]}}}" if missing else None))
    ax2 = None
    for u, part in ordered:
        if part.support != u:
            ax2 = f"gamma({_simplex_key(u)}) is not a partition of the simplex"
        elif len(u) > 1 and len(part.blocks) < 2:
            ax2 = f"gamma({_simplex_key(u)}) is not proper"
        if ax2:
            break
    checks.append(AxiomCheck(2, ax2 is None, ax2))
    checks.append(AxiomCheck(3, True) if ax2 else _oracle_axiom3(gamma, ordered))
    return tuple(checks)


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
    gamma = complex_.partitions()
    for u, part in gamma.items():
        if len(u) == 1:
            continue
        subs = [v for v in gamma if v < u]
        maximal = [v for v in subs if not any(v < w for w in subs)]
        if {u - m for m in maximal} != {frozenset(b) for b in part.blocks}:
            return False
    return True


def union_find_meet(p, q):
    """Classes of "shares a block of p or q"; those leaving the common support reach the sink.

    The union-find runs on the two supports relabelled 0..k-1, so its cost follows them, not the ground.
    """
    support_p, support_q = p.support, q.support
    common, elements = support_p & support_q, sorted(support_p | support_q)
    index = {x: i for i, x in enumerate(elements)}
    classes = block_classes(len(elements), [[index[x] for x in b] for b in p.blocks + q.blocks]).values()
    blocks = [c for c in ([elements[i] for i in c] for c in classes) if common.issuperset(c)]
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


def _keyed_by_masks(parts):
    """Each partition under its block masks, bit x standing for element x."""
    return {tuple(to_mask(block, range(p.ground_size)) for block in p.blocks): p for p in parts}


def _shuffled(mapping, seed):
    """The same dict, its items in a shuffled order."""
    items = list(mapping.items())
    random.Random(seed).shuffle(items)
    return dict(items)


def _check_report(complex_):
    """validate() against the combinations scan, and the maximal-face decision against the scan's pass or fail."""
    checks = complex_.validate()
    expected = oracle_validate(complex_)
    assert checks == expected
    assert complex_._maximal_faces_hold() == (expected[1].passed and expected[2].passed)
    return checks


def _failures(checks):
    return [c for c in checks if not c.passed]


# -- derived complexes -----------------------------------------------------


def _dropped_faces(complex_):
    """The complex without each non-singleton simplex in turn."""
    partitions = complex_.partitions()
    for u in sorted(partitions, key=_simplex_key):
        if len(u) > 1:
            gamma = {v: part for v, part in partitions.items() if v != u}
            yield DiagonalComplex.of(complex_.ground_size, gamma)


def _merged_blocks(complex_):
    """The complex with two blocks of one gamma(U) merged, for every U and pair of blocks."""
    partitions = complex_.partitions()
    for u in sorted(partitions, key=_simplex_key):
        blocks = partitions[u].blocks
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)] + [blocks[i] + blocks[j]]
            gamma = dict(partitions)
            gamma[u] = PartialPartition.of(complex_.ground_size, merged)
            yield DiagonalComplex.of(complex_.ground_size, gamma)


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
            yield DiagonalComplex.of(3, gamma)


@pytest.mark.parametrize(
    "make_complex, refinement_fails",
    [
        pytest.param(example_t_complex, False, id="T"),
        pytest.param(lambda: build_gamma_Fn(3), False, id="F3"),
        pytest.param(lambda: build_gamma_Fn(4), True, id="F4"),
    ],
)
def test_validation_reports_match_the_combinations_scan(make_complex, refinement_fails):
    base = make_complex()
    derived = list(_dropped_faces(base)) + list(_merged_blocks(base))
    witnesses = set()
    for complex_ in [base] + derived:
        checks = _check_report(complex_)
        witnesses.update((c.axiom, "refine" in c.witness) for c in _failures(checks))
        if all(c.passed for c in checks):
            assert complex_.is_proper() == oracle_is_proper(complex_)
    # the mutations reach axiom 2 and a missing face, and on Gamma(F_4) a face that does not refine
    assert witnesses == {(2, False), (3, False)} | ({(3, True)} if refinement_fails else set())


def test_every_complex_on_three_points_matches_the_oracles():
    verdicts = set()
    for complex_ in _all_complexes_on_three_points():
        checks = _check_report(complex_)
        if all(c.passed for c in checks):
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
    complex_ = DiagonalComplex.of(4, {frozenset(u): PartialPartition.of(4, p) for u, p in gamma.items()})
    checks = complex_.validate()
    assert checks == oracle_validate(complex_)
    assert _failures(checks)[0].witness == "gamma(0,1,2) does not refine the blocks [[0, 1], [2]] of 0,1,2,3"


def test_axiom_3_reports_the_first_face_in_combinations_order():
    # both {2,3} and {0,1} are missing; combinations order tries the block {2,3} first
    gamma = {frozenset([x]): PartialPartition.of(4, [[x]]) for x in range(4)}
    gamma[frozenset(range(4))] = PartialPartition.of(4, [[0], [1], [2, 3]])
    complex_ = DiagonalComplex.of(4, gamma)
    assert complex_.validate() == oracle_validate(complex_)
    assert _failures(complex_.validate())[0].witness == "face 2,3 of 0,1,2,3 missing"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_proper_matches_the_all_pairs_scan_on_forest_complexes(n):
    complex_ = build_gamma_Fn(n)
    assert complex_.is_proper() is oracle_is_proper(complex_) is True


def test_is_proper_matches_the_all_pairs_scan_on_other_complexes():
    improper = example_t_improper()
    assert improper.is_proper() is oracle_is_proper(improper) is False
    # Gamma(F_4) without one maximal simplex stays valid
    valid = [c for c in _dropped_faces(build_gamma_Fn(4)) if all(check.passed for check in c.validate())]
    assert valid
    for complex_ in valid:
        assert complex_.is_proper() == oracle_is_proper(complex_)


def test_validation_report_is_memoised():
    complex_ = build_gamma_Fn(3)
    assert complex_.validate() is complex_.validate()


def test_maximal_faces_miss_no_face_below_them():
    # every maximal face of 0,1,2,3 is present, but the face 2,3 of 0,2,3 (and of 0,1,2,3) is not;
    # the first failure in key order is named on 0,1,2,3, not on the face where the pass stops
    gamma = {frozenset(u): PartialPartition.of(4, [[x] for x in u])
             for r in range(1, 5) for u in itertools.combinations(range(4), r) if u != (2, 3)}
    complex_ = DiagonalComplex.of(4, gamma)
    assert _failures(_check_report(complex_))[0].witness == "face 2,3 of 0,1,2,3 missing"


def test_validate_of_gamma_f6_passes_within_120_ms():
    complex_ = build_gamma_Fn(6)
    times = []
    for _ in range(3):
        complex_._report = None
        start = time.perf_counter()
        checks = complex_.validate()
        times.append(time.perf_counter() - start)
    assert checks == (AxiomCheck(1, True), AxiomCheck(2, True), AxiomCheck(3, True))
    assert min(times) < 0.12, times


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_category_objects_match_the_all_pairs_closure(n):
    complex_ = build_gamma_Fn(n)
    objects = complex_.category_objects()
    assert list(objects) == sorted(objects, key=lambda part: part.blocks)
    assert set(objects) == oracle_closure(complex_.partitions().values())


def test_category_objects_of_a_permuted_complex_file():
    forest_complex = build_gamma_Fn(4)
    rng = random.Random(4)
    perm = list(range(forest_complex.ground_size))
    rng.shuffle(perm)
    document = json.loads(forest_complex.to_json())
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
    complex_ = DiagonalComplex.from_json(text)
    objects = set(complex_.category_objects())
    assert objects == oracle_closure(complex_.partitions().values())
    assert len(objects) == 188


def test_category_objects_do_not_depend_on_the_generator_order():
    f4 = build_gamma_Fn(4)
    expected = oracle_closure(f4.partitions().values())
    for seed in range(3):
        complex_ = DiagonalComplex(f4.ground_size, f4.elements, _shuffled(f4.gamma, seed))
        assert set(complex_.category_objects()) == expected


def test_category_objects_build_each_new_object_once(monkeypatch):
    # Gamma(F_4) has 124 generators and 188 objects: 64 meets, one per object that is no generator
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return partitions_meet(p, q)

    monkeypatch.setattr(complexes, "meet", counted)
    complex_ = build_gamma_Fn(4)
    objects = complex_.category_objects()
    assert (len(complex_.gamma), len(objects), len(calls)) == (124, 188, 64)


def test_category_objects_of_gamma_f5_are_the_bipartite_forests_within_2_5_s():
    complex_ = build_gamma_Fn(5)
    start = time.perf_counter()
    objects = complex_.category_objects()
    elapsed = time.perf_counter() - start
    assert len(objects) == 2575
    assert set(objects) == {partial_partition_of(f) for f in enumerate_bipartite_forests(5)}
    assert elapsed < 2.5, elapsed


def test_example_t_objects_match_the_all_pairs_closure(example_t):
    complex_ = example_t
    assert set(complex_.category_objects()) == oracle_closure(complex_.partitions().values())


def mobius_sum(complex_):
    """Σ_P −μ(P, 1̂) ∏_{blocks B of P} (1 + x_label(B)), and μ(⊥, 1̂).

    P runs over the category objects and ⊥, the empty partition, ordered
    by partial coarsening with a top 1̂ adjoined.  The image of a meet is
    the intersection of the images, so inclusion-exclusion over this
    lattice counts the simplices by block-label monomial: the sum is
    1 + H(x), H the Hilbert polynomial (Rota 1964; Stanley, *Enumerative
    Combinatorics* 1, §3.7).  A monomial is the sorted tuple of its labels,
    with repeats.
    """
    bottom = PartialPartition(complex_.ground_size, ())
    # Q > P has a larger support, or the same support in more blocks, so every Q > P comes before P
    objects = [bottom, *complex_.category_objects()]
    objects.sort(key=lambda p: (len(p.support), len(p.blocks)), reverse=True)
    mu, total = {}, collections.Counter()
    for p in objects:
        mu[p] = -1 - sum(m for q, m in mu.items() if is_partial_coarsening(p, q))  # μ(1̂, 1̂) = 1
        labels = [complex_.labels[block[0]] for block in p.blocks]
        for r in range(len(labels) + 1):
            for chosen in itertools.combinations(labels, r):
                total[tuple(sorted(chosen))] -= mu[p]
    return {monomial: c for monomial, c in total.items() if c}, mu[bottom]


def one_plus_hilbert(complex_):
    """1 + H(x), each monomial spelt as in :func:`mobius_sum`."""
    h = hilbert_polynomial(complex_)
    terms = {(): 1}
    for exponents, c in h.terms:
        terms[tuple(v for v, e in zip(h.variables, exponents) for _ in range(e))] = c
    return terms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mobius_sum_over_the_objects_of_gamma_fn_is_one_plus_the_hilbert_polynomial(n):
    # at x = -1 only ⊥ is left: -μ(⊥, 1̂) = 1 + H(-1), and H(-1) = (1 - n)^(n - 1) - 1 from the word count
    complex_ = build_gamma_Fn(n)
    assert mobius_sum(complex_) == (one_plus_hilbert(complex_), -((1 - n) ** (n - 1)))


def test_mobius_sum_over_example_t_and_a_permuted_complex_file(example_t):
    permuted = DiagonalComplex.from_json((GOLDEN_INPUTS / "f4-permuted.json").read_text(encoding="utf-8"))
    for complex_ in (example_t, permuted):
        assert mobius_sum(complex_)[0] == one_plus_hilbert(complex_)


def _labels_constant_on_blocks(complex_, objects):
    return all(len({complex_.labels[x] for x in block}) == 1 for part in objects for block in part.blocks)


def test_category_objects_of_gamma_f4_keep_the_labels_constant_on_every_block():
    # a block of a meet is a chain of overlapping blocks of its arguments, so it takes their one label
    forest_complex = build_gamma_Fn(4)
    for complex_ in (forest_complex, forest_complex.universally_labelled()):
        assert _labels_constant_on_blocks(complex_, complex_.category_objects())



def test_meet_closure_reaches_meets_of_three_generators():
    # no meet of two of these is {0,1,2,3}, but their meet of all three is
    g1 = PartialPartition.of(6, [[0, 1], [2], [3]])
    g2 = PartialPartition.of(6, [[0], [1, 2], [3], [4]])
    g3 = PartialPartition.of(6, [[0], [1], [2, 3], [5]])
    expected = oracle_closure([g1, g2, g3])
    assert PartialPartition.of(6, [[0, 1, 2, 3]]) in expected
    for order in itertools.permutations([g1, g2, g3]):
        assert set(_meet_closure(_keyed_by_masks(order))) == expected


def test_meet_closure_matches_the_all_pairs_closure_on_random_families():
    parts = all_partial_partitions(4)
    rng = random.Random(11)
    for _ in range(60):
        generators = rng.sample(parts, rng.randint(1, 6))
        assert set(_meet_closure(_keyed_by_masks(generators))) == oracle_closure(generators)


# -- property tests of the mask kernels --------------------------------------


def _spread(n, stretch, offset):
    """Element numbers for points 0..n-1: the identity, or far apart, so bit i is not element i."""
    return [offset + stretch * x for x in range(n)]


@st.composite
def flag_complexes(draw):
    """Flag complexes of random graphs on up to 7 points, with coarser partitions on larger cliques.

    gamma(U) is U split by the colouring of its size, and each colouring
    merges classes of the one before, so every face refines the blocks
    it is made of: the complex is valid when no clique lies in one class
    of its colouring, and improper when a class of U holds two points.  A
    merge of two blocks, a split into singletons, a dropped simplex or a
    singleton beyond the points breaks an axiom.  The points may also be numbered far apart.
    """
    n = draw(st.integers(1, 7))
    edges = {pair for pair in itertools.combinations(range(n), 2) if draw(st.integers(0, 3))}
    colourings = [list(range(n))] * 3  # sizes 0, 1 and 2: singletons, so edges are proper
    for _ in range(3, n + 1):
        merge = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        colourings.append([merge[c] for c in colourings[-1]])
    cliques = [
        u for r in range(1, n + 1) for u in itertools.combinations(range(n), r)
        if all(pair in edges for pair in itertools.combinations(u, 2))
    ]
    partitions = {}
    for u in cliques:
        colour = colourings[len(u)]
        blocks = [[x for x in u if colour[x] == c] for c in sorted({colour[x] for x in u})]
        roll = draw(st.integers(0, 19))
        if roll == 0 and len(blocks) > 2:
            blocks = [blocks[0] + blocks[-1]] + blocks[1:-1]
        elif roll == 1:  # finer than its faces of three or more points, which then need not refine it
            blocks = [[x] for x in u]
        partitions[u] = blocks
    if draw(st.integers(0, 4)) == 0:
        del partitions[draw(st.sampled_from(cliques))]
    names = _spread(n, *draw(st.sampled_from([(1, 0)] * 3 + [(1, 3), (97, 5), (1000, 999)])))
    ground = names[-1] + 1 + draw(st.sampled_from([0, 0, 0, 1, 500]))
    return DiagonalComplex.of(ground, {
        frozenset(names[x] for x in u): PartialPartition.of(ground, [[names[x] for x in b] for b in blocks])
        for u, blocks in partitions.items()
    })


@st.composite
def families(draw):
    """Partial partitions on up to 7 points, often holding three whose meet no two of them reach."""
    n = draw(st.integers(1, 7))
    part = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n).map(
        lambda tags: [[x for x in range(n) if tags[x] == t] for t in sorted(set(tags) - {-1})]
    )
    generators = draw(st.lists(part.filter(bool), min_size=1, max_size=5))
    if n >= 4 and draw(st.booleans()):  # gamma-like chains: {0,1}|{2}|{3}, {0}|{1,2}|{3}|{4}, {0}|{1}|{2,3}|{5}
        order = draw(st.permutations(range(n)))
        extra = [[order[4]]] if n > 4 else []
        generators += [[[order[0], order[1]], [order[2]], [order[3]]],
                       [[order[0]], [order[1], order[2]], [order[3]]] + extra,
                       [[order[0]], [order[1]], [order[2], order[3]]]]
    # element numbers up to the thousands, so bit i is not element i
    names = _spread(n, *draw(st.sampled_from([(1, 0), (61, 7), (90, 300)])))
    ground = names[-1] + 1
    return [PartialPartition.of(ground, [[names[x] for x in b] for b in blocks]) for blocks in generators]


def _as_file(complex_):
    """The complex as complex JSON, its simplices, blocks and members listed out of order."""
    partitions = complex_.partitions()
    simplices = [sorted(u, reverse=True) for u in partitions][::-1]
    gamma = {_simplex_key(u): [sorted(b, reverse=True) for b in part.blocks][::-1] for u, part in partitions.items()}
    return json.dumps({"ground": complex_.ground_size, "simplices": simplices, "gamma": gamma})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flag_complexes())
def test_mask_kernels_match_the_oracles_on_flag_complexes(complex_):
    checks = _check_report(complex_)
    assert DiagonalComplex.from_json(_as_file(complex_)) == complex_
    labelled = complex_.universally_labelled()
    restored = DiagonalComplex.from_json(labelled.to_json())
    assert restored == labelled and restored.labels == labelled.labels
    if all(c.passed for c in checks):
        assert complex_.is_proper() == oracle_is_proper(complex_)
        objects = labelled.category_objects()
        assert set(objects) == oracle_closure(complex_.partitions().values())
        assert _labels_constant_on_blocks(labelled, objects)
        assert mobius_sum(labelled)[0] == one_plus_hilbert(labelled)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(families())
def test_meet_closure_matches_the_oracle_on_sparse_families(generators):
    elements = sorted({x for g in generators for b in g.blocks for x in b})
    bit = {x: i for i, x in enumerate(elements)}
    keyed = {tuple(to_mask(b, bit) for b in g.blocks): g for g in generators}
    expected = oracle_closure(generators)
    for seed in range(3):
        assert set(_meet_closure(_shuffled(keyed, seed))) == expected

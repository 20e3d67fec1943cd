"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either frozen from an independent
computation or cross-checked against a second route inside the test.
"""

import itertools
import time

from diagcx.bipartite import enumerate_bipartite
from diagcx.forests import (
    PlantedForest,
    build_gamma_Fn,
    enumerate_forests,
    orbit_decomposition,
    prufer_decode,
    prufer_encode,
)
from diagcx.groups import FiniteGroup
from diagcx.homology import coset_nerve, simplicial_homology, torus_model_betti
from diagcx.partitions import EMPTY_MEET, meet
from diagcx.present import (
    forest_dc_presentation,
    literal_pairwise_commutator_checks,
    verify_relations,
)
from diagcx.series import (
    MultiPoly,
    circle_series,
    cyclic_classifying_series,
    forest_hilbert_closed_form,
    free_product_series,
    hilbert_polynomial,
    series_Wh_Zp,
    series_Wh_free,
    substitute,
)

from conftest import all_partial_partitions


def report(number, name):
    print(f"criterion {number:2d} ({name}): PASS")


def test_criterion_01_forest_counts():
    start = time.monotonic()
    counts = [sum(1 for _ in enumerate_forests(n)) for n in range(2, 7)]
    elapsed = time.monotonic() - start
    assert counts == [2, 15, 124, 1295, 16806]
    assert counts == [(n + 1) ** (n - 1) - 1 for n in range(2, 7)]
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    report(1, "forest counts n=2..6")


def test_criterion_02_forest_complex_validity():
    start = time.monotonic()
    for n in range(2, 6):
        complex_ = build_gamma_Fn(n)
        assert complex_.validate().ok, n
        assert complex_.is_proper(), n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    report(2, "forest complex validates and is proper n=2..5")


def test_criterion_03_hilbert_series_identity():
    for n in range(2, 6):
        complex_ = build_gamma_Fn(n)
        h = hilbert_polynomial(complex_)
        # h has no constant term, so adding the empty forest's is exact
        assert MultiPoly.of(h.variables, {**dict(h.terms), (0,) * n: 1}) == forest_hilbert_closed_form(n), n
    report(3, "word-count closed form n=2..5")


def test_criterion_04_direct_product_series_identity():
    truncation = 8
    palette = {"circle": circle_series(truncation)}
    palette.update((f"Z/{m}", cyclic_classifying_series(m, truncation)) for m in (2, 3, 4, 5))
    cycles = (["circle", "Z/2", "Z/3"], ["Z/3", "circle", "Z/2"])
    lists = {
        n: [[name] * n for name in ("circle", "Z/2", "Z/3")] + [[c[v % 3] for v in range(1, n + 1)] for c in cycles]
        for n in range(2, 6)
    }
    # Γ(F_6) has 16806 simplices: two lists keep the substitution oracle near 2 s
    lists[6] = [["Z/2"] * 6, ["circle", "Z/4", "Z/2", "circle", "Z/5", "Z/3"]]
    for n, factor_lists in lists.items():
        complex_ = build_gamma_Fn(n)
        h = hilbert_polynomial(complex_)
        for names in factor_lists:
            assignment = {v: palette[names[v - 1]] for v in h.variables}
            lhs = substitute(h, assignment)
            rhs = free_product_series([assignment[v] for v in h.variables]).pow(n - 1)
            assert lhs == rhs, (n, names)
    report(4, "homology series equals the direct-product power n<=6")


def test_criterion_05_free_factor_series():
    for n in range(2, 7):
        coeffs, chi = series_Wh_free(n)
        assert coeffs == [
            _binomial(n - 1, k) * n**k for k in range(n)
        ]
        assert chi == (1 - n) ** (n - 1)
        assert chi == sum((-1) ** k * c for k, c in enumerate(coeffs))
    assert series_Wh_free(3) == ([1, 6, 9], 4)
    report(5, "series (1+tn)^(n-1) and Euler characteristic n=2..6")


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_criterion_06_torsion_factor_series():
    truncation = 12
    for n in range(1, 5):
        for p in (2, 3):
            direct = series_Wh_Zp(n, p, truncation)
            if n == 1:
                assert direct.coeffs[0].free_rank == 1
                assert all(c.is_zero for c in direct.coeffs[1:])
                continue
            complex_ = build_gamma_Fn(n)
            h = hilbert_polynomial(complex_)
            assignment = {v: cyclic_classifying_series(p, truncation) for v in h.variables}
            assert direct == substitute(h, assignment), (n, p)
    report(6, "closed-form torsion series matches substitution n<=4, p=2,3")


def test_criterion_07_independent_homology_ranks():
    start = time.monotonic()
    assert torus_model_betti(build_gamma_Fn(2)) == [1, 2]
    assert torus_model_betti(build_gamma_Fn(3)) == [1, 6, 9]
    assert torus_model_betti(build_gamma_Fn(4)) == [1, 12, 48, 64]
    assert torus_model_betti(build_gamma_Fn(5)) == [1, 20, 150, 500, 625]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    report(7, "chain-level Betti numbers by exact rank n<=5")


def test_criterion_08_colored_orbits():
    rows = orbit_decomposition(3, (2, 1))
    assert len(rows) == 8
    for row in rows:
        assert row.orbit_size * row.stabilizer_order == 2
    reps = {tuple(r.representative.forest.to_json()) for r in rows}
    assert reps == {
        (-1, -1, 1), (-1, 1, -1), (-1, 3, -1), (-1, 1, 1),
        (-1, 1, 2), (-1, 3, 1), (2, 3, -1), (3, 3, -1),
    }
    report(8, "eight coloured orbits with orbit-stabilizer identity")


def test_criterion_09_prufer_bijection():
    for n in range(1, 6):
        for forest in enumerate_forests(n, include_empty=True):
            assert prufer_decode(prufer_encode(forest)) == forest
    for n in range(1, 5):
        for word in itertools.product(range(n + 1), repeat=n - 1):
            assert prufer_encode(prufer_decode(word)) == word
    worked = PlantedForest.of(6, {1: 2, 6: 2, 4: 1, 3: 5})
    assert prufer_encode(worked) == (2, 1, 5, 0, 2)
    report(9, "word bijection round trips; worked example encodes to 2,1,5,0,2")


def test_criterion_10_presentation_soundness():
    z2, z3, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4)
    v4 = FiniteGroup.direct_product(z2, z2)
    configurations = [
        (2, [z4, z4]),
        (3, [z2, z3, z4]),
        (3, [z4, v4, z3]),
        (4, [z2, z2, z2, z2]),
        (4, [z2, z3, z2, z2]),
    ]
    for n, factors in configurations:
        presentation = forest_dc_presentation(n, factors)
        result = verify_relations(presentation, factors)
        assert result.all_passed, (n, result.failures()[:2])
    s3 = FiniteGroup.symmetric(3)
    literal = literal_pairwise_commutator_checks([s3, s3])
    failures = [c for c in literal if not c.passed]
    assert failures, "the unrestricted commutator must fail at n=2"
    assert all(c.witness is not None for c in failures)
    report(10, "relations pass the automorphism oracle; literal variant fails")


def test_criterion_11_object_sets_small():
    for n in (2, 3):
        complex_ = build_gamma_Fn(n)
        objects = set(complex_.category_objects())
        assert objects == set(enumerate_bipartite(n)), n
    report(11, "bipartite partitions equal category objects n<=3")


def test_criterion_11_object_sets_n4():
    start = time.monotonic()
    complex_ = build_gamma_Fn(4)
    objects = set(complex_.category_objects())
    realised = set(enumerate_bipartite(4))
    elapsed = time.monotonic() - start
    assert objects == realised
    assert len(objects) == 188
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    report(11, "bipartite partitions equal category objects at n=4")


def test_criterion_12_meet_semantics():
    for n in (1, 2, 3, 4):
        parts = all_partial_partitions(n)
        basepoint = {tuple([0] * n)}
        for p in parts:
            assert meet(p, p) == p
            for q in parts:
                m = meet(p, q)
                assert m == meet(q, p)
                expected = _image(p, n) & _image(q, n)
                if m is EMPTY_MEET:
                    assert expected == basepoint
                else:
                    assert expected == _image(m, n)
        if n <= 3:
            for p, q, r in itertools.product(parts, repeat=3):
                left = meet(p, q)
                left = left if left is EMPTY_MEET else meet(left, r)
                right = meet(q, r)
                right = right if right is EMPTY_MEET else meet(p, right)
                assert left == right
    # associativity at n=4 on a deterministic sample
    parts = all_partial_partitions(4)
    sample = parts[::3]
    for p, q, r in itertools.product(sample, repeat=3):
        left = meet(p, q)
        left = left if left is EMPTY_MEET else meet(left, r)
        right = meet(q, r)
        right = right if right is EMPTY_MEET else meet(p, right)
        assert left == right
    report(12, "meet laws and pointed-set oracle, ground size <= 4")


def _image(p, n):
    image = set()
    for values in itertools.product((0, 1), repeat=len(p.blocks)):
        point = [0] * n
        for block, v in zip(p.blocks, values):
            for x in block:
                point[x] = v
        image.add(tuple(point))
    return image


def test_criterion_13_coset_nerves():
    cyclic = FiniteGroup.cyclic
    product = FiniteGroup.direct_product
    groups = [
        cyclic(1), cyclic(2), cyclic(3), cyclic(4), product(cyclic(2), cyclic(2)),
        cyclic(5), cyclic(6), FiniteGroup.symmetric(3), cyclic(7), cyclic(8),
        product(cyclic(4), cyclic(2)), product(product(cyclic(2), cyclic(2)), cyclic(2)),
        FiniteGroup.dihedral(4), FiniteGroup.quaternion(),
    ]
    for group in groups:
        nerve, _ = coset_nerve(group, list(group.subgroups()))
        assert simplicial_homology(nerve, 3) == [(1, ()), (0, ()), (0, ()), (0, ())], group.order
    klein = product(cyclic(2), cyclic(2))
    halves = [s for s in klein.subgroups() if len(s) == 2]
    nerve, cosets = coset_nerve(klein, [frozenset([0]), halves[0], halves[1]])
    assert len(cosets) == 8
    assert simplicial_homology(nerve, 1) == [(1, ()), (1, ())]
    report(13, "coset nerves: acyclic families and the Klein-four circle")

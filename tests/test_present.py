import random

import pytest

from diagcx.groups import FiniteGroup, group_from_descriptor
from diagcx.present import (
    Automorphism,
    apply_partial_conjugation,
    export_gap,
    forest_dc_presentation,
    fr_presentation,
    literal_pairwise_commutator_checks,
    normal_form,
    probe_words,
    verify_relations,
)

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
Z4 = FiniteGroup.cyclic(4)
V4 = FiniteGroup.direct_product(Z2, Z2)
S3 = FiniteGroup.symmetric(3)


# -- groups --------------------------------------------------------------------


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity


def test_group_constructors():
    assert S3.order == 6
    assert FiniteGroup.dihedral(4).order == 8
    assert FiniteGroup.quaternion().order == 8
    assert V4.order == 4
    # quaternion: every nonidentity element squares into the centre
    q8 = FiniteGroup.quaternion()
    squares = {q8.mul(g, g) for g in q8.nonidentity()}
    assert squares == {0, 1}


def test_group_descriptor_parsing():
    assert group_from_descriptor("Z/4").order == 4
    assert group_from_descriptor("Z/4Z").order == 4
    assert group_from_descriptor("Z/2xZ/3").order == 6
    assert group_from_descriptor("V4").table == V4.table
    assert group_from_descriptor("Q8").order == 8
    with pytest.raises(ValueError):
        group_from_descriptor("F_2")


def test_subgroups_and_cosets():
    subs = V4.subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]
    two = [s for s in subs if len(s) == 2][0]
    cosets = V4.cosets(two)
    assert len(cosets) == 2
    assert all(len(c) == 2 for c in cosets)


# -- words -----------------------------------------------------------------------


def test_normal_form_cancellation():
    groups = [Z4, Z4]
    assert normal_form(groups, [(1, 1), (1, 3)]) == ()
    assert normal_form(groups, [(1, 1), (2, 2), (2, 2), (1, 1)]) == ((1, 2),)
    word = ((1, 1), (2, 1), (1, 2))
    assert normal_form(groups, word) == word


def test_normal_form_z2_z2():
    groups = [Z2, Z2]
    assert normal_form(groups, [(1, 1), (2, 1), (2, 1), (1, 1)]) == ()


def test_normal_form_validation():
    with pytest.raises(ValueError):
        normal_form([Z2], [(2, 1)])
    with pytest.raises(ValueError):
        normal_form([Z2], [(1, 5)])


def test_word_inverse():
    groups = [Z4, Z3]
    word = ((1, 1), (2, 2), (1, 3))
    inverse = ((1, 1), (2, 1), (1, 3))
    assert normal_form(groups, word + inverse) == ()
    assert normal_form(groups, inverse + word) == ()


def test_partial_conjugation_examples():
    groups = [Z4, Z4]
    # a letter of the conjugated factor is wrapped
    assert apply_partial_conjugation(groups, 1, (2, 1), ((1, 1),)) == (
        (2, 3),
        (1, 1),
        (2, 1),
    )
    # other factors are untouched
    assert apply_partial_conjugation(groups, 1, (2, 1), ((2, 2),)) == ((2, 2),)
    # conjugating by the identity does nothing
    assert apply_partial_conjugation(groups, 1, (2, 0), ((1, 1),)) == ((1, 1),)
    with pytest.raises(ValueError):
        apply_partial_conjugation(groups, 1, (1, 1), ((1, 1),))


def _random_word(rng, groups, length):
    letters = []
    for _ in range(length):
        f = rng.randrange(1, len(groups) + 1)
        letters.append((f, rng.randrange(groups[f - 1].order)))
    return letters


def test_oracle_homomorphism_property():
    rng = random.Random(7)
    groups = [S3, Z4, Z3]
    auto = Automorphism.partial_conjugation(groups, 1, (2, 3))
    for _ in range(100):
        u = _random_word(rng, groups, rng.randrange(6))
        v = _random_word(rng, groups, rng.randrange(6))
        uv = auto.apply(normal_form(groups, u + v))
        separate = normal_form(groups, list(auto.apply(u)) + list(auto.apply(v)))
        assert uv == separate


def test_partial_conjugation_inverse():
    groups = [S3, S3]
    for g in groups[1].nonidentity():
        forward = Automorphism.partial_conjugation(groups, 1, (2, g))
        backward = Automorphism.partial_conjugation(groups, 1, (2, groups[1].inv(g)))
        assert forward.then(backward).is_identity()


def test_composition_collapses_conjugators():
    # conjugating by h then by g equals conjugating by the product g h
    groups = [Z4, Z4]
    h, g = 1, 3
    first = Automorphism.partial_conjugation(groups, 1, (2, h))
    second = Automorphism.partial_conjugation(groups, 1, (2, g))
    combined = Automorphism.partial_conjugation(groups, 1, (2, groups[1].mul(g, h)))
    assert first.then(second) == combined


def test_semidirect_consistency():
    # conjugating the oracle by a factor automorphism moves the conjugator
    groups = [Z3, Z3]
    invert = (0, 2, 1)  # the inversion automorphism of Z/3
    tau = Automorphism.factor_automorphism(groups, 2, invert)
    tau_inv = Automorphism.factor_automorphism(groups, 2, invert)
    gen = (1, 2, 1)  # conjugate factor 1 by element 1 of factor 2
    alpha = Automorphism.partial_conjugation(groups, gen[0], (gen[1], gen[2]))
    conjugated = tau_inv.then(alpha).then(tau)
    i, j, g = (1, 2, invert[1])
    assert conjugated == Automorphism.partial_conjugation(groups, i, (j, g))


def test_act_sym_matches_word_relabelling():
    # conjugating the oracle by the word relabelling relabels the generator
    groups = [Z3, Z3, Z2]
    sigma = (0, 2, 1, 3)
    sigma_inv = sigma

    def relabel(word, perm):
        return tuple((perm[f], e) for f, e in word)

    moves = {(1, 2, 1): (2, 1, 1), (2, 1, 2): (1, 2, 2), (3, 1, 1): (3, 2, 1), (1, 3, 1): (2, 3, 1)}
    for (i, j, g), (si, sj, sg) in moves.items():
        alpha = Automorphism.partial_conjugation(groups, i, (j, g))
        moved = Automorphism.partial_conjugation(groups, si, (sj, sg))
        for word in probe_words(groups):
            conjugated = relabel(alpha.apply(relabel(word, sigma_inv)), sigma)
            assert conjugated == moved.apply(word)


def test_factor_automorphism_validation():
    with pytest.raises(ValueError):
        Automorphism.factor_automorphism([Z4], 1, (0, 1, 3, 2))  # not a homomorphism


# -- presentations ----------------------------------------------------------------


def test_fr_presentation_n2():
    pres = fr_presentation(2, [Z2, Z2])
    assert len(pres.generators) == 2
    assert {r.kind for r in pres.relations} == {"mult"}


def test_fr_presentation_n3_counts():
    pres = fr_presentation(3, [Z2, Z2, Z2])
    assert len(pres.generators) == 6
    commutators = [r for r in pres.relations if r.kind == "commute"]
    assert len(commutators) == 9


def test_fr_presentation_requires_two_factors():
    with pytest.raises(ValueError):
        fr_presentation(1, [Z2])


@pytest.mark.parametrize(
    "n,factors",
    [
        (2, [Z4, Z4]),
        (3, [Z2, Z2, Z2]),
        (3, [Z4, V4, Z3]),
        (4, [Z2, Z2, Z2, Z2]),
    ],
)
def test_fr_relations_pass_oracle(n, factors):
    pres = fr_presentation(n, factors)
    report = verify_relations(pres, factors)
    assert report.all_passed, report.failures()[:3]


@pytest.mark.parametrize(
    "n,factors",
    [
        (2, [Z4, Z4]),
        (3, [Z4, V4, Z3]),
        (4, [Z2, Z2, Z2, Z2]),
    ],
)
def test_dc_relations_pass_oracle(n, factors):
    pres = forest_dc_presentation(n, factors)
    kinds = {r.kind for r in pres.relations}
    assert kinds == {"mult", "commute", "diagonal"} or n == 2
    report = verify_relations(pres, factors)
    assert report.all_passed, report.failures()[:3]


def test_dc_presentation_on_mixed_blocks():
    # ground {0,1,2}; the top simplex splits as {0,1} | {2}, so the
    # presentation carries the diagonal relation for {0,1} and the
    # commutator of the two blocks
    from conftest import example_t_complex, example_t_labelling
    from diagcx.present import dc_presentation

    complex_ = example_t_complex()
    labelling = example_t_labelling(complex_)
    pres = dc_presentation(complex_, labelling, {1: Z2, 2: Z3})
    # labelled simplices: three singletons and {0,1}; the top one is mixed
    assert len(pres.generators) == 1 + 1 + 2 + 1
    kinds = {}
    for rel in pres.relations:
        kinds.setdefault(rel.kind, []).append(rel)
    assert len(kinds["diagonal"]) == 1
    assert kinds["diagonal"][0].word[0] == ((0, 1), 1)
    commutator_pairs = {
        (rel.word[2][0], rel.word[3][0]) for rel in kinds["commute"]
    }
    assert commutator_pairs == {((0,), (1,)), ((0, 1), (2,))}


def test_dc_presentation_simplicial_is_commutators_only():
    import itertools

    from diagcx.complexes import DiagonalComplex, Labelling
    from diagcx.present import dc_presentation

    faces = [c for k in (1, 2) for c in itertools.combinations(range(3), k)]
    complex_ = DiagonalComplex.from_simplicial(3, faces)
    labelling = Labelling(complex_, [0, 1, 2])
    pres = dc_presentation(complex_, labelling, {0: Z2, 1: Z2, 2: Z2})
    assert {r.kind for r in pres.relations} == {"mult", "commute"}
    commutators = [r for r in pres.relations if r.kind == "commute"]
    assert len(commutators) == 3  # one per edge of the triangle


def test_four_term_relation_with_z3_factors():
    # conjugating factors i and k by the same g_j commutes with
    # conjugating i by any g_k; checked for i, j, k = 1, 2, 3
    groups = [Z3, Z3, Z3]
    g_j, g_k = 1, 2
    a = Automorphism.partial_conjugation(groups, 1, (2, g_j)).then(
        Automorphism.partial_conjugation(groups, 3, (2, g_j))
    )
    b = Automorphism.partial_conjugation(groups, 1, (3, g_k))
    a_inv = Automorphism.partial_conjugation(groups, 1, (2, groups[1].inv(g_j))).then(
        Automorphism.partial_conjugation(groups, 3, (2, groups[1].inv(g_j)))
    )
    b_inv = Automorphism.partial_conjugation(groups, 1, (3, groups[2].inv(g_k)))
    commutator = a_inv.then(b_inv).then(a).then(b)
    assert commutator.is_identity()


def test_literal_commutator_fails_for_nonabelian_factors():
    checks = literal_pairwise_commutator_checks([S3, S3])
    failures = [c for c in checks if not c.passed]
    assert failures, "the unrestricted relation should not hold at n=2"
    assert all(c.witness is not None for c in failures)


def test_literal_commutator_holds_with_disjoint_indices():
    # with all four indices distinct the relation is an honest consequence
    groups = [Z4, Z4, Z4, Z4]
    checks = literal_pairwise_commutator_checks(groups, entries=[(1, 2, 3, 4)])
    assert all(c.passed for c in checks)


def test_verify_report_shape():
    pres = fr_presentation(2, [Z2, Z2])
    report = verify_relations(pres, [Z2, Z2])
    assert report.all_passed
    assert len(report.checks) == len(pres.relations)


def test_probe_words_cover_lengths():
    words = probe_words([Z2, Z2])
    lengths = {len(w) for w in words}
    assert lengths == {1, 2, 3}


def test_export_gap_golden():
    pres = fr_presentation(2, [Z2, Z2])
    expected = (
        'F := FreeGroup("c1_2_g1", "c2_1_g1");;\n'
        "AssignGeneratorVariables(F);;\n"
        "rels := [\n"
        "  c1_2_g1*c1_2_g1,\n"
        "  c2_1_g1*c2_1_g1\n"
        "];;\n"
        "G := F / rels;;\n"
    )
    assert export_gap(pres) == expected


def test_presentation_json():
    pres = fr_presentation(2, [Z2, Z2])
    data = pres.to_json()
    assert data["generators"] == ["c1_2_g1", "c2_1_g1"]
    assert all(set(rel) == {"kind", "word", "source"} for rel in data["relations"])

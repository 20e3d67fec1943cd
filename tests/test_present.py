import collections
import functools
import hashlib
import itertools
import json
import random
import re

import pytest

from diagcx.groups import FiniteGroup, group_from_descriptor
from diagcx.homology import smith_normal_form
from diagcx.present import (
    Presentation,
    Relation,
    apply_partial_conjugation,
    export_gap,
    forest_dc_presentation,
    fr_presentation,
    generator_name,
    literal_pairwise_commutator_checks,
    literal_partial_conjugation_count,
    normal_form,
    partial_conjugations,
    probe_words,
    verify_relations,
)
from diagcx.series import AbelianGroup, cyclic_classifying_series, free_product_series
from present_oracle import (
    Automorphism,
    abelianisation,
    relation_automorphism,
    respelt,
    spelt_out_dc_presentation,
    two_edge_posets,
)
from series_oracle import direct_sum, scale_group

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


def test_from_permutations_refuses_what_is_not_a_closed_set_of_permutations():
    with pytest.raises(ValueError, match="at least one permutation"):
        FiniteGroup.from_permutations([])
    with pytest.raises(ValueError, match=r"not closed under composition: \(1, 2, 0\) after \(1, 2, 0\) is \(2, 0, 1\)"):
        FiniteGroup.from_permutations([(0, 1, 2), (1, 2, 0)])
    for perms in ([(0, 1), (1, 0, 2)], [(0, 1), (0, 0)], [(0, 1), (1, 5)]):
        with pytest.raises(ValueError, match=r"every permutation must rearrange \(0, 1\)"):
            FiniteGroup.from_permutations(perms)
    assert FiniteGroup.from_permutations([(0, 1, 2), (1, 2, 0), (2, 0, 1)]).table == FiniteGroup.cyclic(3).table


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


def test_quaternion_table_golden():
    # the table of the earlier string-based construction, order 1, -1, i, -i, j, -j, k, -k
    assert FiniteGroup.quaternion().table == (
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 1, 0, 6, 7, 5, 4),
        (3, 2, 0, 1, 7, 6, 4, 5),
        (4, 5, 7, 6, 1, 0, 2, 3),
        (5, 4, 6, 7, 0, 1, 3, 2),
        (6, 7, 4, 5, 3, 2, 1, 0),
        (7, 6, 5, 4, 2, 3, 0, 1),
    )


SUBGROUP_DESCRIPTORS = ["V4", "S3", "S4", "D4", "Q8"] + [f"Z/{m}" for m in range(1, 25)] + [
    "Z/2xZ/2", "Z/2xZ/4", "Z/2xZ/2xZ/2", "Z/3xZ/3", "Z/2xZ/6", "Z/2xZ/2xZ/2xZ/2", "Z/4xZ/4", "Z/2xZ/8",
    "Z/2xZ/2xZ/4", "Z/3xZ/6", "Z/2xZ/10", "Z/2xZ/2xZ/5", "Z/2xZ/12", "Z/2xZ/2xZ/6", "Z/2xZ/2xZ/2xZ/3",
]


def test_subgroup_lists_up_to_order_24_are_unchanged():
    # SHA-256 of the lists found by closing every 1-3 element subset plus the
    # whole group: complete up to order 24, where only (Z/2)^4 itself needs 4 generators
    lists = {d: [sorted(s) for s in group_from_descriptor(d).subgroups()] for d in SUBGROUP_DESCRIPTORS}
    digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
    assert digest == "430e81a90380b6bcf84283abca68380994fce434a35a848edf43e897b76deb0d"


def test_subgroups_needing_five_generators():
    # the subgroups of (Z/2)^5 are the subspaces of F_2^5: a sum of Gaussian binomials
    def gaussian(n, k):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (i + 1) - 1
        return num // den

    subs = group_from_descriptor("Z/2xZ/2xZ/2xZ/2xZ/2").subgroups()
    assert len(subs) == sum(gaussian(5, k) for k in range(6)) == 374
    assert all(len(s) == 2 ** k for s, k in zip(subs, [0] + [1] * 31 + [2] * 155 + [3] * 155 + [4] * 31 + [5]))


def test_subgroups_and_cosets():
    subs = V4.subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]
    two = [s for s in subs if len(s) == 2][0]
    cosets = V4.cosets(two)
    assert len(cosets) == 2
    assert all(len(c) == 2 for c in cosets)


def test_close_subset_is_the_generated_subgroup():
    def generated(group, elements):
        """Close under products both ways and inverses until nothing new appears."""
        closed = set(elements) | {0}
        while True:
            new = {group.mul(a, b) for a in closed for b in closed} | {group.inv(a) for a in closed}
            if new <= closed:
                return frozenset(closed)
            closed |= new

    for name in ("V4", "S3", "D4", "Q8", "S4", "Z/2xZ/6"):
        group = group_from_descriptor(name)
        for size in range(3):
            for subset in itertools.combinations(group.elements(), size):
                assert group.close_subset(subset) == generated(group, subset), (name, subset)


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
    failures = [c for c in verify_relations(pres, factors) if not c.passed]
    assert not failures, failures[:3]


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
    failures = [c for c in verify_relations(pres, factors) if not c.passed]
    assert not failures, failures[:3]


def test_dc_presentation_on_mixed_blocks():
    # ground {0,1,2}; the top simplex splits as {0,1} | {2}, so the
    # presentation carries the diagonal relation for {0,1} and the
    # commutator of the two blocks
    from conftest import example_t_labelled
    from diagcx.present import dc_presentation

    pres = dc_presentation(example_t_labelled(), {1: Z2, 2: Z3})
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

    from diagcx.complexes import DiagonalComplex
    from diagcx.present import dc_presentation

    faces = [c for k in (1, 2) for c in itertools.combinations(range(3), k)]
    complex_ = DiagonalComplex.from_simplicial(3, faces).labelled([0, 1, 2])
    pres = dc_presentation(complex_, {0: Z2, 1: Z2, 2: Z2})
    assert {r.kind for r in pres.relations} == {"mult", "commute"}
    commutators = [r for r in pres.relations if r.kind == "commute"]
    assert len(commutators) == 3  # one per edge of the triangle


MIXED_FACTORS = [(2, "Z/1,S3"), (3, "Z/2,Z/1,V4"), (3, "D4,Z/3,Q8"), (4, "S3,Z/1,Z/2,V4"), (4, "Z/1,Z/4,Z/1,Z/3")]


@pytest.mark.parametrize("n,factors", MIXED_FACTORS)
def test_forest_dc_presentation_is_the_spelt_out_presentation_respelt_as_pairs(n, factors):
    from diagcx.forests import build_gamma_Fn
    from diagcx.present import dc_presentation

    groups = [group_from_descriptor(text) for text in factors.split(",")]
    by_label = {i: groups[i - 1] for i in range(1, n + 1)}
    indexed = dc_presentation(build_gamma_Fn(n), by_label)
    assert indexed == spelt_out_dc_presentation(build_gamma_Fn(n), by_label)
    assert forest_dc_presentation(n, groups) == respelt(indexed, n)


def test_dc_presentation_matches_the_spelt_out_route_off_the_forest_complex():
    from conftest import example_t_complex
    from diagcx.complexes import DiagonalComplex
    from diagcx.present import dc_presentation

    faces = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 2), (0, 1, 2), (2, 3)]
    cases = [
        (example_t_complex().labelled([1, 1, 2]), {1: S3, 2: Z3}),
        (example_t_complex().universally_labelled(), {0: Z2, 1: V4}),
        (DiagonalComplex.from_simplicial(4, faces).labelled([5, 5, 5, 7]), {5: S3, 7: Z4}),
    ]
    for complex_, groups in cases:
        assert dc_presentation(complex_, groups) == spelt_out_dc_presentation(complex_, groups)


@pytest.mark.parametrize("n,factors", MIXED_FACTORS)
def test_fr_commutators_follow_the_two_edge_posets(n, factors):
    groups = [group_from_descriptor(text) for text in factors.split(",")]
    sources = [rel.source for rel in fr_presentation(n, groups).relations if rel.kind == "commute"]
    expected = [
        f"forest {a} | {b}"
        for a, b in two_edge_posets(n)
        for _ in range((groups[a[0][0] - 1].order - 1) * (groups[b[0][0] - 1].order - 1))
    ]
    assert sources == expected


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


# "[a_i^(g<g> in G<j>), a_k^(g<h> in G<l>)]" -> i, g, j, k, h, l
LITERAL_LABEL = re.compile(r"\[a_(\d)\^\(g(\d) in G(\d)\), a_(\d)\^\(g(\d) in G(\d)\)\]")


def literal_label(check):
    return tuple(map(int, LITERAL_LABEL.fullmatch(check.relation.source).groups()))


def test_literal_commutator_holds_with_disjoint_indices():
    # with all four indices distinct the relation is an honest consequence
    def distinct(check):
        i, _, j, k, _, l = literal_label(check)
        return len({i, j, k, l}) == 4

    disjoint = [c for c in literal_pairwise_commutator_checks([Z4, Z4, Z4, Z4]) if distinct(c)]
    assert len(disjoint) == 24 * 3 * 3  # ordered (i, j, k, l), nonidentity g and h
    assert all(c.passed for c in disjoint)


# -- letter-image test against the probe-word route ------------------------------


def oracle_automorphism(groups, relation):
    """A relation's composite, each letter's conjugations composed on their own first."""
    auto = Automorphism.identity(groups)
    for pairs, element in relation.word:
        letter = Automorphism.identity(groups)
        for i, j in sorted(pairs):
            conj = (i, groups[i - 1].inv(element))
            letter = letter.then(Automorphism.partial_conjugation(groups, j, conj))
        auto = auto.then(letter)
    return auto


def first_moved_probe_word(groups, auto):
    for word in probe_words(groups):
        if auto.apply(word) != normal_form(groups, word):
            return word
    return None


def conjugation_count(groups, relations):
    """One partial conjugation per pair of a relation letter whose target factor is nontrivial."""
    sizes = [group.order - 1 for group in groups]
    return sum(sizes[j - 1] > 0 for rel in relations for pairs, _ in rel.word for _, j in pairs)


def corrupted(relations, rng):
    """Each relation with one letter dropped, and with its letters shuffled."""
    for rel in relations:
        k = rng.randrange(len(rel.word))
        yield Relation(rel.kind, rel.word[:k] + rel.word[k + 1:], rel.source)
        yield Relation(rel.kind, tuple(rng.sample(rel.word, len(rel.word))), rel.source)


def test_letter_images_match_probe_words_on_corrupted_relations():
    rng = random.Random(6)
    trivial = FiniteGroup.cyclic(1)
    cases = [
        (fr_presentation, [S3, Z2, Z3]),
        (fr_presentation, [Z3, trivial, V4]),
        (forest_dc_presentation, [Z2, Z3, Z2]),
        (forest_dc_presentation, [Z4, trivial, S3]),
    ]
    failing = 0
    for build, groups in cases:
        pres = build(3, groups)
        relations = tuple(corrupted(pres.relations, rng))
        for rels in (pres.relations, relations):
            steps = sum(1 for rel in rels for _ in partial_conjugations(groups, rel))
            assert steps == conjugation_count(groups, rels)
        for check in verify_relations(Presentation((), relations), groups):
            witness = first_moved_probe_word(groups, oracle_automorphism(groups, check.relation))
            assert (check.passed, check.witness) == (witness is None, witness), check.relation
            failing += witness is not None
    assert failing >= 300


@pytest.mark.parametrize(
    "factors,failing",
    [
        ("S3,Q8", 70),
        ("Z/4,Z/2xZ/3", 30),
        ("D4,Z/1", 0),
        ("Q8,Z/1,S3", 70),
        ("D4,Z/4,Z/2xZ/3", 426),
        ("S3,Z/6,Z/2xZ/3", 450),
        ("S3,Z/4,Q8,Z/1", 426),
        ("Z/1,Z/2xZ/3,Z/1,D4", 70),
    ],
)
def test_conjugating_words_match_letter_images(factors, failing):
    # the relations of both presentations hold; the literal checks fail where their indices overlap
    groups = [group_from_descriptor(name) for name in factors.split(",")]
    n = len(groups)
    relations = fr_presentation(n, groups).relations + forest_dc_presentation(n, groups).relations
    checks = verify_relations(Presentation((), relations), groups) + literal_pairwise_commutator_checks(groups)
    for check in checks:
        witness = relation_automorphism(groups, check.relation).moved_letter()
        assert (check.passed, check.witness) == (witness is None, witness), check.relation
    assert sum(not check.passed for check in checks) == failing


def test_literal_count_is_the_partial_conjugations_the_checks_compose():
    trivial = FiniteGroup.cyclic(1)
    cases = [
        [trivial, Z2, Z3],
        [Z2, Z3],
        [trivial, S3],
        [trivial, trivial, Z2],
        [Z2, trivial, V4, trivial],
        [S3, Z4, Z2],
    ]
    for groups in cases:
        checks = literal_pairwise_commutator_checks(groups)
        composed = sum(1 for c in checks for _ in partial_conjugations(groups, c.relation))
        assert literal_partial_conjugation_count(groups) == composed, groups
    # four per instance would give 88: a letter whose target is Z/1 composes nothing
    assert literal_partial_conjugation_count([trivial, Z2, Z3]) == 52


def test_literal_commutator_witnesses_match_probe_words():
    groups = [S3, S3]
    pc = Automorphism.partial_conjugation
    for check in literal_pairwise_commutator_checks(groups):
        i, g, j, k, h, l = literal_label(check)
        composite = (
            pc(groups, i, (j, S3.inv(g)))
            .then(pc(groups, k, (l, S3.inv(h))))
            .then(pc(groups, i, (j, g)))
            .then(pc(groups, k, (l, h)))
        )
        witness = first_moved_probe_word(groups, composite)
        assert (check.passed, check.witness) == (witness is None, witness), check.relation.source
        # a^-1 b^-1 a b in the pair letters ((j, i),) and ((l, k),)
        assert check.relation.kind == "literal-commute"
        assert check.relation.word == (
            (((j, i),), g), (((l, k),), h), (((j, i),), S3.inv(g)), (((l, k),), S3.inv(h))
        )


def test_verify_report_shape():
    pres = fr_presentation(2, [Z2, Z2])
    checks = verify_relations(pres, [Z2, Z2])
    assert type(checks) is tuple and all(c.passed for c in checks)
    assert [c.relation for c in checks] == list(pres.relations)


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
    assert "\n".join(export_gap(pres)) + "\n" == expected


def test_presentation_json():
    pres = fr_presentation(2, [Z2, Z2])
    data = json.loads("".join(pres.json_pieces()))
    assert data["generators"] == ["c1_2_g1", "c2_1_g1"]
    assert all(set(rel) == {"kind", "word", "source"} for rel in data["relations"])


@pytest.mark.parametrize(
    "build, factors",
    [
        (fr_presentation, "Z/1,Z/1"),
        (fr_presentation, "Z/1,Z/2"),
        (fr_presentation, "S3,Z/2,Z/3"),
        (fr_presentation, "S3,Z/1,Z/2,V4"),
        (forest_dc_presentation, "Q8,Z/2,S3"),
    ],
)
def test_json_pieces_are_the_held_document(build, factors):
    # the document as one dict, every letter named through generator_name, dumped with sorted keys
    groups = [group_from_descriptor(name) for name in factors.split(",")]
    pres = build(len(groups), groups)
    held = {
        "generators": [generator_name(g) for g in pres.generators],
        "relations": [
            {"kind": rel.kind, "source": rel.source, "word": [generator_name(letter) for letter in rel.word]}
            for rel in pres.relations
        ],
    }
    pieces = list(pres.json_pieces())
    assert "".join(pieces) == json.dumps(held, sort_keys=True, separators=(",", ":"))
    assert len(pieces) == len(pres.relations) + 2


# -- abelianisation against the homology series --------------------------------


def _as_group(free_rank, factors):
    """The AbelianGroup with this free rank and these invariant factors."""
    return functools.reduce(direct_sum, map(AbelianGroup.of_order, factors), AbelianGroup.free(free_rank))


def _table_abelianisation(group):
    """H_1 of a finite group from its multiplication table: generators x_g, relations x_g + x_h = x_gh."""
    column = {g: k for k, g in enumerate(group.nonidentity())}
    rows = []
    for g, h in itertools.product(column, repeat=2):
        row, gh = collections.Counter([column[g], column[h]]), group.mul(g, h)
        if gh:
            row[column[gh]] -= 1
        rows.append(row)
    factors = smith_normal_form(rows)
    return _as_group(len(column) - len(factors), [d for d in factors if d > 1])


@pytest.mark.parametrize(
    "factors, expected",
    [
        ("Z/2,Z/3", (0, [6])),
        ("Z/4,Z/2,Z/6", (0, [2, 2, 2, 2, 12, 12])),
        ("Z/2,Z/2,Z/2,Z/2", (0, [2] * 12)),
        ("S3,Z/2,Z/3", (0, [2, 2, 6, 6])),
        ("Q8,S3,D4", (0, [2] * 10)),
        ("S3,Q8,Z/4,V4", (0, [2] * 15 + [4] * 3)),
    ],
)
def test_both_presentations_abelianise_to_n_minus_1_copies_of_the_factors_h1(factors, expected):
    groups = [group_from_descriptor(name) for name in factors.split(",")]
    n = len(groups)
    assert abelianisation(fr_presentation(n, groups)) == expected
    assert abelianisation(forest_dc_presentation(n, groups)) == expected
    factors_h1 = functools.reduce(direct_sum, map(_table_abelianisation, groups))
    assert _as_group(*expected) == scale_group(factors_h1, n - 1)


@pytest.mark.parametrize("orders", [(2, 3), (4, 2, 6), (2, 2, 2, 2), (3, 4, 5, 9)])
def test_abelianisation_is_degree_1_of_series_fr_for_cyclic_factors(orders):
    # series fr: the free product's series to the power n - 1
    groups = [FiniteGroup.cyclic(m) for m in orders]
    n = len(groups)
    degree_1 = free_product_series([cyclic_classifying_series(m, 2) for m in orders]).pow(n - 1).coeffs[1]
    assert _as_group(*abelianisation(fr_presentation(n, groups))) == degree_1
    assert _as_group(*abelianisation(forest_dc_presentation(n, groups))) == degree_1

"""Relation composites as letter-image maps, the reference for ``present.verify_relations``.

The library checks a relation on one conjugating word per factor.  This
oracle composes the partial conjugations on the image of every
nonidentity letter instead, substitution followed by reduction, and
reads the witness off the first letter whose image is not itself.

It also keeps the two-pass routes that built the presentations before
they were read off gamma's masks: gamma spelt out as frozensets and
partial partitions, a respelling pass from X_n indices to (i, j) pairs,
and the two-edge forest posets spelt through ``gamma_of`` and
``blocks_as_pairs``.

The exponent-sum abelianisation ties a presentation to homology: it is
H_1 of the presented group, which degree 1 of the homology series must
equal.
"""

import collections
import itertools

from diagcx.forests import blocks_as_pairs, build_gamma_Fn, x_n_pairs
from diagcx.homology import smith_normal_form
from diagcx.present import (
    Presentation,
    Relation,
    _commutator,
    _mult_relations,
    apply_partial_conjugation,
    normal_form,
    partial_conjugations,
)


class Automorphism:
    """A letter-map automorphism of the free product.

    Stores the normalised image of every nonidentity letter; composition
    and application are letterwise substitution followed by reduction.
    """

    def __init__(self, groups, images):
        self.groups = groups
        self.images = images

    @classmethod
    def identity(cls, groups):
        images = {}
        for f, group in enumerate(groups, start=1):
            for e in group.nonidentity():
                images[(f, e)] = ((f, e),)
        return cls(groups, images)

    @classmethod
    def partial_conjugation(cls, groups, target, conjugator):
        base = cls.identity(groups)
        images = {
            letter: apply_partial_conjugation(groups, target, conjugator, image)
            for letter, image in base.images.items()
        }
        return cls(groups, images)

    @classmethod
    def factor_automorphism(cls, groups, factor, mapping):
        """Apply a permutation of one factor's elements letterwise.

        ``mapping`` must be a bijection on element indices fixing 0 and
        respecting the multiplication table.
        """
        group = groups[factor - 1]
        if sorted(mapping) != list(group.elements()) or mapping[0] != 0:
            raise ValueError("mapping must be a bijection fixing the identity")
        for a in group.elements():
            for b in group.elements():
                if mapping[group.mul(a, b)] != group.mul(mapping[a], mapping[b]):
                    raise ValueError("mapping is not a homomorphism")
        images = {}
        for f, g in enumerate(groups, start=1):
            for e in g.nonidentity():
                images[(f, e)] = ((f, mapping[e]) if f == factor else (f, e),)
        return cls(groups, images)

    def apply(self, word):
        out = []
        for letter in normal_form(self.groups, word):
            out.extend(self.images[letter])
        return normal_form(self.groups, out)

    def then(self, other):
        """Left-to-right composite: self first, then other."""
        return Automorphism(
            self.groups, {letter: other.apply(image) for letter, image in self.images.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.images == other.images

    def moved_letter(self):
        """The first letter whose image is not itself, as a one-letter word, or None.

        ``apply`` substitutes letter images and reduces, so an automorphism
        fixing every letter sends every word to its normal form.  Every
        constructor keeps the (factor, element) order of ``identity``, the
        order of the single letters that open ``probe_words``: the result
        is the first probe word the automorphism moves.
        """
        return next(((letter,) for letter, image in self.images.items() if image != (letter,)), None)

    def is_identity(self):
        return self.moved_letter() is None


def relation_automorphism(groups, relation):
    """The composite of a relation's letters, one partial conjugation at a time."""
    images = Automorphism.identity(groups).images
    for j, conj in partial_conjugations(groups, relation):
        images = {x: apply_partial_conjugation(groups, j, conj, w) for x, w in images.items()}
    return Automorphism(groups, images)


def spelt_out_dc_presentation(complex_, groups):
    """``present.dc_presentation`` from :meth:`DiagonalComplex.partitions`, each label collected from the elements."""
    complex_.require_valid()
    labels = complex_.require_labels()

    def label_of(simplex):
        found = {labels[x] for x in simplex}
        return found.pop() if len(found) == 1 else None

    partitions = complex_.partitions()
    labelled = [(tuple(sorted(u)), label_of(u)) for u in sorted(partitions, key=lambda u: (len(u), sorted(u)))]
    labelled = [(simplex, label) for simplex, label in labelled if label is not None]
    generators, relations = [], []
    for simplex, label in labelled:
        generators.extend((simplex, e) for e in groups[label].nonidentity())
        relations.extend(_mult_relations(simplex, groups[label], f"simplex {simplex}"))
    commutator_pairs = {pair for part in partitions.values() for pair in itertools.combinations(part.blocks, 2)}
    for a, b in sorted(commutator_pairs):
        group_a, group_b = groups[label_of(a)], groups[label_of(b)]
        for g in group_a.nonidentity():
            for h in group_b.nonidentity():
                word = _commutator(group_a, ((a, g),), group_b, ((b, h),))
                relations.append(Relation("commute", word, source=f"blocks {a} | {b}"))
    for simplex, label in labelled:
        blocks = partitions[frozenset(simplex)].blocks
        if len(blocks) > 1:
            group = groups[label]
            for g in group.nonidentity():
                word = [(simplex, g)] + [(block, group.inv(g)) for block in reversed(blocks)]
                relations.append(Relation("diagonal", tuple(word), source=f"simplex {simplex}"))
    return Presentation(tuple(generators), tuple(relations))


def respelt(presentation, n):
    """A presentation whose letters are tuples of X_n indices, each letter spelt as its (i, j) pairs."""
    pairs = x_n_pairs(n)

    def fix(word):
        return tuple((tuple(pairs[k] for k in simplex), e) for simplex, e in word)

    relations = tuple(rel._replace(word=fix(rel.word)) for rel in presentation.relations)
    return Presentation(fix(presentation.generators), relations)


def two_edge_posets(n):
    """The two-block simplices of Gamma(F_n), each spelt through ``gamma_of`` and ``blocks_as_pairs``, sorted."""
    complex_ = build_gamma_Fn(n)
    two_edge = [u for u, blocks in complex_.gamma.items() if len(blocks) == 2]
    return sorted(blocks_as_pairs(complex_.gamma_of(u).blocks, n) for u in two_edge)


def abelianisation(presentation):
    """H_1 of the presented group as (free rank, invariant factors above 1).

    H_1 is the cokernel of the exponent-sum matrix: one row per relation,
    one column per generator.  Every letter is a generator, an inverse being
    the letter of the inverse element, so a relator's row counts its
    letters.  The invariant factors are ``homology.smith_normal_form``'s.
    """
    column = {generator: k for k, generator in enumerate(presentation.generators)}
    rows = [collections.Counter(column[letter] for letter in rel.word) for rel in presentation.relations]
    factors = smith_normal_form(rows)
    return len(column) - len(factors), [d for d in factors if d > 1]

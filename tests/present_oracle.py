"""Relation composites as letter-image maps, the reference for ``present.verify_relations``.

The library checks a relation on one conjugating word per factor.  This
oracle composes the partial conjugations on the image of every
nonidentity letter instead, substitution followed by reduction, and
reads the witness off the first letter whose image is not itself.
"""

from diagcx.present import apply_partial_conjugation, normal_form, partial_conjugations


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

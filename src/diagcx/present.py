"""Presentations of partial-conjugation groups, with a word-level oracle.

Elements of a free product of finite groups are alternating words of
(factor, element) letters.  A partial conjugation sends every letter of
one factor to its conjugate by a fixed letter of another factor and is
determined by its letter images; compositions of such maps are handled
the same way, so relations can be checked by honest evaluation instead
of symbol pushing.

Conventions: g^h = h^-1 g h, [a, b] = a^-1 b^-1 a b, and juxtaposition
composes left to right (apply the left factor first).  The pair
generator with base i, target j and element g acts as the partial
conjugation of factor j by g^-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .forests import build_gamma_Fn, x_n_pairs

PRESENTATION_JSON_SCHEMA = {
    "type": "object",
    "required": ["generators", "relations"],
    "properties": {
        "generators": {"type": "array", "items": {"type": "string"}},
        "relations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "word"],
                "properties": {
                    "kind": {"type": "string"},
                    "word": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}


# -- words in a free product of finite groups ----------------------------


def normal_form(groups, letters):
    """Reduce a letter sequence to the alternating normal form.

    Adjacent letters in the same factor are multiplied; identity letters
    vanish.  Letters are (factor, element) with 1-based factors.
    """
    stack = []
    for factor, element in letters:
        if not 1 <= factor <= len(groups):
            raise ValueError(f"no factor {factor}")
        if not 0 <= element < groups[factor - 1].order:
            raise ValueError(f"no element {element} in factor {factor}")
        if element == 0:
            continue
        if stack and stack[-1][0] == factor:
            merged = groups[factor - 1].mul(stack[-1][1], element)
            stack.pop()
            if merged != 0:
                stack.append((factor, merged))
        else:
            stack.append((factor, element))
    return tuple(stack)


def apply_partial_conjugation(groups, target, conjugator, word):
    """Image of a word under the partial conjugation of one factor.

    ``conjugator`` is a letter (j, g); letters of the target factor x
    become g^-1 x g, all others are fixed.
    """
    j, g = conjugator
    if target == j:
        raise ValueError("a factor cannot be conjugated by itself")
    if not 1 <= j <= len(groups) or not 1 <= target <= len(groups):
        raise ValueError("factor index out of range")
    ginv = groups[j - 1].inv(g)
    out = []
    for factor, element in word:
        if factor == target:
            out.extend([(j, ginv), (factor, element), (j, g)])
        else:
            out.append((factor, element))
    return normal_form(groups, out)


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

    def is_identity(self):
        return all(image == (letter,) for letter, image in self.images.items())


def probe_words(groups):
    """Single letters plus all alternating words of length 2 and 3."""
    letters = [(f, e) for f, g in enumerate(groups, start=1) for e in g.nonidentity()]
    words = [(l,) for l in letters]
    for a, b in itertools.product(letters, repeat=2):
        if a[0] != b[0]:
            words.append((a, b))
    for a, b, c in itertools.product(letters, repeat=3):
        if a[0] != b[0] and b[0] != c[0]:
            words.append((a, b, c))
    return words


# -- presentations --------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """A relator: the product of the letters must be trivial.

    Letters are (base simplex, element); the base simplex is a tuple of
    (i, j) pairs sharing the first coordinate i, and the element lives in
    factor i.  Inverse letters use the inverse element.
    """

    kind: str
    word: tuple
    source: str = ""


@dataclass(frozen=True)
class Presentation:
    n: int
    factor_orders: tuple
    generators: tuple  # (pairs, element) with element nonidentity in the base factor
    relations: tuple

    def generator_names(self):
        return [generator_name(g) for g in self.generators]

    def to_json(self):
        return {
            "generators": self.generator_names(),
            "relations": [
                {
                    "kind": rel.kind,
                    "word": [generator_name(letter) for letter in rel.word],
                    "source": rel.source,
                }
                for rel in self.relations
            ],
        }


def generator_name(letter):
    pairs, element = letter
    base = pairs[0][0]
    targets = "".join(str(j) for _, j in pairs)
    return f"c{base}_{targets}_g{element}"


def _block_word(groups, pairs, element):
    """g_U spelt in pair generators, one per pair of the corolla."""
    return tuple(((pair,), element) for pair in pairs)


def _commutator(invert_letter, word_a, word_b):
    def invert(word):
        return tuple(invert_letter(letter) for letter in reversed(word))

    return invert(word_a) + invert(word_b) + word_a + word_b


def _two_edge_posets(forest_complex):
    out = []
    for simplex, part in forest_complex.complex.gamma.items():
        if len(part.blocks) == 2:
            blocks = [
                tuple(sorted(forest_complex.pairs[k] for k in block)) for block in part.blocks
            ]
            out.append(tuple(sorted(blocks)))
    return sorted(out)


def fr_presentation(n, groups):
    """The partial-conjugation presentation on pair generators.

    Generators g_(i,j) for every ordered pair and nonidentity element of
    factor i.  Relations: multiplication inside each pair, plus one
    commutator per two-edge forest poset, with non-singleton blocks spelt
    as products of their pairs.
    """
    if n < 2:
        raise ValueError("need at least two factors")
    if len(groups) != n:
        raise ValueError("need one factor group per vertex")
    generators = []
    relations = []
    for pair in x_n_pairs(n):
        i = pair[0]
        for e in groups[i - 1].nonidentity():
            generators.append(((pair,), e))
        for g, h in itertools.product(groups[i - 1].nonidentity(), repeat=2):
            gh = groups[i - 1].mul(g, h)
            word = [((pair,), g), ((pair,), h)]
            if gh != 0:
                word.append(((pair,), groups[i - 1].inv(gh)))
            relations.append(Relation("mult", tuple(word), source=f"pair {pair}"))
    def invert_letter(letter):
        pairs, element = letter
        base = pairs[0][0]
        return (pairs, groups[base - 1].inv(element))

    fc = build_gamma_Fn(n)
    for block_a, block_b in _two_edge_posets(fc):
        i, j = block_a[0][0], block_b[0][0]
        for g in groups[i - 1].nonidentity():
            for h in groups[j - 1].nonidentity():
                word = _commutator(
                    invert_letter, _block_word(groups, block_a, g), _block_word(groups, block_b, h)
                )
                relations.append(
                    Relation("commute", word, source=f"forest {block_a} | {block_b}")
                )
    return Presentation(n, tuple(g.order for g in groups), tuple(generators), tuple(relations))


def dc_presentation(complex_, labelling, groups):
    """Generators g_U for labelled simplices; the four relation families.

    ``groups`` maps each label to a FiniteGroup.  Relations: products
    inside each generator, one commutator per unordered pair of blocks of
    any gamma, and the diagonal relation expressing g_U through the
    blocks of gamma(U).
    """
    report = complex_.validate()
    if not report.ok:
        raise ValueError("invalid diagonal complex")
    labelling.check_against(complex_)

    def label_of(simplex):
        labels = {labelling.labels[x] for x in simplex}
        return labels.pop() if len(labels) == 1 else None

    generators = []
    relations = []
    labelled = []
    for simplex in sorted(complex_.simplices, key=lambda u: (len(u), sorted(u))):
        label = label_of(simplex)
        if label is None:
            continue
        labelled.append((tuple(sorted(simplex)), label))
    for simplex, label in labelled:
        group = groups[label]
        for e in group.nonidentity():
            generators.append((simplex, e))
        for g, h in itertools.product(group.nonidentity(), repeat=2):
            gh = group.mul(g, h)
            word = [(simplex, g), (simplex, h)]
            if gh != 0:
                word.append((simplex, group.inv(gh)))
            relations.append(Relation("mult", tuple(word), source=f"simplex {simplex}"))

    def invert_letter(letter):
        simplex, element = letter
        return (simplex, groups[label_of(simplex)].inv(element))

    commutator_pairs = set()
    for w in complex_.simplices:
        blocks = [tuple(sorted(b)) for b in complex_.gamma_of(w).blocks]
        for a, b in itertools.combinations(sorted(blocks), 2):
            commutator_pairs.add((a, b))
    for a, b in sorted(commutator_pairs):
        la, lb = label_of(a), label_of(b)
        for g in groups[la].nonidentity():
            for h in groups[lb].nonidentity():
                word = _commutator(invert_letter, ((a, g),), ((b, h),))
                relations.append(Relation("commute", word, source=f"blocks {a} | {b}"))

    for simplex, label in labelled:
        blocks = [tuple(sorted(b)) for b in complex_.gamma_of(frozenset(simplex)).blocks]
        if len(blocks) < 2:
            continue
        group = groups[label]
        for g in group.nonidentity():
            word = [(simplex, g)]
            for block in reversed(sorted(blocks)):
                word.append((block, group.inv(g)))
            relations.append(Relation("diagonal", tuple(word), source=f"simplex {simplex}"))

    orders = tuple(groups[label].order for label in sorted(groups))
    return Presentation(complex_.ground_size, orders, tuple(generators), tuple(relations))


# -- verification ----------------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    relation: Relation
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    notes: tuple = field(default=())

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _letter_automorphism(groups, pairs, element):
    """The automorphism of g_U for a corolla of pairs with base i.

    Each pair (i, j) contributes the partial conjugation of factor j by
    the inverse of the element; those conjugations commute, so the sort
    order is only for determinism.
    """
    auto = Automorphism.identity(groups)
    for i, j in sorted(pairs):
        conj = (i, groups[i - 1].inv(element))
        auto = auto.then(Automorphism.partial_conjugation(groups, j, conj))
    return auto


def relation_automorphism(groups, relation):
    auto = Automorphism.identity(groups)
    for pairs, element in relation.word:
        auto = auto.then(_letter_automorphism(groups, pairs, element))
    return auto


def verify_relations(presentation, groups, words=None):
    """Evaluate every relation as a composite of partial conjugations.

    A relation passes when its composite fixes every test word.  Letters
    must already be pair-based; use forest_dc_presentation for the
    general presentation on a forest complex.
    """
    if words is None:
        words = probe_words(groups)
    checks = []
    for relation in presentation.relations:
        auto = relation_automorphism(groups, relation)
        witness = None
        for word in words:
            if auto.apply(word) != normal_form(groups, word):
                witness = word
                break
        checks.append(RelationCheck(relation, witness is None, witness))
    return VerificationReport(tuple(checks))


def translate_indexed_presentation(presentation, pairs):
    """Rewrite ground-index generator letters to (i, j) pair letters."""

    def fix(word):
        return tuple((tuple(sorted(pairs[k] for k in simplex)), e) for simplex, e in word)

    relations = tuple(
        Relation(rel.kind, fix(rel.word), rel.source) for rel in presentation.relations
    )
    generators = tuple(fix([g])[0] for g in presentation.generators)
    return Presentation(presentation.n, presentation.factor_orders, generators, relations)


def forest_dc_presentation(n, groups):
    """dc_presentation of the forest complex, in pair letters."""
    fc = build_gamma_Fn(n)
    label_groups = {i: groups[i - 1] for i in range(1, n + 1)}
    raw = dc_presentation(fc.complex, fc.labelling, label_groups)
    return translate_indexed_presentation(raw, fc.pairs)


def literal_pairwise_commutator_checks(groups, entries=None):
    """The unrestricted 'distinct targets commute' relation, instance by instance.

    For every choice of targets i != k and conjugating letters g_j, h_l
    this evaluates [a_i^{g_j}, a_k^{h_l}]; with overlapping indices the
    relation can fail, which these checks surface instead of hiding.
    """
    n = len(groups)
    if entries is None:
        entries = [
            (i, j, k, l)
            for i, j, k, l in itertools.product(range(1, n + 1), repeat=4)
            if i != j and k != l and i != k
        ]
    checks = []
    for i, j, k, l in entries:
        for g in groups[j - 1].nonidentity():
            for h in groups[l - 1].nonidentity():
                a = Automorphism.partial_conjugation(groups, i, (j, g))
                b = Automorphism.partial_conjugation(groups, k, (l, h))
                a_inv = Automorphism.partial_conjugation(groups, i, (j, groups[j - 1].inv(g)))
                b_inv = Automorphism.partial_conjugation(groups, k, (l, groups[l - 1].inv(h)))
                composite = a_inv.then(b_inv).then(a).then(b)
                witness = None
                for word in probe_words(groups):
                    if composite.apply(word) != normal_form(groups, word):
                        witness = word
                        break
                label = f"[a_{i}^(g{g} in G{j}), a_{k}^(g{h} in G{l})]"
                checks.append(
                    RelationCheck(Relation("literal-commute", (), source=label), witness is None, witness)
                )
    return checks


# -- export ------------------------------------------------------------------


def export_gap(presentation):
    """A finitely presented group in computer-algebra input syntax."""
    names = presentation.generator_names()
    index = {g: k for k, g in enumerate(presentation.generators)}
    lines = []
    quoted = ", ".join(f'"{name}"' for name in names)
    lines.append(f"F := FreeGroup({quoted});;")
    lines.append("AssignGeneratorVariables(F);;")
    relators = []
    for relation in presentation.relations:
        factors = [names[index[letter]] for letter in relation.word]
        relators.append("*".join(factors) if factors else "One(F)")
    lines.append("rels := [")
    for k, relator in enumerate(relators):
        comma = "," if k + 1 < len(relators) else ""
        lines.append(f"  {relator}{comma}")
    lines.append("];;")
    lines.append("G := F / rels;;")
    return "\n".join(lines) + "\n"

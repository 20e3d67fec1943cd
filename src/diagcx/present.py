"""Presentations of partial-conjugation groups, with a word-level oracle.

Elements of a free product of finite groups are alternating words of
(factor, element) letters.  A partial conjugation sends every letter of
one factor to its conjugate by a fixed letter of another factor, so a
composite of such maps conjugates each factor by one word; relations are
checked by honest evaluation of those words instead of symbol pushing.
The literal pairwise-commutator checks are relations too, commutators of
two pair letters checked like any other.

Conventions: g^h = h^-1 g h, [a, b] = a^-1 b^-1 a b, and juxtaposition
composes left to right (apply the left factor first).  The pair
generator with base i, target j and element g acts as the partial
conjugation of factor j by g^-1.
"""

import collections
import functools
import itertools
import json

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


class Relation(collections.namedtuple("Relation", "kind word source", defaults=("",))):
    """A relator: the product of the letters must be trivial.

    Letters are (base simplex, element); the base simplex is a tuple of
    (i, j) pairs sharing the first coordinate i, and the element lives in
    factor i.  Inverse letters use the inverse element.
    """

    __slots__ = ()


class Presentation(collections.namedtuple("Presentation", "generators relations")):
    # generators: (pairs, element) with element nonidentity in the base factor
    __slots__ = ()

    def generator_names(self):
        return [generator_name(g) for g in self.generators]

    def json_pieces(self):
        """The compact sorted-keys JSON document: the generator names, then one relation per piece.

        Each letter is named and quoted once, and each distinct kind and source quoted once.
        """
        quoted = {g: json.dumps(generator_name(g)) for g in self.generators}
        quote = functools.cache(json.dumps)
        yield '{"generators":[' + ",".join(quoted.values()) + '],"relations":['
        for k, rel in enumerate(self.relations):
            word = ",".join([quoted[letter] for letter in rel.word])
            yield f'{"," if k else ""}{{"kind":{quote(rel.kind)},"source":{quote(rel.source)},"word":[{word}]}}'
        yield "]}"


def generator_name(letter):
    pairs, element = letter
    base = pairs[0][0]
    targets = "".join(str(j) for _, j in pairs)
    return f"c{base}_{targets}_g{element}"


def _mult_relations(base, group, source):
    """g h (gh)^-1 for every pair of nonidentity elements, in letters (base, element)."""
    for g, h in itertools.product(group.nonidentity(), repeat=2):
        gh = group.mul(g, h)
        yield Relation("mult", ((base, g), (base, h)) + (((base, group.inv(gh)),) if gh else ()), source)


def _commutator(group_a, word_a, group_b, word_b):
    """[a, b] = a^-1 b^-1 a b; the letters of each word take elements of its group."""

    def invert(group, word):
        return tuple((base, group.inv(element)) for base, element in reversed(word))

    return invert(group_a, word_a) + invert(group_b, word_b) + word_a + word_b


def _commute_relations(group_a, bases_a, group_b, bases_b, source):
    """[a, b] for nonidentity g, h of the two groups, a being the product of (base, g) over bases_a, b likewise."""
    for g, h in itertools.product(group_a.nonidentity(), group_b.nonidentity()):
        word_a, word_b = tuple((base, g) for base in bases_a), tuple((base, h) for base in bases_b)
        yield Relation("commute", _commutator(group_a, word_a, group_b, word_b), source)


def fr_presentation(n, groups):
    """The partial-conjugation presentation on pair generators.

    Generators g_(i,j) for every ordered pair and nonidentity element of
    factor i.  Relations: multiplication inside each pair, plus one
    commutator per two-edge forest poset, with non-singleton blocks spelt
    as products of their pairs.
    """
    from .partitions import spell

    if n < 2:
        raise ValueError("need at least two factors")
    if len(groups) != n:
        raise ValueError("need one factor group per vertex")
    pairs = x_n_pairs(n)
    generators = []
    relations = []
    for pair in pairs:
        group = groups[pair[0] - 1]
        generators.extend(((pair,), e) for e in group.nonidentity())
        relations.extend(_mult_relations((pair,), group, f"pair {pair}"))
    two_edge = (spell(masks, pairs) for masks in build_gamma_Fn(n).gamma.values() if len(masks) == 2)
    for block_a, block_b in sorted(two_edge):
        # g_U spelt in pair generators, one per pair of the corolla
        group_a, group_b, text = groups[block_a[0][0] - 1], groups[block_b[0][0] - 1], f"forest {block_a} | {block_b}"
        relations.extend(_commute_relations(group_a, [(p,) for p in block_a], group_b, [(p,) for p in block_b], text))
    return Presentation(tuple(generators), tuple(relations))


def dc_presentation(complex_, groups):
    """Generators g_U for labelled simplices; the four relation families.

    ``groups`` maps each label of ``complex_`` to a FiniteGroup.
    Relations: products inside each generator, one commutator per
    unordered pair of blocks of any gamma, and the diagonal relation
    expressing g_U through the blocks of gamma(U).
    """
    return _dc_presentation(complex_, groups, lambda elements: elements)


def forest_dc_presentation(n, groups):
    """dc_presentation of the forest complex, its letters spelt as tuples of (i, j) pairs of X_n."""
    pairs = x_n_pairs(n)
    return _dc_presentation(build_gamma_Fn(n), dict(enumerate(groups, 1)), lambda ks: tuple(pairs[k] for k in ks))


def _dc_presentation(complex_, groups, letter):
    """dc_presentation read off gamma's masks, the letter of a mask being ``letter`` of its elements.

    A mask recurs in many relations, so each is spelt once into its
    elements, which the sources print, and its letter.  Labels are
    constant on blocks, and the blocks of a valid gamma(U) cover U, so U
    is labelled when its blocks share one label.
    """
    complex_.require_valid()
    labels, gamma = complex_.require_labels(), complex_.gamma
    source = functools.cache(complex_.elements_of)
    spelt = functools.cache(lambda mask: letter(source(mask)))

    def label(mask):  # of its least element
        return labels[source(mask)[0]]

    generators, relations = [], []
    by_size = sorted(gamma, key=lambda u: (len(source(u)), source(u)))
    labelled = [(u, groups[label(u)]) for u in by_size if {label(block) for block in gamma[u]} == {label(u)}]
    for u, group in labelled:
        generators.extend((spelt(u), e) for e in group.nonidentity())
        relations.extend(_mult_relations(spelt(u), group, f"simplex {source(u)}"))

    pairs = {pair for blocks in gamma.values() for pair in itertools.combinations(blocks, 2)}
    for a, b in sorted(pairs, key=lambda pair: tuple(map(source, pair))):
        text = f"blocks {source(a)} | {source(b)}"
        relations.extend(_commute_relations(groups[label(a)], (spelt(a),), groups[label(b)], (spelt(b),), text))

    for u, group in labelled:
        if len(gamma[u]) > 1:
            blocks = [spelt(block) for block in reversed(gamma[u])]
            for g in group.nonidentity():
                word = ((spelt(u), g),) + tuple((block, group.inv(g)) for block in blocks)
                relations.append(Relation("diagonal", word, source=f"simplex {source(u)}"))

    return Presentation(tuple(generators), tuple(relations))


# -- verification ----------------------------------------------------------


RelationCheck = collections.namedtuple("RelationCheck", "relation passed witness", defaults=(None,))


def partial_conjugations(groups, relation):
    """The partial conjugations a relation composes, as (target, conjugator) steps.

    The letter g_U for a corolla of pairs with base i contributes, for
    each pair (i, j), the partial conjugation of factor j by the inverse
    of its element; those conjugations commute, so they are taken in the
    letter's pair order.  Conjugating a trivial factor is the identity
    and is skipped.  The verifier composes these steps and the CLI guard
    counts them (the literal checks by :func:`literal_partial_conjugation_count`).
    """
    for pairs, element in relation.word:
        for i, j in pairs:
            if groups[j - 1].order > 1:
                yield j, (i, groups[i - 1].inv(element))


def verify_relations(presentation, groups):
    """Evaluate every relation as a composite of partial conjugations, one RelationCheck each, in a tuple.

    Each partial conjugation sends every factor onto a conjugate of
    itself, so a composite sends each letter x of factor f to w_f^-1 x w_f
    for one conjugating word w_f per factor.  A step that conjugates
    factor t by the letter c sends every w_f to its image under the step,
    and then w_t to c w_t.  A relation passes when each w_f commutes with
    every letter of its factor, so that the composite fixes every letter
    and every word.  A failure's witness is the first moved letter, as a
    one-letter word, in (factor, element) order.  Letters must already be
    pair-based; use forest_dc_presentation for the general presentation
    on a forest complex.
    """
    letters = [(f, e) for f, group in enumerate(groups, start=1) for e in group.nonidentity()]
    checks = []
    for relation in presentation.relations:
        words = [()] * len(groups)
        for t, c in partial_conjugations(groups, relation):
            words = [apply_partial_conjugation(groups, t, c, w) if w else w for w in words]
            words[t - 1] = normal_form(groups, (c,) + words[t - 1])
        moved = (x for x in letters if words[x[0] - 1] and _conjugate(groups, x, words[x[0] - 1]) != (x,))
        witness = next(((x,) for x in moved), None)
        checks.append(RelationCheck(relation, witness is None, witness))
    return tuple(checks)


def _conjugate(groups, letter, word):
    """The normal form of word^-1 letter word."""
    inverse = tuple((f, groups[f - 1].inv(e)) for f, e in reversed(word))
    return normal_form(groups, inverse + (letter,) + word)


def literal_pairwise_commutator_checks(groups):
    """The unrestricted 'distinct targets commute' relation, instance by instance.

    For every choice of targets i != k and conjugating letters g_j, h_l
    this checks the relation [a_i^{g_j}, a_k^{h_l}] with
    :func:`verify_relations`.  The partial conjugation a_i^{g_j} is the
    pair letter ((j, i),) with element g^-1.  With overlapping indices the
    relation can fail, which these checks surface instead of hiding.
    """
    relations = []
    for i, j, k, l in itertools.product(range(1, len(groups) + 1), repeat=4):
        if i == j or k == l or i == k:
            continue
        group_a, group_b = groups[j - 1], groups[l - 1]
        for g in group_a.nonidentity():
            for h in group_b.nonidentity():
                a = (((j, i),), group_a.inv(g))  # a_i^{g_j}
                b = (((l, k),), group_b.inv(h))  # a_k^{h_l}
                word = _commutator(group_a, (a,), group_b, (b,))
                label = f"[a_{i}^(g{g} in G{j}), a_{k}^(g{h} in G{l})]"
                relations.append(Relation("literal-commute", word, source=label))
    return verify_relations(Presentation((), tuple(relations)), groups)


def literal_partial_conjugation_count(groups):
    """The partial conjugations the literal checks compose: two per letter whose target is nontrivial.

    Targets i != k have (L - s_i)(L - s_k) instances, with s_f nonidentity elements in factor f and L = sum s_f.
    """
    sizes = [group.order - 1 for group in groups]
    letters = sum(sizes)
    return sum(2 * ((a > 0) + (b > 0)) * (letters - a) * (letters - b) for a, b in itertools.permutations(sizes, 2))


# -- export ------------------------------------------------------------------


def export_gap(presentation):
    """A finitely presented group in computer-algebra input syntax, yielded line by line."""
    names = presentation.generator_names()
    name_of = dict(zip(presentation.generators, names))
    yield "F := FreeGroup(" + ", ".join(f'"{name}"' for name in names) + ");;"
    yield "AssignGeneratorVariables(F);;"
    yield "rels := ["
    last = len(presentation.relations) - 1
    for k, relation in enumerate(presentation.relations):
        relator = "*".join(name_of[letter] for letter in relation.word) or "One(F)"
        yield f"  {relator}{',' if k < last else ''}"
    yield "];;"
    yield "G := F / rels;;"

"""Diagonal complexes: subset systems with a compatible partition map.

A diagonal complex on a ground set X is a set Gamma of nonempty subsets
(the simplices) together with a map gamma assigning each simplex a
partition of itself, subject to three axioms: every singleton is a
simplex, non-singletons get proper partitions, and every union of
partition blocks is again a simplex whose partition refines the chosen
blocks.  Such complexes index commutation patterns that are richer than
graph products.
"""

import collections
import functools
import itertools
import json

from .partitions import PartialPartition, bits, block_classes, classes_inside, meet, spell, to_mask

COMPLEX_JSON_SCHEMA = {
    "type": "object",
    "required": ["ground", "simplices", "gamma"],
    "properties": {
        "ground": {"type": "integer", "minimum": 0},
        "simplices": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        },
        "gamma": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
            },
        },
        "labels": {
            "anyOf": [{"type": "null"}, {"type": "array", "items": {"type": "integer"}}]
        },
    },
}


class AxiomCheck(collections.namedtuple("AxiomCheck", "axiom passed witness", defaults=(None,))):
    __slots__ = ()


class ValidationReport(collections.namedtuple("ValidationReport", "checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _simplex_key(simplex):
    return ",".join(map(str, sorted(simplex)))


def _meet_closure(generators):
    """The nonempty meets of nonempty sets of generators.

    ``generators`` maps the block-mask tuple of each generator to its
    partition.  The closure grows one generator g at a time:
    closure(F + g) is closure(F), g and the nonempty meets of g with each
    object of closure(F) (Ganter and Wille, *Formal Concept Analysis*, 1999).  A
    nonempty meet has a class inside the common support, and that class
    holds a whole block of g, so g is met only with the objects covering
    one of its blocks: bit i of ``postings[x]`` is set when object i
    covers bit x.  The meets run on the masks and the supports kept beside
    them (:func:`partitions.classes_inside`); each new object that is no
    generator is built once, by :func:`partitions.meet`.
    """
    objects = dict(generators)  # so a meet equal to a later generator is not rebuilt
    made, supports, closed, postings = [], [], set(), collections.defaultdict(int)
    for g_masks, g in generators.items():
        if g_masks in closed:
            continue  # a meet of earlier generators
        candidates = 0
        for block in g_masks:
            covering = -1
            for x in bits(block):
                covering &= postings[x]
            candidates |= covering
        new = [g_masks]
        closed.add(g_masks)
        g_support = sum(g_masks)
        for i in bits(candidates):
            m_masks = classes_inside(made[i], g_masks, supports[i] & g_support)
            if m_masks and m_masks not in closed:
                closed.add(m_masks)
                new.append(m_masks)
                if m_masks not in objects:
                    objects[m_masks] = meet(objects[made[i]], g)
        for m_masks in new:
            support = sum(m_masks)
            for x in bits(support):
                postings[x] |= 1 << len(made)
            made.append(m_masks)
            supports.append(support)
    return objects.values()


class DiagonalComplex:
    """A finite diagonal complex, stored as bitmasks.

    Bit i stands for ``elements[i]``, the i-th smallest element the complex
    uses, which is element i when every singleton is a simplex.  ``gamma``
    maps each simplex, as the mask of its elements, to the tuple of the
    masks of the blocks of its partition, ordered by least element.
    Methods that take a simplex take its mask.  ``labels``, if given, maps
    each element of the ground set to a label constant on every block; the
    constructor checks it.  Instances are treated as immutable after
    construction; the validation report is memoised.
    """

    def __init__(self, ground_size, elements, gamma, labels=None):
        self.ground_size = ground_size
        self.elements = tuple(elements)
        self.gamma = gamma
        self._report = None
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != ground_size:
                raise ValueError("labels must cover the ground set")
            members = self.elements_of
            mixed = functools.cache(lambda block: len({labels[x] for x in members(block)}) > 1)  # blocks recur
            for u, blocks in gamma.items():
                for block in filter(mixed, blocks):
                    raise ValueError(f"label not constant on block {list(members(block))} of simplex {list(members(u))}")
        self.labels = labels

    def labelled(self, labels):
        """The same complex with ``labels`` (None for none)."""
        return DiagonalComplex(self.ground_size, self.elements, self.gamma, labels)

    def universally_labelled(self):
        """The complex with the finest labels: x and y share one whenever they share a block."""
        blocks = [block for masks in self.gamma.values() for block in spell(masks, self.elements)]
        classes = block_classes(self.ground_size, blocks)
        label = {x: i for i, root in enumerate(sorted(classes)) for x in classes[root]}
        return self.labelled([label[x] for x in range(self.ground_size)])

    @classmethod
    def of(cls, ground_size, partitions):
        """The complex with gamma(U) = ``partitions[U]``, each U an iterable of elements.

        The blocks are read as those of a complex file on ``ground_size``.
        """
        entries = {_simplex_key(u): part.blocks for u, part in partitions.items()}
        return cls._read(ground_size, list(partitions), entries)

    @classmethod
    def _read(cls, ground, simplices, entries, labels=None):
        """The complex of a file's simplices and its gamma entries, keyed as :func:`_simplex_key` spells them.

        Bit i goes to the i-th smallest element of the simplices and their
        blocks.  A block recurs in many entries, so each distinct block is
        checked once (no repeats, inside the ground), and each entry's
        blocks are checked disjoint on masks, their bits numbered as the
        elements are first met.  An entry that fails is read again by
        :meth:`PartialPartition.of`, which names the failure.
        """
        used, canon, first, partitions = set(), {}, {}, []  # canon: a block as listed -> (sorted, mask)
        for simplex in simplices:
            key = _simplex_key(simplex)
            if key not in entries:
                raise ValueError(f"simplex {key} has no gamma entry")
            blocks, union = [], 0
            for listed in map(tuple, entries[key]):
                if listed not in canon:
                    block = tuple(sorted(set(listed)))
                    if len(block) < len(listed) or block[0] < 0 or block[-1] >= ground:
                        PartialPartition.of(ground, entries[key])  # raises, naming the repeat or the outsider
                    canon[listed] = block, sum(1 << first.setdefault(x, len(first)) for x in block)
                block, mask = canon[listed]
                if union & mask:
                    PartialPartition.of(ground, entries[key])  # raises, naming the shared element
                union |= mask
                blocks.append(block)
            used.update(simplex)
            partitions.append(tuple(sorted(blocks)))  # disjoint, so by least element
        used.update(first)
        bit = {x: i for i, x in enumerate(sorted(used))}
        mask_of = {block: to_mask(block, bit) for block, _ in canon.values()}
        gamma = {to_mask(u, bit): tuple(map(mask_of.get, blocks)) for u, blocks in zip(simplices, partitions)}
        return cls(ground, sorted(used), gamma, labels)

    def elements_of(self, mask):
        """The elements of a mask, ascending."""
        return tuple(self.elements[i] for i in bits(mask))

    def _blocks(self, u):
        if u not in self.gamma:
            raise ValueError(f"not a simplex: {list(self.elements_of(u))}")
        return self.gamma[u]

    def gamma_of(self, u):
        """gamma(U) as a PartialPartition, for the simplex mask u."""
        return PartialPartition(self.ground_size, spell(self._blocks(u), self.elements))

    def partitions(self):
        """gamma spelt out: each simplex, as a frozenset of elements, to its PartialPartition."""
        return {frozenset(self.elements_of(u)): self.gamma_of(u) for u in self.gamma}

    def __eq__(self, other):
        if not isinstance(other, DiagonalComplex):
            return NotImplemented
        return (self.ground_size, self.elements, self.gamma, self.labels) == (
            other.ground_size, other.elements, other.gamma, other.labels
        )

    def __repr__(self):
        return f"DiagonalComplex(ground_size={self.ground_size}, simplices={len(self.gamma)})"

    @classmethod
    def from_simplicial(cls, ground_size, faces):
        """The diagonal complex of an abstract simplicial complex.

        Every face gets the partition into singletons.  The face set must
        be downward closed (axiom 3 fails otherwise).
        """
        faces = map(frozenset, faces)
        return cls.of(ground_size, {u: PartialPartition.of(ground_size, [[x] for x in u]) for u in faces})

    # -- validation -------------------------------------------------

    def validate(self):
        """Check the three axioms; failures carry a witness, never raise.

        Axiom 3 holds for U when every nonempty set of blocks of gamma(U)
        has a union F that is a simplex, and every block of gamma(F) lies
        inside one chosen block, that is inside one block of gamma(U).
        Given axiom 2 it holds for every U when it holds for the maximal
        faces: for each U with k >= 2 blocks and each block B, U - B is a
        simplex whose blocks each lie inside one block of gamma(U).  By
        induction on |U|: a union of some of the blocks of gamma(U) lies
        inside some U - B, and is a union of blocks of gamma(U - B), so it is
        a simplex whose blocks lie inside blocks of gamma(U - B), which lie
        inside the chosen ones.  Axioms 2 and 3 are decided on the maximal
        faces in one pass; only when that pass fails are the simplices
        scanned in key order, to name the first failure as the scan over
        every set of blocks would (:meth:`_axiom3_witness`).  The report is
        memoised: gamma is not changed after construction.
        """
        if self._report is None:
            self._report = self._check_axioms()
        return self._report

    def _key(self, mask):
        return ",".join(map(str, self.elements_of(mask)))

    def _maximal_faces_hold(self):
        """Axioms 2 and 3, decided on the maximal faces of every simplex."""
        gamma = self.gamma
        for u, blocks in gamma.items():
            if sum(blocks) != u:  # the blocks are disjoint, so their sum is their union
                return False
            if len(blocks) < 2:
                if u & (u - 1):
                    return False
                continue
            for block in blocks:
                fblocks = gamma.get(u ^ block)
                if fblocks is None:
                    return False
                for fb in fblocks:
                    for home in blocks:
                        if not fb & ~home:
                            break
                    else:
                        return False
        return True

    def _check_axioms(self):
        gamma, bit = self.gamma, {x: i for i, x in enumerate(self.elements)}

        # only len(gamma) singletons can be present, so this stops within len(gamma) + 1 steps
        missing = next((x for x in range(self.ground_size) if x not in bit or (1 << bit[x]) not in gamma), None)
        ax1 = AxiomCheck(1, missing is None, None if missing is None else f"missing singleton {{{missing}}}")
        if self._maximal_faces_hold():
            return ValidationReport((ax1, AxiomCheck(2, True), AxiomCheck(3, True)))

        ordered = sorted(gamma.items(), key=lambda kv: self._key(kv[0]))
        ax2_witness = ax3_witness = None
        for u, blocks in ordered:
            if sum(blocks) != u:
                ax2_witness = f"gamma({self._key(u)}) is not a partition of the simplex"
                break
            if u & (u - 1) and len(blocks) < 2:
                ax2_witness = f"gamma({self._key(u)}) is not proper"
                break
        else:
            ax3_witness = self._axiom3_witness(ordered)
        return ValidationReport(
            (ax1, AxiomCheck(2, ax2_witness is None, ax2_witness), AxiomCheck(3, ax3_witness is None, ax3_witness))
        )

    def _axiom3_witness(self, ordered):
        """The first axiom-3 failure in the order of ``ordered``, or None.

        Needs axiom 2, so that gamma(F) is a partition of F.  The block sets
        of each simplex are visited in ``itertools.combinations`` order, so
        a simplex with many blocks stops at its first missing face.
        """
        gamma = self.gamma
        for u, blocks in ordered:
            for size in range(1, len(blocks) + 1):
                for chosen in itertools.combinations(blocks, size):
                    face = sum(chosen)
                    if face not in gamma:
                        return f"face {self._key(face)} of {self._key(u)} missing"
                    for fb in gamma[face]:
                        if all(fb & ~block for block in chosen):
                            combo = [list(self.elements_of(block)) for block in chosen]
                            return f"gamma({self._key(face)}) does not refine the blocks {combo} of {self._key(u)}"
        return None

    def require_valid(self):
        """Raise ValueError naming the first axiom failure, if there is one."""
        report = self.validate()
        if not report.ok:
            raise ValueError(f"invalid diagonal complex: {report.failures()[0].witness}")

    def require_labels(self):
        """The labels, or ValueError when the complex carries none."""
        if self.labels is None:
            raise ValueError("diagonal complex carries no labels")
        return self.labels

    # -- properness -------------------------------------------------

    def is_proper(self):
        """Whether gamma(U) is the complement system of U's maximal subsets.

        Equivalent to the descendance order agreeing with inclusion.  On
        a valid complex, U (not a singleton) passes iff no simplex V
        properly inside U meets every block of gamma(U).  Indeed each
        U - B, for B a block, is a simplex by axiom 3, and these are
        pairwise incomparable.  If no such V exists, every simplex
        properly inside U misses some block B and so lies in U - B: the
        maximal ones are exactly the U - B, whose complements are the
        blocks.  If V exists, a maximal simplex properly inside U that
        contains V meets every block, so it is no U - B and the
        complements differ from the blocks.

        The test runs once per U on posting bitsets over the simplices
        sorted by size (bit i of postings[x] is set when simplex i holds
        bit x): the candidates are the simplices smaller than U, narrowed
        to those meeting each block and then to those avoiding every bit
        outside U.
        """
        self.require_valid()
        simplices = sorted(self.gamma, key=int.bit_count)
        postings = [0] * len(self.elements)
        smaller = {}  # size s -> bitset of the simplices with fewer than s elements
        members = functools.cache(bits)  # blocks recur across simplices: list each one's bits once
        for i, u in enumerate(simplices):
            smaller.setdefault(u.bit_count(), (1 << i) - 1)
            for block in self.gamma[u]:
                for x in members(block):
                    postings[x] |= 1 << i
        for u in simplices:
            if not u & (u - 1):
                continue
            candidates = smaller[u.bit_count()]
            for block in self.gamma[u]:
                hit = 0
                for x in members(block):
                    hit |= candidates & postings[x]
                candidates = hit
                if not candidates:
                    break
            else:
                for x, posting in enumerate(postings):
                    if not u >> x & 1:
                        candidates &= ~posting
                        if not candidates:
                            break
                else:
                    return False
        return True

    # -- the category of partitions ----------------------------------

    def category_objects(self):
        """The meet-closed poset of partitions underlying the colimit diagram.

        Starts from the generators {gamma(U)} and closes under meets,
        discarding empty meets.  Meets are associative, so the objects are
        the nonempty meets of sets of generators, added one generator at a
        time (:func:`_meet_closure`, on block bitmasks).  Labels constant on
        the blocks of the generators are constant on the blocks of every
        object, since a block of a meet is a chain of overlapping blocks of
        its arguments.  Returns the objects sorted; order queries go through
        partitions.is_partial_coarsening.
        """
        self.require_valid()
        objects = _meet_closure({blocks: self.gamma_of(u) for u, blocks in self.gamma.items()})
        return tuple(sorted(objects, key=lambda part: part.blocks))

    # -- monomials ----------------------------------------------------

    def monomial(self, u):
        """Exponent map of the block-label monomial of the simplex mask u."""
        labels, exponents = self.require_labels(), {}
        for block in self._blocks(u):
            label = labels[self.elements[block.bit_length() - 1]]  # any element of the block
            exponents[label] = exponents.get(label, 0) + 1
        return exponents

    # -- serialisation -------------------------------------------------

    def to_json(self):
        rows = sorted((self.elements_of(u), blocks) for u, blocks in self.gamma.items())
        rows.sort(key=lambda row: len(row[0]))
        data = {
            "ground": self.ground_size,
            "simplices": [list(simplex) for simplex, _ in rows],
            "gamma": {
                _simplex_key(simplex): [list(b) for b in spell(blocks, self.elements)] for simplex, blocks in rows
            },
            "labels": None if self.labels is None else list(self.labels),
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("complex JSON nests too deeply") from None
        _check_json_structure(data)
        return cls._read(data["ground"], data["simplices"], data["gamma"], data.get("labels"))


def _check_json_structure(data):
    """Reject data that does not have the shape of COMPLEX_JSON_SCHEMA."""

    def is_int_lists(value):
        return isinstance(value, list) and all(
            isinstance(item, list) and item and all(type(x) is int for x in item) for item in value
        )

    if not isinstance(data, dict) or not {"ground", "simplices", "gamma"} <= data.keys():
        raise ValueError("complex JSON needs the keys ground, simplices and gamma")
    if type(data["ground"]) is not int or data["ground"] < 0:
        raise ValueError("ground must be a nonnegative integer")
    if not is_int_lists(data["simplices"]):
        raise ValueError("simplices must be a list of nonempty integer lists")
    gamma = data["gamma"]
    if not isinstance(gamma, dict) or not all(is_int_lists(v) for v in gamma.values()):
        raise ValueError("gamma must map simplex keys to lists of nonempty integer lists")
    labels = data.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(type(x) is int for x in labels)):
        raise ValueError("labels must be null or a list of integers")

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
import json

from .partitions import PartialPartition, bits, block_classes, meet, meet_masks, spell, to_mask

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
    partition.  Meets are associative, so the closure is reached by meeting
    each new object with the generators alone.  The meets run on the masks
    (:func:`partitions.meet_masks`); each new object is built by
    :func:`partitions.meet`.
    """
    objects = dict(generators)
    queue = list(generators.items())
    while queue:
        p_masks, p = queue.pop()
        for g_masks, g in generators.items():
            m_masks = meet_masks(p_masks, g_masks)
            if m_masks and m_masks not in objects:
                objects[m_masks] = meet(p, g)
                queue.append((m_masks, objects[m_masks]))
    return objects.values()


class DiagonalComplex:
    """A finite diagonal complex, stored as bitmasks.

    Bit i stands for ``elements[i]``, the i-th smallest element the complex
    uses, which is element i when every singleton is a simplex.  ``gamma``
    maps each simplex, as the mask of its elements, to the tuple of the
    masks of the blocks of its partition, ordered by least element.
    Methods that take a simplex take its mask.
    Instances are treated as immutable after construction; levels and the
    validation report are memoised.
    """

    def __init__(self, ground_size, elements, gamma):
        self.ground_size = ground_size
        self.elements = tuple(elements)
        self.gamma = gamma
        self._levels = {}
        self._coarse_levels = {}
        self._report = None

    @classmethod
    def of(cls, ground_size, partitions):
        """The complex with gamma(U) = ``partitions[U]``, each U an iterable of elements.

        The blocks are read as those of a complex file on ``ground_size``.
        """
        entries = {_simplex_key(u): part.blocks for u, part in partitions.items()}
        return cls._read(ground_size, list(partitions), entries)

    @classmethod
    def _read(cls, ground, simplices, entries):
        """The complex of a file's simplices and its gamma entries, keyed as :func:`_simplex_key` spells them.

        Bit i goes to the i-th smallest element of the simplices and their blocks.
        """
        used, shared, partitions = set(), {}, []  # a block recurs in many simplices: keep one tuple for it
        for simplex in simplices:
            key = _simplex_key(simplex)
            if key not in entries:
                raise ValueError(f"simplex {key} has no gamma entry")
            blocks = PartialPartition.of(ground, entries[key]).blocks  # which checks and orders them
            used.update(simplex)
            partitions.append(tuple(map(shared.setdefault, blocks, blocks)))
        used.update(*shared)
        bit = {x: i for i, x in enumerate(sorted(used))}
        mask_of = {block: to_mask(block, bit) for block in shared}
        gamma = {to_mask(u, bit): tuple(map(mask_of.get, blocks)) for u, blocks in zip(simplices, partitions)}
        return cls(ground, sorted(used), gamma)

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
        return (self.ground_size, self.elements, self.gamma) == (other.ground_size, other.elements, other.gamma)

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
        inside one chosen block, that is inside the block of gamma(U)
        holding its least element.  The sets are visited in
        ``itertools.combinations`` order, and each union is the union of
        the set without its last block (met earlier) plus that block.  The
        report is memoised: gamma is not changed after construction.
        """
        if self._report is None:
            self._report = self._check_axioms()
        return self._report

    def _key(self, mask):
        return ",".join(map(str, self.elements_of(mask)))

    def _check_axioms(self):
        gamma, bit = self.gamma, {x: i for i, x in enumerate(self.elements)}
        checks = []

        # only len(gamma) singletons can be present, so this stops within len(gamma) + 1 steps
        missing = next((x for x in range(self.ground_size) if x not in bit or (1 << bit[x]) not in gamma), None)
        checks.append(
            AxiomCheck(1, missing is None, None if missing is None else f"missing singleton {{{missing}}}")
        )

        ordered = sorted(gamma.items(), key=lambda kv: self._key(kv[0]))
        ax2_witness = None
        for u, blocks in ordered:
            if sum(blocks) != u:  # the blocks are disjoint, so their sum is their union
                ax2_witness = f"gamma({self._key(u)}) is not a partition of the simplex"
                break
            if u & (u - 1) and len(blocks) < 2:
                ax2_witness = f"gamma({self._key(u)}) is not proper"
                break
        checks.append(AxiomCheck(2, ax2_witness is None, ax2_witness))

        ax3_witness = None if ax2_witness else self._axiom3_witness(ordered)
        checks.append(AxiomCheck(3, ax3_witness is None, ax3_witness))

        return ValidationReport(tuple(checks))

    def _axiom3_witness(self, ordered):
        """The first axiom-3 failure in the order of ``ordered``, or None.

        Needs axiom 2, so that gamma(F) is a partition of F.  The block
        sets of one size are grown from the sets one smaller that passed,
        each by a block after its last one: that is the
        ``itertools.combinations`` order, and a simplex with many blocks
        stops at its first missing face without listing its subsets.
        """
        gamma, members = self.gamma, functools.cache(bits)  # blocks recur across simplices
        for u, blocks in ordered:
            home = {1 << x: block for block in blocks for x in members(block)}  # bit of U -> its block
            level = [(0, -1)]  # (union, index of its last block)
            while level:
                grown = []
                for union, last in level:
                    for j in range(last + 1, len(blocks)):
                        face = union | blocks[j]
                        fblocks = gamma.get(face)
                        if fblocks is None:
                            return f"face {self._key(face)} of {self._key(u)} missing"
                        for fb in fblocks:
                            if fb & ~home[fb & -fb]:
                                combo = [list(self.elements_of(b)) for b in blocks if b & face]
                                return f"gamma({self._key(face)}) does not refine the blocks {combo} of {self._key(u)}"
                        grown.append((face, j))
                level = grown
        return None

    def require_valid(self):
        """Raise ValueError naming the first axiom failure, if there is one."""
        report = self.validate()
        if not report.ok:
            raise ValueError(f"invalid diagonal complex: {report.failures()[0].witness}")

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

    # -- levels and filtration ---------------------------------------

    def level(self, u, coarse=False):
        """Inductive level of the simplex mask u: 0 on singletons.

        The plain level recurses through maximal faces U - V, the coarse
        level through the blocks V themselves.
        """
        cache = self._coarse_levels if coarse else self._levels
        if u in cache:
            return cache[u]
        blocks = self._blocks(u)
        if not u & (u - 1):
            value = 0
        elif coarse:
            value = 1 + max(self.level(b, coarse=True) for b in blocks)
        else:
            value = 1 + max(self.level(u & ~b) for b in blocks)
        cache[u] = value
        return value

    def max_level(self, coarse=False):
        if not self.gamma:
            return 0
        return max(self.level(u, coarse=coarse) for u in self.gamma)

    def filtration(self, k, coarse=False):
        """The subcomplex of simplices of level at most k."""
        self.require_valid()
        gamma = {u: blocks for u, blocks in self.gamma.items() if self.level(u, coarse=coarse) <= k}
        return DiagonalComplex(self.ground_size, self.elements, gamma)

    def full_subcomplex(self, subset):
        """The full diagonal subcomplex on a subset of the ground set.

        The result lives on the subset, re-indexed in sorted order.
        """
        y = sorted(set(subset))
        rename = {x: k for k, x in enumerate(y)}
        partitions = {
            frozenset(rename[x] for x in u): PartialPartition.of(len(y), [[rename[x] for x in b] for b in part.blocks])
            for u, part in self.partitions().items()
            if u <= set(y)
        }
        return DiagonalComplex.of(len(y), partitions)

    # -- the category of partitions ----------------------------------

    def category_objects(self, labelling):
        """The meet-closed poset of partitions underlying the colimit diagram.

        Starts from the generators {gamma(U)} and closes under meets,
        discarding empty meets.  Meets are associative, so the objects are
        the nonempty meets of sets of generators, and each new object is
        met with the generators only (:func:`_meet_closure`, on block
        bitmasks).  All blocks must carry a constant label (guaranteed for
        the generators by labelling validity, asserted for the meets).
        Returns the objects sorted; order queries go through
        partitions.is_partial_coarsening.
        """
        self.require_valid()
        labelling.check_against(self)
        objects = _meet_closure({blocks: self.gamma_of(u) for u, blocks in self.gamma.items()})
        for part in objects:
            for block in part.blocks:
                if len({labelling.labels[x] for x in block}) != 1:
                    raise ValueError(f"meet produced a block with mixed labels: {sorted(block)}")
        return tuple(sorted(objects, key=lambda part: part.blocks))

    # -- monomials ----------------------------------------------------

    def monomial(self, labelling, u):
        """Exponent map of the block-label monomial of the simplex mask u."""
        exponents = {}
        for block in self._blocks(u):
            label = labelling.labels[self.elements[block.bit_length() - 1]]  # any element of the block
            exponents[label] = exponents.get(label, 0) + 1
        return exponents

    # -- serialisation -------------------------------------------------

    def to_json(self, labelling=None):
        rows = sorted((self.elements_of(u), blocks) for u, blocks in self.gamma.items())
        rows.sort(key=lambda row: len(row[0]))
        data = {
            "ground": self.ground_size,
            "simplices": [list(simplex) for simplex, _ in rows],
            "gamma": {
                _simplex_key(simplex): [list(b) for b in spell(blocks, self.elements)] for simplex, blocks in rows
            },
            "labels": list(labelling.labels) if labelling is not None else None,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("complex JSON nests too deeply") from None
        _check_json_structure(data)
        complex_ = cls._read(data["ground"], data["simplices"], data["gamma"])
        labels = data.get("labels")
        labelling = Labelling(complex_, labels) if labels is not None else None
        return complex_, labelling


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


class Labelling:
    """An assignment X -> Z constant on every gamma block.

    Validity is checked eagerly: construction fails if any block of any
    simplex mixes labels.
    """

    def __init__(self, complex_, labels):
        self.labels = tuple(labels)
        if len(self.labels) != complex_.ground_size:
            raise ValueError("labels must cover the ground set")
        self.label_set = tuple(sorted(set(self.labels)))
        self.check_against(complex_)

    def check_against(self, complex_):
        members = complex_.elements_of
        mixed = functools.cache(lambda block: len({self.labels[x] for x in members(block)}) > 1)  # blocks recur
        for u, blocks in complex_.gamma.items():
            for block in filter(mixed, blocks):
                raise ValueError(f"label not constant on block {list(members(block))} of simplex {list(members(u))}")

    @classmethod
    def universal(cls, complex_):
        """The finest labelling: merge x, y whenever they share a block."""
        n = complex_.ground_size
        blocks = [block for masks in complex_.gamma.values() for block in spell(masks, complex_.elements)]
        classes = block_classes(n, blocks)
        label = {x: i for i, root in enumerate(sorted(classes)) for x in classes[root]}
        return cls(complex_, [label[x] for x in range(n)])

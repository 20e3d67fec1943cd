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
import json

from .partitions import PartialPartition, block_classes, meet, meet_masks

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

    Meets are associative, so the closure is reached by meeting each new
    object with the generators alone.  The meets run on block bitmasks
    (:func:`partitions.meet_masks`); each new object is built by
    :func:`partitions.meet`.
    """
    generators = {part.masks(): part for part in generators}
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
    """A finite diagonal complex, stored explicitly.

    ``gamma`` maps each simplex (a frozenset of ground indices) to a
    PartialPartition supported exactly on that simplex.  Instances are
    treated as immutable after construction; levels and the validation
    report are memoised.
    """

    def __init__(self, ground_size, gamma):
        self.ground_size = ground_size
        self.gamma = {frozenset(u): part for u, part in gamma.items()}
        self._levels = {}
        self._coarse_levels = {}
        self._report = None

    @property
    def simplices(self):
        return self.gamma.keys()

    def gamma_of(self, simplex):
        u = frozenset(simplex)
        if u not in self.gamma:
            raise ValueError(f"not a simplex: {sorted(simplex)}")
        return self.gamma[u]

    def __eq__(self, other):
        if not isinstance(other, DiagonalComplex):
            return NotImplemented
        return self.ground_size == other.ground_size and self.gamma == other.gamma

    def __repr__(self):
        return f"DiagonalComplex(ground_size={self.ground_size}, simplices={len(self.gamma)})"

    @classmethod
    def from_simplicial(cls, ground_size, faces):
        """The diagonal complex of an abstract simplicial complex.

        Every face gets the partition into singletons.  The face set must
        be downward closed (axiom 3 fails otherwise).
        """
        gamma = {}
        for face in faces:
            u = frozenset(face)
            gamma[u] = PartialPartition.of(ground_size, [[x] for x in u])
        return cls(ground_size, gamma)

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

    def _check_axioms(self):
        checks = []

        # only len(gamma) singletons can be present, so this stops within len(gamma) + 1 steps
        missing = next((x for x in range(self.ground_size) if frozenset([x]) not in self.gamma), None)
        checks.append(
            AxiomCheck(1, missing is None, None if missing is None else f"missing singleton {{{missing}}}")
        )

        ordered = sorted(self.gamma.items(), key=lambda kv: _simplex_key(kv[0]))
        ax2_witness = None
        for u, part in ordered:
            if part.ground_size != self.ground_size:
                ax2_witness = f"gamma({_simplex_key(u)}) has wrong ground size"
                break
            if part.support != u:
                ax2_witness = f"gamma({_simplex_key(u)}) is not a partition of the simplex"
                break
            if len(u) > 1 and len(part.blocks) < 2:
                ax2_witness = f"gamma({_simplex_key(u)}) is not proper"
                break
        checks.append(AxiomCheck(2, ax2_witness is None, ax2_witness))

        ax3_witness = None if ax2_witness else self._axiom3_witness(ordered)
        checks.append(AxiomCheck(3, ax3_witness is None, ax3_witness))

        return ValidationReport(tuple(checks))

    def _axiom3_witness(self, ordered):
        """The first axiom-3 failure in the order of ``ordered``, or None.

        Needs axiom 2, so that gamma(F) is supported exactly on F.  The
        block sets of one size are grown from the sets one smaller that
        passed, each by a block after its last one: that is the
        ``itertools.combinations`` order, and a simplex with many blocks
        stops at its first missing face without listing its subsets.
        """
        gamma = self.gamma
        home = {}  # element of U -> its block of gamma(U); a dict, as the ground may be far larger
        for u, part in ordered:
            sets = [frozenset(block) for block in part.blocks]
            for block in sets:
                for x in block:
                    home[x] = block
            level = [(frozenset(), -1)]  # (union, index of its last block)
            while level:
                grown = []
                for union, last in level:
                    for j in range(last + 1, len(sets)):
                        face = union | sets[j]
                        fpart = gamma.get(face)
                        if fpart is None:
                            return f"face {_simplex_key(face)} of {_simplex_key(u)} missing"
                        for fb in fpart.blocks:
                            if not home[fb[0]].issuperset(fb):
                                combo = [list(b) for b in part.blocks if b[0] in face]
                                return (
                                    f"gamma({_simplex_key(face)}) does not refine the blocks "
                                    f"{combo} of {_simplex_key(u)}"
                                )
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
        sorted by size (bit i of postings[x] is set when simplex i holds x):
        the candidates are the simplices smaller than U, narrowed to those
        meeting each block and then to those avoiding every element
        outside U.
        """
        self.require_valid()
        simplices = sorted(self.gamma, key=len)
        postings = [0] * self.ground_size
        smaller = {}  # size s -> bitset of the simplices with fewer than s elements
        for i, u in enumerate(simplices):
            if len(u) not in smaller:
                smaller[len(u)] = (1 << i) - 1
            for x in u:
                postings[x] |= 1 << i
        for u in simplices:
            if len(u) == 1:
                continue
            candidates = smaller[len(u)]
            for block in self.gamma[u].blocks:
                hit = 0
                for x in block:
                    hit |= candidates & postings[x]
                candidates = hit
                if not candidates:
                    break
            else:
                for x, posting in enumerate(postings):
                    if x not in u:
                        candidates &= ~posting
                        if not candidates:
                            break
                else:
                    return False
        return True

    # -- levels and filtration ---------------------------------------

    def level(self, simplex, coarse=False):
        """Inductive level: 0 on singletons.

        The plain level recurses through maximal faces U - V, the coarse
        level through the blocks V themselves.
        """
        u = frozenset(simplex)
        part = self.gamma_of(u)
        cache = self._coarse_levels if coarse else self._levels
        if u in cache:
            return cache[u]
        if len(u) == 1:
            cache[u] = 0
            return 0
        if coarse:
            value = 1 + max(self.level(frozenset(b), coarse=True) for b in part.blocks)
        else:
            value = 1 + max(self.level(u - frozenset(b)) for b in part.blocks)
        cache[u] = value
        return value

    def max_level(self, coarse=False):
        if not self.gamma:
            return 0
        return max(self.level(u, coarse=coarse) for u in self.gamma)

    def filtration(self, k, coarse=False):
        """The subcomplex of simplices of level at most k."""
        self.require_valid()
        gamma = {u: part for u, part in self.gamma.items() if self.level(u, coarse=coarse) <= k}
        return DiagonalComplex(self.ground_size, gamma)

    def full_subcomplex(self, subset):
        """The full diagonal subcomplex on a subset of the ground set.

        The result lives on the subset, re-indexed in sorted order.
        """
        y = sorted(set(subset))
        rename = {x: k for k, x in enumerate(y)}
        gamma = {}
        for u, part in self.gamma.items():
            if u <= set(y):
                gamma[frozenset(rename[x] for x in u)] = PartialPartition.of(
                    len(y), [[rename[x] for x in block] for block in part.blocks]
                )
        return DiagonalComplex(len(y), gamma)

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
        objects = _meet_closure(self.gamma.values())
        for part in objects:
            for block in part.blocks:
                if len({labelling.labels[x] for x in block}) != 1:
                    raise ValueError(f"meet produced a block with mixed labels: {sorted(block)}")
        return tuple(sorted(objects, key=lambda part: part.blocks))

    # -- monomials ----------------------------------------------------

    def monomial(self, labelling, simplex):
        """Exponent map of the block-label monomial of a simplex."""
        part = self.gamma_of(simplex)
        exponents = {}
        for block in part.blocks:
            label = labelling.labels[block[0]]
            exponents[label] = exponents.get(label, 0) + 1
        return exponents

    # -- serialisation -------------------------------------------------

    def to_json(self, labelling=None):
        simplices = sorted((sorted(u) for u in self.gamma), key=lambda s: (len(s), s))
        gamma = {
            _simplex_key(u): self.gamma[frozenset(u)].to_json()
            for u in map(frozenset, simplices)
        }
        data = {
            "ground": self.ground_size,
            "simplices": simplices,
            "gamma": gamma,
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
        ground = data["ground"]
        gamma = {}
        for simplex in data["simplices"]:
            key = _simplex_key(simplex)
            if key not in data["gamma"]:
                raise ValueError(f"simplex {key} has no gamma entry")
            gamma[frozenset(simplex)] = PartialPartition.of(ground, data["gamma"][key])
        complex_ = cls(ground, gamma)
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
        for u, part in complex_.gamma.items():
            for block in part.blocks:
                if len({self.labels[x] for x in block}) != 1:
                    raise ValueError(
                        f"label not constant on block {sorted(block)} of simplex {sorted(u)}"
                    )

    @classmethod
    def universal(cls, complex_):
        """The finest labelling: merge x, y whenever they share a block."""
        n = complex_.ground_size
        blocks = [block for part in complex_.gamma.values() for block in part.blocks]
        classes = block_classes(n, blocks)
        label = {x: i for i, root in enumerate(sorted(classes)) for x in classes[root]}
        return cls(complex_, [label[x] for x in range(n)])

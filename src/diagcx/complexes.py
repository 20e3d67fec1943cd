"""Diagonal complexes: subset systems with a compatible partition map.

A diagonal complex on a ground set X is a set Gamma of nonempty subsets
(the simplices) together with a map gamma assigning each simplex a
partition of itself, subject to three axioms: every singleton is a
simplex, non-singletons get proper partitions, and every union of
partition blocks is again a simplex whose partition refines the chosen
blocks.  Such complexes index commutation patterns that are richer than
graph products.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .partitions import EMPTY_MEET, PartialPartition, block_classes, meet

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


@dataclass(frozen=True)
class AxiomCheck:
    axiom: int
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _simplex_key(simplex):
    return ",".join(map(str, sorted(simplex)))


class DiagonalComplex:
    """A finite diagonal complex, stored explicitly.

    ``gamma`` maps each simplex (a frozenset of ground indices) to a
    PartialPartition supported exactly on that simplex.  Instances are
    treated as immutable after construction; levels are memoised.
    """

    def __init__(self, ground_size, gamma):
        self.ground_size = ground_size
        self.gamma = {frozenset(u): part for u, part in gamma.items()}
        self._levels = {}
        self._coarse_levels = {}

    @property
    def simplices(self):
        return self.gamma.keys()

    def gamma_of(self, simplex):
        u = frozenset(simplex)
        if u not in self.gamma:
            raise ValueError(f"not a simplex: {sorted(simplex)}")
        return self.gamma[u]

    def __contains__(self, simplex):
        return frozenset(simplex) in self.gamma

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
        """Check the three axioms; failures carry a witness, never raise."""
        checks = []

        missing = [x for x in range(self.ground_size) if frozenset([x]) not in self.gamma]
        checks.append(
            AxiomCheck(1, not missing, None if not missing else f"missing singleton {{{missing[0]}}}")
        )

        ax2_witness = None
        for u, part in sorted(self.gamma.items(), key=lambda kv: _simplex_key(kv[0])):
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

        ax3_witness = None
        if ax2_witness is None:
            for u, part in sorted(self.gamma.items(), key=lambda kv: _simplex_key(kv[0])):
                blocks = part.blocks
                for r in range(1, len(blocks) + 1):
                    for combo in itertools.combinations(blocks, r):
                        face = frozenset(x for b in combo for x in b)
                        if face not in self.gamma:
                            ax3_witness = (
                                f"face {_simplex_key(face)} of {_simplex_key(u)} missing"
                            )
                            break
                        fpart = self.gamma[face]
                        chosen = [set(b) for b in combo]
                        refines = all(
                            any(set(fb).issubset(c) for c in chosen) for fb in fpart.blocks
                        )
                        if not refines:
                            ax3_witness = (
                                f"gamma({_simplex_key(face)}) does not refine the blocks "
                                f"{[sorted(b) for b in combo]} of {_simplex_key(u)}"
                            )
                            break
                    if ax3_witness:
                        break
                if ax3_witness:
                    break
        checks.append(AxiomCheck(3, ax3_witness is None, ax3_witness))

        return ValidationReport(tuple(checks))

    def _require_valid(self):
        report = self.validate()
        if not report.ok:
            raise ValueError(f"invalid diagonal complex: {report.failures()[0].witness}")

    # -- properness -------------------------------------------------

    def is_proper(self):
        """Whether gamma(U) is the complement system of U's maximal subsets.

        Equivalent to the descendance order agreeing with inclusion.
        """
        self._require_valid()
        all_simplices = list(self.gamma)
        for u, part in self.gamma.items():
            if len(u) == 1:
                continue
            subs = [v for v in all_simplices if v < u]
            maximal = [v for v in subs if not any(v < w for w in subs)]
            expected = {u - m for m in maximal}
            actual = {frozenset(b) for b in part.blocks}
            if expected != actual:
                return False
        return True

    # -- levels and filtration ---------------------------------------

    def level(self, simplex, coarse=False):
        """Inductive level: 0 on singletons.

        The plain level recurses through maximal faces U - V, the coarse
        level through the blocks V themselves.
        """
        u = frozenset(simplex)
        if u not in self.gamma:
            raise ValueError(f"not a simplex: {sorted(simplex)}")
        cache = self._coarse_levels if coarse else self._levels
        if u in cache:
            return cache[u]
        if len(u) == 1:
            cache[u] = 0
            return 0
        part = self.gamma[u]
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
        self._require_valid()
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

        Starts from {gamma(U)} and closes under meets, discarding empty
        meets.  All blocks must carry a constant label (guaranteed for
        the starting partitions by labelling validity, asserted for the
        meets).  Returns the objects sorted; order queries go through
        partitions.is_partial_coarsening.
        """
        self._require_valid()
        labelling.check_against(self)
        objects = {part for part in self.gamma.values()}
        queue = list(objects)
        while queue:
            p = queue.pop()
            for q in list(objects):
                m = meet(p, q)
                if m is EMPTY_MEET or m in objects:
                    continue
                for block in m.blocks:
                    if len({labelling.labels[x] for x in block}) != 1:
                        raise ValueError(
                            f"meet produced a block with mixed labels: {sorted(block)}"
                        )
                objects.add(m)
                queue.append(m)
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

    def to_json_dict(self, labelling=None):
        simplices = sorted((sorted(u) for u in self.gamma), key=lambda s: (len(s), s))
        gamma = {
            _simplex_key(u): self.gamma[frozenset(u)].to_json()
            for u in map(frozenset, simplices)
        }
        return {
            "ground": self.ground_size,
            "simplices": simplices,
            "gamma": gamma,
            "labels": list(labelling.labels) if labelling is not None else None,
        }

    def to_json(self, labelling=None):
        return json.dumps(self.to_json_dict(labelling), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data):
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

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


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

    def classes(self):
        """Ground-set classes of equal label, sorted."""
        groups = {}
        for x, label in enumerate(self.labels):
            groups.setdefault(label, []).append(x)
        return tuple(tuple(groups[label]) for label in self.label_set)

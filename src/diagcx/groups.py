"""Finite groups as multiplication tables.

Element 0 is the identity.  Tables are validated on construction
(closure, associativity, identity, inverses), which is affordable at the
orders used here.  Elements close to the subgroup they generate under
right multiplication by themselves alone, as every inverse is a power.
Subgroups are enumerated by closing each subgroup found with one more
element, starting from {0}; that finds all of them.
"""

import itertools
import json
import math


class FiniteGroup:
    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self._validate()
        self.inverse = tuple(self._find_inverse(g) for g in range(self.order))

    def _validate(self):
        m = self.order
        if m < 1 or any(len(row) != m for row in self.table):
            raise ValueError("table must be square")
        for row in self.table:
            for entry in row:
                if type(entry) is not int or not 0 <= entry < m:
                    raise ValueError("table entries must be element indices")
        for g in range(m):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise ValueError("element 0 must be the identity")
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("table is not associative")

    def _find_inverse(self, g):
        for h in range(self.order):
            if self.table[g][h] == 0 and self.table[h][g] == 0:
                return h
        raise ValueError(f"element {g} has no inverse")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    def nonidentity(self):
        return range(1, self.order)

    def __repr__(self):
        return f"FiniteGroup(order {self.order})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def cyclic(cls, m):
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        return cls(table)

    @classmethod
    def direct_product(cls, g, h):
        pairs = list(itertools.product(range(g.order), range(h.order)))
        index = {p: i for i, p in enumerate(pairs)}
        table = [
            [index[(g.mul(a1, b1), h.mul(a2, b2))] for (b1, b2) in pairs]
            for (a1, a2) in pairs
        ]
        return cls(table)

    @classmethod
    def from_permutations(cls, perms):
        """The group of a set of permutations of range(k), which must hold the identity and be closed."""
        perms = sorted(set(perms))
        if not perms:
            raise ValueError("need at least one permutation")
        identity = tuple(range(len(perms[0])))
        if any(sorted(p) != list(identity) for p in perms):
            raise ValueError(f"every permutation must rearrange {identity}")
        if identity not in perms:
            raise ValueError("identity permutation missing")
        ordered = [identity] + [p for p in perms if p != identity]
        index = {p: i for i, p in enumerate(ordered)}

        def compose(p, q):
            pq = tuple(p[q[i]] for i in range(len(p)))
            if pq not in index:
                raise ValueError(f"permutations not closed under composition: {p} after {q} is {pq}, not listed")
            return index[pq]

        return cls([[compose(p, q) for q in ordered] for p in ordered])

    @classmethod
    def symmetric(cls, k):
        perms = [tuple(p) for p in itertools.permutations(range(k))]
        return cls.from_permutations(perms)

    @classmethod
    def dihedral(cls, k):
        """Symmetries of the k-gon, order 2k."""
        perms = []
        base = list(range(k))
        for r in range(k):
            rot = tuple(base[(i + r) % k] for i in range(k))
            perms.append(rot)
            perms.append(tuple(reversed(rot)))
        return cls.from_permutations(perms)

    @classmethod
    def quaternion(cls):
        """The quaternion group {1, -1, i, -i, j, -j, k, -k}, as 4-tuples a + bi + cj + dk."""
        units = [tuple(sign * (axis == t) for t in range(4)) for axis in range(4) for sign in (1, -1)]

        def mul(p, q):
            a1, b1, c1, d1 = p
            a2, b2, c2, d2 = q
            return (
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )

        return cls([[units.index(mul(p, q)) for q in units] for p in units])

    # -- subgroups and cosets --------------------------------------------

    def close_subset(self, elements):
        """The subgroup ``elements`` generate: {0} and them, closed under right multiplication by them.

        Inverses need no step of their own: g^-1 = g^(m-1) for g of order m.
        """
        generators = set(elements)
        seed = generators | {0}
        frontier = list(seed)
        while frontier:
            a = frontier.pop()
            for g in generators:
                c = self.mul(a, g)
                if c not in seed:
                    seed.add(c)
                    frontier.append(c)
        return frozenset(seed)

    def subgroups(self):
        """All subgroups, as frozensets of element indices.

        The subgroup generated by h_1, ..., h_k is reached from {0} by
        closing with h_1, then h_2, and so on: closing every subgroup found
        with one more element finds them all.  S with g·h closes to the
        subgroup that S with g closes to, for every h in S, so one element
        of each left coset gS is enough.
        """
        found = {frozenset([0])}
        queue = list(found)
        while queue:
            sub = queue.pop()
            done = set(sub)
            for g in range(1, self.order):
                if g not in done:
                    done.update(self.mul(g, h) for h in sub)
                    closure = self.close_subset(sub | {g})
                    if closure not in found:
                        found.add(closure)
                        queue.append(closure)
        return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))

    def is_subgroup(self, subset):
        return self.close_subset(subset) == frozenset(subset)

    def cosets(self, subgroup):
        """Left cosets of a subgroup, as frozensets."""
        sub = frozenset(subgroup)
        out = set()
        for g in range(self.order):
            out.add(frozenset(self.mul(g, h) for h in sub))
        return tuple(sorted(out, key=lambda s: sorted(s)))


def parse_descriptor(text):
    """(order, build) for a group descriptor; the order needs no table, and a ``@table.json`` is read once."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            try:
                table = json.load(handle)
            except RecursionError:
                raise ValueError("group table JSON nests too deeply") from None
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError("a group table file must hold a list of rows")
        return len(table), lambda: FiniteGroup(table)
    named = {
        "V4": (4, lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))),
        "S3": (6, lambda: FiniteGroup.symmetric(3)),
        "S4": (24, lambda: FiniteGroup.symmetric(4)),
        "D4": (8, lambda: FiniteGroup.dihedral(4)),
        "Q8": (8, FiniteGroup.quaternion),
    }
    if text in named:
        return named[text]
    orders = []
    for part in text.split("x"):
        part = part.strip()
        if not part.startswith("Z/"):
            raise ValueError(f"unrecognised group descriptor: {text}")
        orders.append(int(part[2:].removesuffix("Z")))
    if any(m < 1 for m in orders):
        raise ValueError(f"cyclic factors need order >= 1: {text}")

    def build():
        group = FiniteGroup.cyclic(orders[0])
        for m in orders[1:]:
            group = FiniteGroup.direct_product(group, FiniteGroup.cyclic(m))
        return group

    return math.prod(orders), build


def group_from_descriptor(text):
    """Parse group names like Z/4, Z/2xZ/3, V4, S3, D4, Q8, or @table.json."""
    return parse_descriptor(text)[1]()

"""Planted forests, forest posets, and the forest diagonal complex.

A planted forest on [n] is stored child-to-parent; the transitive
closure gives a poset whose pairs (i, j) record that i is a proper
ancestor of j.  The ancestors of any vertex form a chain, and that
condition characterises the posets arising this way.  Grouping the
pairs (i, j) by the first edge of the path from i down to j partitions
each poset; the resulting partition map makes the set of forest posets
a proper diagonal complex on X_n = {(i, j) : i != j}.

Prufer words give the count (n+1)^(n-1) and drive enumeration; the
symmetric group acts by relabelling vertices, with orbits given by
coloured forest isomorphism types.
"""

import collections
import functools
import itertools
import operator

from . import BUILD_CAP

FOREST_JSON_SCHEMA = {
    "type": "array",
    "items": {"type": "integer", "minimum": -1},
}

ORBIT_JSON_SCHEMA = {
    "type": "object",
    "required": ["forest", "colors", "orbit_size", "stabilizer_order"],
    "properties": {
        "forest": FOREST_JSON_SCHEMA,
        "colors": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "orbit_size": {"type": "integer", "minimum": 1},
        "stabilizer_order": {"type": "integer", "minimum": 1},
    },
}

DECOMPOSITION_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "multiplicities", "rows"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "multiplicities": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["forest", "colors", "aut_order", "edges", "exponents", "module", "sign_twist"],
            },
        },
    },
}


class PlantedForest(collections.namedtuple("PlantedForest", "n parent")):
    """A forest on vertices 1..n; parent[v-1] is v's parent, 0 for roots."""

    __slots__ = ()

    def __new__(cls, n, parent):
        self = super().__new__(cls, n, parent)
        if self.n < 1 or len(self.parent) != self.n:
            raise ValueError("parent array must have length n >= 1")
        for v in range(1, self.n + 1):
            p = self.parent[v - 1]
            if not 0 <= p <= self.n or p == v:
                raise ValueError(f"bad parent {p} for vertex {v}")
        # 0: not yet visited, 1: on the current walk, 2: reaches a root
        state = [2] + [0] * self.n
        for v in range(1, self.n + 1):
            w = v
            while not state[w]:
                state[w] = 1
                w = self.parent[w - 1]
            if state[w] == 1:
                raise ValueError("parent map contains a cycle")
            while state[v] == 1:
                state[v] = 2
                v = self.parent[v - 1]
        return self

    @classmethod
    def of(cls, n, parent_map):
        """Build from a {child: parent} mapping; unmentioned vertices are roots."""
        parent = [0] * n
        for child, par in parent_map.items():
            parent[child - 1] = par
        return cls(n, tuple(parent))

    def children(self, v):
        return tuple(c for c in range(1, self.n + 1) if self.parent[c - 1] == v)

    def edges(self):
        """Edges as (parent, child), sorted."""
        return tuple(
            sorted((self.parent[v - 1], v) for v in range(1, self.n + 1) if self.parent[v - 1])
        )

    def edge_count(self):
        return sum(1 for p in self.parent if p)

    def ancestors(self, v):
        """Proper ancestors of v, nearest first."""
        out = []
        p = self.parent[v - 1]
        while p != 0:
            out.append(p)
            p = self.parent[p - 1]
        return tuple(out)

    def to_json(self):
        return [p if p else -1 for p in self.parent]


class ForestPoset(collections.namedtuple("ForestPoset", "n pairs")):
    """A nonempty subset of X_n, transitively closed, with chain ancestor sets.

    A pair (i, j) records that i is a proper ancestor of j.
    """

    __slots__ = ()

    def __new__(cls, n, pairs):
        self = super().__new__(cls, n, pairs)
        if not self.pairs:
            raise ValueError("forest posets are nonempty")
        for i, j in self.pairs:
            if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"bad pair ({i}, {j})")
            if (j, i) in self.pairs:
                raise ValueError(f"pairs ({i},{j}) and ({j},{i}) violate antisymmetry")
        ancestors = {}
        for i, j in self.pairs:
            ancestors.setdefault(j, set()).add(i)
        for i, j in self.pairs:
            for k in ancestors.get(i, ()):
                if (k, j) not in self.pairs:
                    raise ValueError("pair set is not transitively closed")
        for j, anc in ancestors.items():
            for a, b in itertools.combinations(sorted(anc), 2):
                if (a, b) not in self.pairs and (b, a) not in self.pairs:
                    raise ValueError(f"ancestors of {j} are not totally ordered")
        return self

    @classmethod
    def of(cls, n, pairs):
        return cls(n, frozenset(tuple(p) for p in pairs))


def poset_from_forest(forest):
    """The transitive closure: one pair (a, v) per proper ancestor a of v."""
    pairs = set()
    for v in range(1, forest.n + 1):
        for a in forest.ancestors(v):
            pairs.add((a, v))
    return ForestPoset(forest.n, frozenset(pairs))


def forest_from_poset(poset):
    """Covering relations of the poset: the inverse of poset_from_forest."""
    ancestors = {v: set() for v in range(1, poset.n + 1)}
    for i, j in poset.pairs:
        ancestors[j].add(i)
    parent = [0] * poset.n
    for j, anc in ancestors.items():
        if not anc:
            continue
        # the immediate parent is the ancestor below every other ancestor
        for a in anc:
            if all(b == a or (b, a) in poset.pairs for b in anc):
                parent[j - 1] = a
                break
        else:
            raise ValueError("no immediate ancestor found; invariants violated")
    return PlantedForest(poset.n, tuple(parent))


def _first_edge(forest, poset, i, j):
    """The edge (i, c) of the poset's forest that starts the chain from i down to j."""
    for c in forest.children(i):
        if c == j or (c, j) in poset.pairs:
            return (i, c)
    raise ValueError("no first edge found; invariants violated")


def mu(poset, i, j):
    """The first edge (i, c) of the unique chain from i down to j."""
    if (i, j) not in poset.pairs:
        raise ValueError(f"({i}, {j}) is not in the poset")
    return _first_edge(forest_from_poset(poset), poset, i, j)


@functools.cache  # one tuple per n, so spelt blocks share their (i, j) pairs
def x_n_pairs(n):
    """The ground set X_n in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


def x_n_index(n):
    """The index of each pair of X_n in :func:`x_n_pairs` order."""
    return {pair: k for k, pair in enumerate(x_n_pairs(n))}


def gamma_forest(poset):
    """The partition of a forest poset by first edges, over indexed X_n.

    The block of (i, j) consists of all pairs whose chain out of i starts
    with the same edge; blocks correspond to edges of the forest.
    """
    from .partitions import PartialPartition

    n = poset.n
    index = x_n_index(n)
    forest = forest_from_poset(poset)
    blocks = {}
    for i, j in poset.pairs:
        blocks.setdefault(_first_edge(forest, poset, i, j), []).append(index[(i, j)])
    return PartialPartition.of(n * (n - 1), blocks.values())


def blocks_as_pairs(blocks, n):
    """Spell blocks of X_n indices as tuples of (i, j) pairs.

    The pairs are in index order, which is lexicographic, so ascending
    indices spell ascending pairs.
    """
    pairs = x_n_pairs(n)
    return tuple(tuple(pairs[k] for k in block) for block in blocks)


def build_gamma_Fn(n):
    """Assemble the labelled diagonal complex of all nonempty forest posets on [n].

    The ground set is X_n under the lexicographic bijection, the label of
    (i, j) is i, and the simplices are the (n+1)^(n-1) - 1 forest posets.
    """
    from .complexes import DiagonalComplex

    if not 1 <= n <= BUILD_CAP:
        raise ValueError(f"n must be between 1 and {BUILD_CAP}")
    index = x_n_index(n)
    ground = len(index)
    gamma, shared = {}, {}  # a block recurs in many simplices: keep one int for it
    for forest in enumerate_forests(n):
        simplex = 0
        blocks = {}
        for v in range(1, n + 1):
            below, a = v, forest.parent[v - 1]
            while a:  # (a, v) joins the block of the edge from a to the vertex below a
                bit = 1 << index[(a, v)]
                simplex |= bit
                blocks[(a, below)] = blocks.get((a, below), 0) | bit
                below, a = a, forest.parent[a - 1]
        masks = (shared.setdefault(mask, mask) for mask in blocks.values())
        gamma[simplex] = tuple(sorted(masks, key=lambda mask: mask & -mask))
    return DiagonalComplex(ground, range(ground), gamma, [i for i, _ in index])


# -- Prufer words --------------------------------------------------------


def prufer_encode(forest):
    """The length n-1 word over {0..n} read off by removing maximal leaves.

    Vertex 0 is attached as the parent of every root; at each step the
    leaf of maximal value is removed and its parent recorded.
    """
    n = forest.n
    parent = [0] + [forest.parent[v - 1] for v in range(1, n + 1)]
    child_count = [0] * (n + 1)
    for v in range(1, n + 1):
        child_count[parent[v]] += 1
    alive = [True] * (n + 1)
    word = []
    for _ in range(n - 1):
        leaf = max(v for v in range(1, n + 1) if alive[v] and child_count[v] == 0)
        word.append(parent[leaf])
        alive[leaf] = False
        child_count[parent[leaf]] -= 1
    return tuple(word)


def prufer_decode(word):
    """The unique forest encoding to the given word, in O(n) steps.

    Only the letters are checked: every word over 0..n decodes to a forest.

    >>> forest = prufer_decode((1, 1))
    >>> forest.parent, forest == PlantedForest(3, (0, 1, 1))
    ((0, 1, 1), True)
    """
    n = len(word) + 1
    for s in word:
        if not 0 <= s <= n:
            raise ValueError(f"letter {s} outside alphabet 0..{n}")
    return next(_decode((word,), n))


def _decode(words, n):
    """The forest of each word of length n-1 over 0..n, as the words are drawn.

    The caller checks the letters.  Each step hangs the largest remaining
    leaf below a vertex still present, so the parent map is in range and
    acyclic by construction.  Each forest is built as the named tuple's own
    ``__new__`` builds it, without the checks of ``PlantedForest.__new__``
    proving that again.
    """
    template = [1] * (n + 1)
    new = tuple.__new__
    parent = [0] * n  # every entry is written for each word
    for word in words:
        degree = template.copy()
        for s in word:
            degree[s] += 1
        # the largest leaf only moves down, unless the letter just written becomes a larger leaf
        largest = n
        while degree[largest] != 1:
            largest -= 1
        leaf = largest
        for s in word:
            parent[leaf - 1] = s
            degree[s] -= 1
            if degree[s] == 1 and s > largest:
                leaf = s
            else:
                largest -= 1
                while degree[largest] != 1:
                    largest -= 1
                leaf = largest
        parent[leaf - 1] = 0  # the last leaf is a root
        yield new(PlantedForest, (n, tuple(parent)))


def enumerate_forests(n, include_empty=False):
    """An iterator over all planted forests on [n] in lexicographic word order.

    There are (n+1)^(n-1) words; the first, all-zero word is the empty
    forest and is dropped unless requested.  Each forest is decoded when
    it is reached, so memory does not grow with the count; the words are
    over 0..n by construction, so their letters are not checked either.
    """
    if n < 1:
        raise ValueError("n must be positive")
    words = itertools.product(range(n + 1), repeat=n - 1)
    return _decode(itertools.islice(words, 0 if include_empty else 1, None), n)


# -- symmetric-group orbits ----------------------------------------------


class ColoredForest(collections.namedtuple("ColoredForest", "forest colors")):
    __slots__ = ()

    def __new__(cls, forest, colors):
        self = super().__new__(cls, forest, colors)
        if len(self.colors) != self.forest.n:
            raise ValueError("colors must cover the vertex set")
        return self


class OrbitRow(collections.namedtuple("OrbitRow", "representative orbit_size stabilizer")):
    # stabilizer: the colour-preserving permutations fixing the representative
    __slots__ = ()

    @property
    def stabilizer_order(self):
        return len(self.stabilizer)


def _color_classes(n, multiplicities):
    if sum(multiplicities) != n or any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive and sum to n")
    colors = []
    classes = []
    v = 1
    for c, m in enumerate(multiplicities):
        classes.append(list(range(v, v + m)))
        colors.extend([c] * m)
        v += m
    return tuple(colors), classes


def _group_elements(classes):
    """All vertex permutations preserving the colour classes, as tuples."""
    n = sum(len(c) for c in classes)
    perms = []
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        sigma = [0] * (n + 1)
        for cls, image in zip(classes, images):
            for src, dst in zip(cls, image):
                sigma[src] = dst
        perms.append(tuple(sigma))
    return perms


def _apply_perm(sigma, parent):
    n = len(parent)
    moved = [0] * n
    for v in range(1, n + 1):
        moved[sigma[v] - 1] = sigma[parent[v - 1]]
    return tuple(moved)


def orbit_decomposition(n, multiplicities):
    """Orbit rows of the colour-preserving action on nonempty forests.

    Returns one row per orbit with a lexicographically minimal
    representative and the order of its stabilizer.  A forest already
    met in an orbit is flagged by its parent tuple read as a base-(n+1)
    number: (n+1)^n bytes in all, 115 KiB at n=6.
    """
    colors, classes = _color_classes(n, multiplicities)
    perms = _group_elements(classes)
    weights = [(n + 1) ** k for k in reversed(range(n))]
    rows = []
    seen = bytearray((n + 1) ** n)
    for forest in enumerate_forests(n):
        if seen[sum(map(operator.mul, forest.parent, weights))]:
            continue
        orbit = {_apply_perm(sigma, forest.parent) for sigma in perms}
        for parent in orbit:
            seen[sum(map(operator.mul, parent, weights))] = 1
        rep = PlantedForest(n, min(orbit))
        stab = tuple(sigma for sigma in perms if _apply_perm(sigma, rep.parent) == rep.parent)
        rows.append(OrbitRow(ColoredForest(rep, colors), len(orbit), stab))
    rows.sort(key=lambda r: (r.representative.forest.edge_count(), r.representative.forest.parent))
    return rows


class DecompositionRow(
    collections.namedtuple("DecompositionRow", "representative aut_order edge_count exponents module sign_twist")
):
    __slots__ = ()


def decomposition_report(n, multiplicities, base_series):
    """The rows of the decomposition, one per coloured-forest orbit with its coefficient module.

    The module of a forest is the product over vertices of the reduced
    series of the vertex's colour, one factor per outgoing edge; each
    distinct vector of edge counts per colour is evaluated once.  The
    sign flag marks orbits whose stabilizer moves edges (an element that
    fixes a child fixes its parent, so: moves a non-root vertex), where
    the one-dimensional determinant module would twist the coefficients.
    The group homology itself is deliberately not evaluated.
    """
    from .series import _monomial_modules, _reduced_factors

    if len(base_series) != len(multiplicities):
        raise ValueError("need one base series per colour")
    truncation, reduced = _reduced_factors(base_series)
    orbits = orbit_decomposition(n, multiplicities)
    vectors, twists = [], []
    for orbit in orbits:
        forest, colors = orbit.representative
        vector = [0] * len(multiplicities)
        for p in filter(None, forest.parent):
            vector[colors[p - 1]] += 1
        vectors.append(tuple(vector))
        children = [v for v, p in enumerate(forest.parent, 1) if p]
        twists.append(any(sigma[v] != v for sigma in orbit.stabilizer for v in children))
    modules = _monomial_modules(truncation, reduced, vectors)
    return tuple(
        DecompositionRow(orbit.representative, orbit.stabilizer_order, sum(vector), vector, modules[vector], twist)
        for orbit, vector, twist in zip(orbits, vectors, twists)
    )

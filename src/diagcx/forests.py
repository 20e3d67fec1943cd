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

import itertools
from dataclasses import dataclass

from .complexes import DiagonalComplex, Labelling
from .partitions import PartialPartition
from .series import GradedModuleSeries

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

BUILD_CAP = 6


@dataclass(frozen=True)
class PlantedForest:
    """A forest on vertices 1..n; parent[v-1] is v's parent, 0 for roots."""

    n: int
    parent: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.parent) != self.n:
            raise ValueError("parent array must have length n >= 1")
        for v in range(1, self.n + 1):
            p = self.parent[v - 1]
            if not 0 <= p <= self.n or p == v:
                raise ValueError(f"bad parent {p} for vertex {v}")
        for v in range(1, self.n + 1):
            seen = set()
            while v != 0:
                if v in seen:
                    raise ValueError("parent map contains a cycle")
                seen.add(v)
                v = self.parent[v - 1]

    @classmethod
    def of(cls, n, parent_map):
        """Build from a {child: parent} mapping; unmentioned vertices are roots."""
        parent = [0] * n
        for child, par in parent_map.items():
            parent[child - 1] = par
        return cls(n, tuple(parent))

    def roots(self):
        return tuple(v for v in range(1, self.n + 1) if self.parent[v - 1] == 0)

    def children(self, v):
        return tuple(c for c in range(1, self.n + 1) if self.parent[c - 1] == v)

    def out_degree(self, v):
        return sum(1 for c in range(1, self.n + 1) if self.parent[c - 1] == v)

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

    def subtree(self, v):
        """All proper descendants of v."""
        out = []
        stack = list(self.children(v))
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self.children(w))
        return tuple(sorted(out))

    def to_json(self):
        return [p if p else -1 for p in self.parent]

    @classmethod
    def from_json(cls, data):
        return cls(len(data), tuple(0 if p == -1 else p for p in data))


@dataclass(frozen=True)
class ForestPoset:
    """A nonempty subset of X_n, transitively closed, with chain ancestor sets.

    A pair (i, j) records that i is a proper ancestor of j.
    """

    n: int
    pairs: frozenset

    def __post_init__(self):
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


def mu(poset, i, j):
    """The first edge (i, c) of the unique chain from i down to j."""
    if (i, j) not in poset.pairs:
        raise ValueError(f"({i}, {j}) is not in the poset")
    forest = forest_from_poset(poset)
    for c in forest.children(i):
        if c == j or (c, j) in poset.pairs:
            return (i, c)
    raise ValueError("no first edge found; invariants violated")


def x_n_pairs(n):
    """The ground set X_n in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


def gamma_forest(poset):
    """The partition of a forest poset by first edges, over indexed X_n.

    The block of (i, j) consists of all pairs whose chain out of i starts
    with the same edge; blocks correspond to edges of the forest.
    """
    n = poset.n
    index = {pair: k for k, pair in enumerate(x_n_pairs(n))}
    forest = forest_from_poset(poset)
    blocks = {}
    for i, j in poset.pairs:
        for c in forest.children(i):
            if c == j or (c, j) in poset.pairs:
                blocks.setdefault((i, c), []).append(index[(i, j)])
                break
    return PartialPartition.of(n * (n - 1), blocks.values())


def blocks_as_pairs(partition, n):
    """Render an X_n partition as tuples of (i, j) pairs."""
    pairs = x_n_pairs(n)
    return tuple(tuple(pairs[k] for k in block) for block in partition.blocks)


@dataclass(frozen=True)
class ForestComplex:
    """The forest diagonal complex with its universal labelling."""

    n: int
    complex: DiagonalComplex
    labelling: Labelling
    pairs: tuple

    def simplex_of_poset(self, poset):
        index = {pair: k for k, pair in enumerate(self.pairs)}
        return frozenset(index[p] for p in poset.pairs)


def build_gamma_Fn(n):
    """Assemble the diagonal complex of all nonempty forest posets on [n].

    The ground set is X_n under the lexicographic bijection, the label of
    (i, j) is i, and the simplices are the (n+1)^(n-1) - 1 forest posets.
    """
    if not 1 <= n <= BUILD_CAP:
        raise ValueError(f"n must be between 1 and {BUILD_CAP}")
    pairs = x_n_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    ground = len(pairs)
    gamma = {}
    for forest in enumerate_forests(n):
        simplex = set()
        blocks = []
        for v in range(1, n + 1):
            for c in forest.children(v):
                block = [index[(v, c)]]
                simplex.add(index[(v, c)])
                for w in forest.subtree(c):
                    block.append(index[(v, w)])
                    simplex.add(index[(v, w)])
                blocks.append(block)
        gamma[frozenset(simplex)] = PartialPartition.of(ground, blocks)
    complex_ = DiagonalComplex(ground, gamma)
    labelling = Labelling(complex_, [pair[0] for pair in pairs])
    return ForestComplex(n, complex_, labelling, pairs)


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
    """The unique forest encoding to the given word."""
    n = len(word) + 1
    for s in word:
        if not 0 <= s <= n:
            raise ValueError(f"letter {s} outside alphabet 0..{n}")
    degree = [1] * (n + 1)
    for s in word:
        degree[s] += 1
    parent = [0] * (n + 1)
    for s in word:
        leaf = max(v for v in range(n + 1) if degree[v] == 1)
        parent[leaf] = s
        degree[leaf] -= 1
        degree[s] -= 1
    last = max(v for v in range(1, n + 1) if degree[v] == 1)
    parent[last] = 0
    return PlantedForest(n, tuple(parent[1:]))


def _decode_range(args):
    n, start, stop, include_empty = args
    width = n - 1
    base = n + 1
    out = []
    for code in range(start, stop):
        digits = []
        value = code
        for _ in range(width):
            digits.append(value % base)
            value //= base
        word = tuple(reversed(digits))
        if not include_empty and all(s == 0 for s in word):
            continue
        out.append(prufer_decode(word))
    return out


def _decode_parents(args):
    # Parent tuples, not forests: pickling forests raised n=7 peak RSS from 77 to 120 MiB
    return [forest.parent for forest in _decode_range(args)]


def enumerate_forests(n, include_empty=False, workers=1):
    """All planted forests on [n] in lexicographic word order.

    There are (n+1)^(n-1) words; the all-zero word is the empty forest
    and is dropped unless requested.  The word space may be sharded over
    worker processes; shards are merged in order, so output is identical
    for any worker count.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = (n + 1) ** (n - 1)
    if workers <= 1 or total < 1000:
        return _decode_range((n, 0, total, include_empty))
    import multiprocessing

    chunk = -(-total // workers)
    ranges = [
        (n, lo, min(lo + chunk, total), include_empty) for lo in range(0, total, chunk)
    ]
    with multiprocessing.Pool(workers) as pool:
        parts = pool.map(_decode_parents, ranges)
    return [PlantedForest(n, parent) for part in parts for parent in part]


# -- symmetric-group orbits ----------------------------------------------


@dataclass(frozen=True)
class ColoredForest:
    forest: PlantedForest
    colors: tuple

    def __post_init__(self):
        if len(self.colors) != self.forest.n:
            raise ValueError("colors must cover the vertex set")


@dataclass(frozen=True)
class OrbitRow:
    representative: ColoredForest
    orbit_size: int
    stabilizer_order: int


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
    representative and the order of its stabilizer.
    """
    colors, classes = _color_classes(n, multiplicities)
    perms = _group_elements(classes)
    rows = []
    seen = set()
    for forest in enumerate_forests(n):
        if forest.parent in seen:
            continue
        orbit = {_apply_perm(sigma, forest.parent) for sigma in perms}
        seen.update(orbit)
        rep = PlantedForest(n, min(orbit))
        stab = sum(1 for sigma in perms if _apply_perm(sigma, rep.parent) == rep.parent)
        rows.append(OrbitRow(ColoredForest(rep, colors), len(orbit), stab))
    rows.sort(key=lambda r: (r.representative.forest.edge_count(), r.representative.forest.parent))
    return rows


@dataclass(frozen=True)
class DecompositionRow:
    representative: ColoredForest
    aut_order: int
    edge_count: int
    exponents: tuple
    module: GradedModuleSeries
    sign_twist: bool


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    multiplicities: tuple
    rows: tuple

    def to_json(self):
        return {
            "n": self.n,
            "multiplicities": list(self.multiplicities),
            "rows": [
                {
                    "forest": row.representative.forest.to_json(),
                    "colors": list(row.representative.colors),
                    "aut_order": row.aut_order,
                    "edges": row.edge_count,
                    "exponents": list(row.exponents),
                    "module": row.module.to_json(),
                    "sign_twist": row.sign_twist,
                }
                for row in self.rows
            ],
        }

    def render_text(self):
        header = f"{'forest':<20} {'colors':<12} {'|Aut|':>5} {'edges':>5} {'sign':>5}  module"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            forest = ",".join(map(str, row.representative.forest.to_json()))
            colors = ",".join(map(str, row.representative.colors))
            lines.append(
                f"{forest:<20} {colors:<12} {row.aut_order:>5} {row.edge_count:>5} "
                f"{'yes' if row.sign_twist else 'no':>5}  {row.module.render()}"
            )
        return "\n".join(lines)


def _stabilizer_moves_edges(rep, perms):
    edges = set(rep.edges())
    for sigma in perms:
        if _apply_perm(sigma, rep.parent) != rep.parent:
            continue
        for a, b in edges:
            if (sigma[a], sigma[b]) != (a, b):
                return True
    return False


def decomposition_report(n, multiplicities, base_series):
    """One row per coloured-forest orbit with its coefficient module.

    The module of a forest is the product over vertices of the reduced
    series of the vertex's colour, one factor per outgoing edge.  The
    sign flag marks orbits whose stabilizer moves edges, where the
    one-dimensional determinant module would twist the coefficients.
    The group homology itself is deliberately not evaluated.
    """
    if len(base_series) != len(multiplicities):
        raise ValueError("need one base series per colour")
    truncations = {s.truncation for s in base_series}
    if len(truncations) != 1:
        raise ValueError("mixed truncations")
    truncation = truncations.pop()
    _, classes = _color_classes(n, multiplicities)
    perms = _group_elements(classes)
    reduced = [s.reduced() for s in base_series]
    rows = []
    for orbit in orbit_decomposition(n, multiplicities):
        rep = orbit.representative
        exponents = [0] * len(multiplicities)
        for v in range(1, n + 1):
            exponents[rep.colors[v - 1]] += rep.forest.out_degree(v)
        module = GradedModuleSeries.unit(truncation)
        for c, e in enumerate(exponents):
            for _ in range(e):
                module = module.mul(reduced[c])
        rows.append(
            DecompositionRow(
                rep,
                orbit.stabilizer_order,
                rep.forest.edge_count(),
                tuple(exponents),
                module,
                _stabilizer_moves_edges(rep.forest, perms),
            )
        )
    return DecompositionReport(n, tuple(multiplicities), tuple(rows))

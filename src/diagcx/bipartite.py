"""Bipartite planted forests and their foldings.

These forests have ordinary vertices 1..n and anonymous internal
vertices, with edges alternating between the two kinds and all extremal
vertices ordinary.  Each internal vertex v contributes one block
U_v = {(p(v), w) : w an ordinary vertex reachable through v}, giving a
partial partition of X_n.  Horizontal foldings merge two blocks, vertical
foldings delete one; the partitions realised this way are exactly the
objects of the meet-closed category of the forest diagonal complex.
"""

import collections
import itertools

from .forests import PlantedForest, x_n_index
from .partitions import PartialPartition

BIPARTITE_CAP = 4


class BipartiteForest(collections.namedtuple("BipartiteForest", "n internal parent")):
    """Canonical form: internal vertices are n+1..n+internal, in order of
    (parent, least child); instances compare equal exactly when they agree
    up to internal relabelling."""

    __slots__ = ()

    def __new__(cls, n, internal, parent):
        self = super().__new__(cls, n, internal, parent)
        n, m = self.n, self.internal
        if n < 1 or m < 0 or len(self.parent) != n + m:
            raise ValueError("parent array must cover [n] and the internal vertices")
        for v in range(1, n + m + 1):
            p = self.parent[v - 1]
            if v <= n:
                if p != 0 and not n < p <= n + m:
                    raise ValueError(f"ordinary vertex {v} must hang under an internal vertex")
            else:
                if not 1 <= p <= n:
                    raise ValueError(f"internal vertex {v} must hang under an ordinary vertex")
        PlantedForest(n + m, self.parent)
        for x in range(n + 1, n + m + 1):
            if not any(self.parent[c - 1] == x for c in range(1, n + 1)):
                raise ValueError(f"internal vertex {x} is a leaf")
        if self.parent != _canonical_parent(n, dict(enumerate(self.parent, start=1))):
            raise ValueError("internal vertices are not canonically labelled; use .of()")
        return self

    @classmethod
    def of(cls, n, parent_map):
        """Build from a {vertex: parent} mapping with arbitrary internal ids > n."""
        parent = _canonical_parent(n, parent_map)
        return cls(n, len(parent) - n, parent)

    def children(self, v):
        return tuple(c for c in range(1, self.n + self.internal + 1) if self.parent[c - 1] == v)

    def internal_vertices(self):
        return tuple(range(self.n + 1, self.n + self.internal + 1))

    def ordinary_descendants(self, v):
        out = []
        stack = list(self.children(v))
        while stack:
            w = stack.pop()
            if w <= self.n:
                out.append(w)
            stack.extend(self.children(w))
        return tuple(sorted(out))


def _canonical_parent(n, parent_map):
    """The parent array of a {vertex: parent} mapping, internal ids > n renamed
    n+1, n+2, ... in order of (parent, least child).

    Siblings have disjoint nonempty sets of ordinary children, so the key
    tells any two internal vertices of a bipartite forest apart.  It is one
    sort, so it also ends on mappings the constructor then rejects.
    """
    least = {}
    for v in range(n, 0, -1):  # descending, so each internal vertex keeps its least child
        least[parent_map.get(v, 0)] = v
    internal = {v for v in parent_map if v > n} | {p for p in parent_map.values() if p > n}
    order = [x for *_, x in sorted((parent_map.get(x, 0), least.get(x, 0), x) for x in internal)]
    rename = {old: new for new, old in enumerate(order, start=n + 1)}
    parent = [0] * (n + len(order))
    for v, p in parent_map.items():
        parent[rename.get(v, v) - 1] = rename.get(p, p)
    return tuple(parent)


def subdivide(forest):
    """Barycentric subdivision: one internal vertex per edge.

    The associated partial partition equals the forest poset's partition.
    """
    n = forest.n
    parent_map = {}
    next_id = n + 1
    for p, c in forest.edges():
        parent_map[next_id] = p
        parent_map[c] = next_id
        next_id += 1
    return BipartiteForest.of(n, parent_map)


def partial_partition_of(forest):
    """One block per internal vertex: pairs (parent, reachable ordinary vertex)."""
    n = forest.n
    index = x_n_index(n)
    blocks = []
    for x in forest.internal_vertices():
        p = forest.parent[x - 1]
        blocks.append([index[(p, w)] for w in forest.ordinary_descendants(x)])
    return PartialPartition.of(n * (n - 1), blocks)


def _check_internal_pair(forest, x, y):
    internal = set(forest.internal_vertices())
    if x == y or x not in internal or y not in internal:
        raise ValueError("need two distinct internal vertices")


def _fold(forest, keep, drop):
    """The forest without internal vertex ``drop``, its children re-hung on ``keep``."""
    parent_map = {}
    for v in range(1, forest.n + forest.internal + 1):
        p = forest.parent[v - 1]
        if v != drop and p != 0:
            parent_map[v] = keep if p == drop else p
    return BipartiteForest.of(forest.n, parent_map)


def horizontal_fold(forest, x, y):
    """Identify two internal vertices with a common parent.

    The blocks U_x and U_y merge; everything else is untouched.
    """
    _check_internal_pair(forest, x, y)
    if forest.parent[x - 1] != forest.parent[y - 1]:
        raise ValueError("horizontal folding needs a common parent")
    return _fold(forest, x, y)


def vertical_fold(forest, x, y):
    """Identify internal x with the internal grandparent y of its parent.

    Requires the chain y -> j -> x with j ordinary; the block U_x
    disappears and U_y keeps its pairs.
    """
    _check_internal_pair(forest, x, y)
    j = forest.parent[x - 1]
    if not 1 <= j <= forest.n or forest.parent[j - 1] != y:
        raise ValueError("vertical folding needs the chain y -> j -> x")
    return _fold(forest, y, x)


def set_partitions(items):
    """Every partition of the items into nonempty blocks, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1 :]
        yield [[first]] + smaller


def enumerate_bipartite_forests(n):
    """All bipartite planted forests on [n] with at least one edge."""
    out = []
    vertices = range(1, n + 1)
    for size in range(1, n):
        for hang in itertools.combinations(vertices, size):
            for blocks in set_partitions(hang):
                for parents in itertools.product(vertices, repeat=len(blocks)):
                    parent_map = {}
                    for x, (block, p) in enumerate(zip(blocks, parents), start=n + 1):
                        parent_map[x] = p
                        parent_map.update(dict.fromkeys(block, x))
                    try:
                        out.append(BipartiteForest.of(n, parent_map))
                    except ValueError:  # a parent inside its own block makes a cycle
                        pass
    return out


def enumerate_bipartite(n):
    """The set of partial partitions realised by bipartite forests on [n]."""
    if n > BIPARTITE_CAP:
        raise ValueError(f"n must be at most {BIPARTITE_CAP}")
    partitions = {partial_partition_of(f) for f in enumerate_bipartite_forests(n)}
    return tuple(sorted(partitions, key=lambda part: part.blocks))

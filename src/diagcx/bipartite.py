"""Bipartite planted forests and their foldings.

These forests have ordinary vertices 1..n and anonymous internal
vertices, with edges alternating between the two kinds and all extremal
vertices ordinary.  Each internal vertex v contributes one block
U_v = {(p(v), w) : w an ordinary vertex reachable through v}, giving a
partial partition of X_n.  Horizontal foldings merge two blocks, vertical
foldings delete one; the partitions realised this way are exactly the
objects of the meet-closed category of the forest diagonal complex.
"""

import itertools
from dataclasses import dataclass

from .forests import PlantedForest, x_n_pairs
from .partitions import PartialPartition

BIPARTITE_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "internal", "parents"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "internal": {"type": "integer", "minimum": 0},
        "parents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
}


@dataclass(frozen=True)
class BipartiteForest:
    """Canonical form: internal vertices are n+1..n+internal, renamed
    deterministically by structure; instances compare equal exactly when
    they agree up to internal relabelling."""

    n: int
    internal: int
    parent: tuple

    def __post_init__(self):
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
        if self.parent != _canonical_parent(n, m, self.parent):
            raise ValueError("internal vertices are not canonically labelled; use .of()")

    @classmethod
    def of(cls, n, parent_map):
        """Build from a {vertex: parent} mapping with arbitrary internal ids > n."""
        internal_ids = sorted({v for v in parent_map if v > n} | {p for p in parent_map.values() if p > n})
        rename = {old: n + 1 + k for k, old in enumerate(internal_ids)}
        m = len(internal_ids)
        parent = [0] * (n + m)
        for v, p in parent_map.items():
            parent[rename.get(v, v) - 1] = rename.get(p, p)
        parent = tuple(parent)
        # _canonical_parent never returns on a cycle, so reject cycles first
        PlantedForest(n + m, parent)
        return cls(n, m, _canonical_parent(n, m, parent))

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

    def to_json(self):
        return {"n": self.n, "internal": self.internal, "parents": list(self.parent)}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], data["internal"], tuple(data["parents"]))


def _canonical_parent(n, m, parent):
    """Rename internal vertices by a deterministic structural traversal."""

    def children(v):
        return [c for c in range(1, n + m + 1) if parent[c - 1] == v]

    def sig_ordinary(w):
        return (w, tuple(sorted(sig_internal(x) for x in children(w))))

    def sig_internal(x):
        return tuple(sorted(sig_ordinary(w) for w in children(x)))

    rename = {}
    next_label = n + 1
    for w in range(1, n + 1):
        for x in sorted(children(w), key=sig_internal):
            rename[x] = next_label
            next_label += 1
    out = [0] * (n + m)
    for v in range(1, n + m + 1):
        p = parent[v - 1]
        out[rename.get(v, v) - 1] = rename.get(p, p)
    return tuple(out)


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
    index = {pair: k for k, pair in enumerate(x_n_pairs(n))}
    blocks = []
    for x in forest.internal_vertices():
        p = forest.parent[x - 1]
        blocks.append([index[(p, w)] for w in forest.ordinary_descendants(x)])
    return PartialPartition.of(n * (n - 1), blocks)


def horizontal_fold(forest, x, y):
    """Identify two internal vertices with a common parent.

    The blocks U_x and U_y merge; everything else is untouched.
    """
    internal = set(forest.internal_vertices())
    if x == y or x not in internal or y not in internal:
        raise ValueError("need two distinct internal vertices")
    if forest.parent[x - 1] != forest.parent[y - 1]:
        raise ValueError("horizontal folding needs a common parent")
    parent_map = {}
    for v in range(1, forest.n + forest.internal + 1):
        if v == y:
            continue
        p = forest.parent[v - 1]
        if p == 0:
            continue
        parent_map[v] = x if p == y else p
    return BipartiteForest.of(forest.n, parent_map)


def vertical_fold(forest, x, y):
    """Identify internal x with the internal grandparent y of its parent.

    Requires the chain y -> j -> x with j ordinary; the block U_x
    disappears and U_y keeps its pairs.
    """
    internal = set(forest.internal_vertices())
    if x == y or x not in internal or y not in internal:
        raise ValueError("need two distinct internal vertices")
    j = forest.parent[x - 1]
    if not 1 <= j <= forest.n or forest.parent[j - 1] != y:
        raise ValueError("vertical folding needs the chain y -> j -> x")
    parent_map = {}
    for v in range(1, forest.n + forest.internal + 1):
        if v == x:
            continue
        p = forest.parent[v - 1]
        if p == 0:
            continue
        parent_map[v] = y if p == x else p
    return BipartiteForest.of(forest.n, parent_map)


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
                    ok = True
                    for k, (block, p) in enumerate(zip(blocks, parents)):
                        x = n + 1 + k
                        if p in block:
                            ok = False
                            break
                        parent_map[x] = p
                        for c in block:
                            parent_map[c] = x
                    if not ok:
                        continue
                    try:
                        out.append(BipartiteForest.of(n, parent_map))
                    except ValueError:
                        continue
    return out


def enumerate_bipartite(n, cap=4):
    """The set of partial partitions realised by bipartite forests on [n]."""
    if n > cap:
        raise ValueError(f"n must be at most {cap}")
    partitions = {partial_partition_of(f) for f in enumerate_bipartite_forests(n)}
    return tuple(sorted(partitions, key=lambda part: part.blocks))

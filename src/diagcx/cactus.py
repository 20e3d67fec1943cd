"""Cactus diagrams over rooted trees and their coordinate embedding.

A cactus diagram is a rooted tree on [n] whose edges carry points: the
edge from v to its parent p is labelled by a point of p's pointed set,
recording where v's basepoint is glued.  Reading off, for every ordered
pair (i, j), the label of the last edge of the path from j up to i (the
basepoint of i when that path is not directed) embeds diagrams modulo
congruence into the product of the factors.  Two diagrams are congruent
exactly when their coordinate matrices agree.

Factors are finite pointed sets here; point 0 is the basepoint.
"""

import collections

from .forests import PlantedForest


class CactusDiagram(collections.namedtuple("CactusDiagram", "n parent labels sizes")):
    """A rooted tree on 1..n with an edge label per non-root vertex.

    parent[v-1] is v's parent (0 for the unique root); labels[v-1] is the
    point of the parent's pointed set where v is glued, and must be 0 at
    the root slot.  sizes[i-1] is the size of the i-th pointed set.
    """

    __slots__ = ()

    def __new__(cls, n, parent, labels, sizes):
        self = super().__new__(cls, n, parent, labels, sizes)
        n = self.n
        if n < 1 or len(self.parent) != n or len(self.labels) != n or len(self.sizes) != n:
            raise ValueError("parent, labels and sizes must all have length n")
        if any(s < 1 for s in self.sizes):
            raise ValueError("pointed sets must contain the basepoint")
        roots = [v for v in range(1, n + 1) if self.parent[v - 1] == 0]
        if len(roots) != 1:
            raise ValueError("a cactus diagram has exactly one root")
        PlantedForest(n, self.parent)
        for v in range(1, n + 1):
            p = self.parent[v - 1]
            if p == 0:
                if self.labels[v - 1] != 0:
                    raise ValueError("the root carries no edge label")
            elif not 0 <= self.labels[v - 1] < self.sizes[p - 1]:
                raise ValueError(f"label of vertex {v} outside the parent's pointed set")
        return self


def coordinates(diagram):
    """The coordinate matrix (y_ij) with y_ij in the i-th pointed set.

    Row i, column j: when the path from j to i climbs towards the root
    all the way, the entry is the label of the final edge into i;
    otherwise it is the basepoint.  Diagonal slots are 0.
    """
    n = diagram.n
    matrix = [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        # walk from j to the root; every prefix (j .. i) is a directed path
        child = j
        i = diagram.parent[j - 1]
        while i != 0:
            matrix[i - 1][j - 1] = diagram.labels[child - 1]
            child = i
            i = diagram.parent[i - 1]
    return tuple(tuple(row) for row in matrix)


def congruent(a, b):
    """Whether two diagrams present the same glued space."""
    if a.n != b.n or a.sizes != b.sizes:
        raise ValueError("diagrams must share factor data")
    return coordinates(a) == coordinates(b)


def render_matrix(matrix):
    """Text rendering with the basepoint drawn as a middle dot."""
    n = len(matrix)
    lines = []
    for i in range(n):
        cells = []
        for j in range(n):
            if i == j:
                cells.append("-")
            else:
                value = matrix[i][j]
                cells.append("·" if value == 0 else str(value))
        lines.append(" ".join(cells))
    return "\n".join(lines)

"""Exact integer linear algebra and chain-level homology checks.

Everything here is integer-exact: ranks come from fraction-free Bareiss
elimination and torsion from Smith normal form, both on plain lists of
Python ints.  Three consumers: integral homology of small simplicial
complexes, coset nerves of subgroup families, and the rank computation
that verifies the homology splitting of circle-coefficient complex
products without assuming it.
"""

import itertools
from dataclasses import dataclass

HOMOLOGY_JSON_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["free", "torsion"],
        "properties": {
            "free": {"type": "integer", "minimum": 0},
            "torsion": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        },
    },
}


def integer_rank(rows):
    """Rank of an integer matrix by Bareiss fraction-free elimination."""
    matrix = [list(row) for row in rows]
    if not matrix or not matrix[0]:
        return 0
    m, n = len(matrix), len(matrix[0])
    rank = 0
    prev = 1
    col = 0
    while rank < m and col < n:
        pivot_row = next((r for r in range(rank, m) if matrix[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(rank + 1, m):
            factor = matrix[r][col]
            for c in range(col, n):
                matrix[r][c] = (matrix[r][c] * pivot - factor * matrix[rank][c]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def smith_normal_form(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""
    matrix = [list(row) for row in rows]
    if not matrix or not matrix[0]:
        return []
    m, n = len(matrix), len(matrix[0])
    factors = []
    top = 0
    while top < min(m, n):
        # locate a nonzero entry of minimal absolute value
        best = None
        for r in range(top, m):
            for c in range(top, n):
                v = abs(matrix[r][c])
                if v and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None:
            break
        _, r, c = best
        matrix[top], matrix[r] = matrix[r], matrix[top]
        for row in matrix:
            row[top], row[c] = row[c], row[top]
        pivot = matrix[top][top]
        dirty = False
        for r in range(top + 1, m):
            q = matrix[r][top] // pivot
            if q:
                for k in range(top, n):
                    matrix[r][k] -= q * matrix[top][k]
            if matrix[r][top]:
                dirty = True
        for c in range(top + 1, n):
            q = matrix[top][c] // pivot
            if q:
                for row in matrix:
                    row[c] -= q * row[top]
            if matrix[top][c]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block
        offender = None
        for r in range(top + 1, m):
            for c in range(top + 1, n):
                if matrix[r][c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            for k in range(top, n):
                matrix[top][k] += matrix[offender][k]
            continue
        factors.append(abs(pivot))
        top += 1
    return factors


@dataclass(frozen=True)
class SimplicialComplexData:
    """A finite abstract simplicial complex, downward closed."""

    vertex_count: int
    faces: frozenset

    def __post_init__(self):
        for face in self.faces:
            if not face:
                raise ValueError("faces are nonempty")
            for v in face:
                if not 0 <= v < self.vertex_count:
                    raise ValueError(f"vertex {v} out of range")
            for k in range(1, len(face)):
                for sub in itertools.combinations(sorted(face), k):
                    if frozenset(sub) not in self.faces:
                        raise ValueError(f"missing face {sub}")

    @classmethod
    def from_maximal(cls, vertex_count, maximal_faces):
        faces = set()
        for face in maximal_faces:
            face = tuple(sorted(face))
            for k in range(1, len(face) + 1):
                for sub in itertools.combinations(face, k):
                    faces.add(frozenset(sub))
        return cls(vertex_count, frozenset(faces))

    def faces_of_dimension(self, k):
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == k + 1)

    def dimension(self):
        return max((len(f) for f in self.faces), default=0) - 1


def boundary_matrix(complex_, k):
    """The boundary map from k-faces to (k-1)-faces, rows indexed by the latter."""
    lower = complex_.faces_of_dimension(k - 1)
    upper = complex_.faces_of_dimension(k)
    index = {f: i for i, f in enumerate(lower)}
    matrix = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for omit in range(len(face)):
            sub = face[:omit] + face[omit + 1 :]
            matrix[index[sub]][j] = (-1) ** omit
    return matrix


def simplicial_homology(complex_, max_degree=None):
    """Integral homology per degree as (free rank, torsion invariants)."""
    if max_degree is None:
        max_degree = complex_.dimension()
    out = []
    rank_k = 0  # rank of the boundary out of degree k, from the previous Smith form
    for k in range(max_degree + 1):
        # one nonzero invariant factor per unit of rank
        factors = smith_normal_form(boundary_matrix(complex_, k + 1))
        free = len(complex_.faces_of_dimension(k)) - rank_k - len(factors)
        out.append((free, tuple(d for d in factors if d > 1)))
        rank_k = len(factors)
    return out


def reduced_betti(complex_, max_degree):
    """Free ranks with one Z removed from degree zero."""
    homology = simplicial_homology(complex_, max_degree)
    betti = [free for free, _ in homology]
    if betti:
        betti[0] -= 1
    return betti


def is_acyclic(complex_, max_degree):
    homology = simplicial_homology(complex_, max_degree)
    if homology[0] != (1, ()):
        return False
    return all(h == (0, ()) for h in homology[1:])


# -- coset nerves -----------------------------------------------------------


def coset_nerve(group, family):
    """The order complex of the coset poset of an intersection-closed family.

    Vertices are cosets gH for H in the family; faces are chains under
    inclusion.  Returns the complex together with the coset list in
    vertex order.
    """
    family = [frozenset(h) for h in family]
    for h in family:
        if not group.is_subgroup(h):
            raise ValueError("family members must be subgroups")
    for h1, h2 in itertools.combinations(family, 2):
        if h1 & h2 not in family:
            raise ValueError("family must be closed under pairwise intersection")
    cosets = set()
    for h in family:
        cosets.update(group.cosets(h))
    cosets = sorted(cosets, key=lambda s: (len(s), sorted(s)))
    index = {c: i for i, c in enumerate(cosets)}
    above = {c: [d for d in cosets if c < d] for c in cosets}
    faces = set()

    def grow(chain):
        faces.add(frozenset(index[c] for c in chain))
        for d in above[chain[-1]]:
            grow(chain + [d])

    for c in cosets:
        grow([c])
    return SimplicialComplexData(len(cosets), frozenset(faces)), cosets


# -- circle-coefficient chain model ------------------------------------------


def torus_model_generators(complex_, degree):
    """The degree-k generator matrix of the circle chain model.

    One row per distinct vector: a simplex U with a chosen set A of k
    gamma blocks contributes the sum of all transversals of A (the
    cellular diagonal sends the 1-cell to the sum over positions).
    Columns are indexed by k-subsets of the ground set, zero columns
    omitted.
    """
    columns = {}
    vectors = set()
    for part in complex_.gamma.values():
        blocks = part.blocks
        if len(blocks) < degree:
            continue
        for combo in itertools.combinations(blocks, degree):
            entries = {}
            for transversal in itertools.product(*combo):
                key = frozenset(transversal)
                if key not in columns:
                    columns[key] = len(columns)
                entries[columns[key]] = entries.get(columns[key], 0) + 1
            vectors.add(tuple(sorted(entries.items())))
    width = len(columns)
    rows = []
    for sparse in sorted(vectors):
        row = [0] * width
        for col, value in sparse:
            row[col] = value
        rows.append(row)
    return rows


def torus_model_betti(complex_, labelling=None):
    """Betti numbers of the complex product with every factor a circle.

    The ambient chain complex of the torus has one basis element per
    subset of the ground set and zero differential, so homology in degree
    k is the exact integer rank of the degree-k generator vectors.
    Nothing here assumes the splitting theorem.
    """
    report = complex_.validate()
    if not report.ok:
        raise ValueError("invalid diagonal complex")
    if labelling is not None:
        labelling.check_against(complex_)
    if complex_.ground_size == 0 or not complex_.gamma:
        return [1]
    max_blocks = max(len(part.blocks) for part in complex_.gamma.values())
    ranks = []
    for degree in range(1, max_blocks + 1):
        rows = torus_model_generators(complex_, degree)
        ranks.append(integer_rank(rows) if rows else 0)
    return [1] + ranks


def triplet_dump(rows):
    """Plain (row, col, value) triplet lines for external checking."""
    lines = []
    for r, row in enumerate(rows):
        for c, value in enumerate(row):
            if value:
                lines.append(f"{r} {c} {value}")
    return "\n".join(lines) + ("\n" if lines else "")

"""Exact integer linear algebra and chain-level homology checks.

Every matrix here is a list of sparse rows ``{column: value}`` of Python
ints, and one exact kernel, ``smith_normal_form``, reduces them: it gives
the torsion of a boundary map and, by counting invariant factors, the
rank.  Three consumers: integral homology of small simplicial complexes,
coset nerves of subgroup families, and the rank computation that
verifies the homology splitting of circle-coefficient complex products
without assuming it.
"""

import collections
import functools
import heapq
import itertools

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


def smith_normal_form(rows):
    """Invariant factors d_1 | d_2 | ... of an integer matrix of sparse rows.

    Each row maps a column to its value; absent columns are zero.

    >>> smith_normal_form([{0: 2}, {1: 3}])
    [1, 6]

    Every step pivots on an entry of least absolute value, so a ±1 entry
    is taken whenever one is left, from the shortest row that has one
    (rows wait in a heap keyed by length).  Row operations clear the
    pivot's column; once it is alone there, column operations clear its
    row and touch no other row.  A nonzero remainder is a smaller entry,
    and the next step pivots on it.  A pivot left alone in its row and
    column that divides every remaining entry is the next invariant
    factor; otherwise the row of an entry it does not divide is first
    added to its row, so clearing the row leaves a remainder.  A ±1 pivot
    divides everything.  Each step either takes a factor or leaves an
    entry smaller than its pivot, so the loop ends.
    """
    live = {}  # row id -> {column: nonzero value}
    cols = {}  # column -> ids of the rows with an entry there
    heap = []  # (length, row id), pushed whenever a row changes
    for rid, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[rid] = row
            heap.append((len(row), rid))
            for c in row:
                cols.setdefault(c, set()).add(rid)
    heapq.heapify(heap)

    def add_multiple(target, source, q):
        """Row ``target`` -= q * row ``source``, keeping ``cols`` and ``heap`` current."""
        row = live[target]
        for c, v in live[source].items():
            value = row.get(c, 0) - q * v
            if value:
                if c not in row:
                    cols[c].add(target)
                row[c] = value
            elif c in row:
                del row[c]
                cols[c].discard(target)
        if row:
            heapq.heappush(heap, (len(row), target))
        else:
            del live[target]

    def least_entry():
        while heap:
            length, rid = heapq.heappop(heap)
            row = live.get(rid)
            if row is not None and len(row) == length:
                units = [c for c, v in row.items() if v in (1, -1)]
                if units:
                    return rid, min(units, key=lambda c: len(cols[c]))
        _, rid, col = min((abs(v), rid, c) for rid, row in live.items() for c, v in row.items())
        return rid, col

    factors = []
    while live:
        rid, col = least_entry()
        row = live[rid]
        pivot = row[col]
        for other in [r for r in cols[col] if r != rid]:
            add_multiple(other, rid, live[other][col] // pivot)
        if len(cols[col]) > 1:
            continue  # a remainder is left in the column: a smaller pivot
        if abs(pivot) > 1 and not any(v % pivot for v in row.values()):
            # clearing the row leaves the pivot alone: it must divide every entry
            offender = next((r for r, other in live.items() if any(v % pivot for v in other.values())), None)
            if offender is not None:
                add_multiple(rid, offender, -1)
        for c in [c for c in row if c != col]:  # column operations; they touch no other row
            row[c] %= pivot
            if not row[c]:
                del row[c]
                cols[c].discard(rid)
        if len(row) > 1:
            heapq.heappush(heap, (len(row), rid))
            continue  # a remainder is left in the row: a smaller pivot
        cols[col].discard(rid)
        del live[rid]
        factors.append(abs(pivot))
    return factors


def integer_rank(rows):
    """Rank of an integer matrix of sparse rows: its number of invariant factors."""
    return len(smith_normal_form(rows))


class SimplicialComplexData(collections.namedtuple("SimplicialComplexData", "faces")):
    """A finite abstract simplicial complex, downward closed.

    A face is the strictly increasing tuple of its vertices.  Only the
    facets of each face are looked up: by induction on dimension, every
    nonempty subset of a face is then a face.
    """

    __slots__ = ()

    def __new__(cls, faces):
        self = super().__new__(cls, faces)
        for face in self.faces:
            if not face or any(a >= b for a, b in zip(face, face[1:])):
                raise ValueError(f"a face is a nonempty increasing tuple of vertices, not {face}")
            for facet in itertools.combinations(face, len(face) - 1):
                if facet and facet not in self.faces:
                    raise ValueError(f"missing face {facet}")
        return self

    @classmethod
    def from_maximal(cls, maximal_faces):
        faces = (itertools.combinations(f, k) for f in map(sorted, maximal_faces) for k in range(1, len(f) + 1))
        return cls(frozenset(itertools.chain.from_iterable(faces)))

    def faces_of_dimension(self, k):
        return sorted(f for f in self.faces if len(f) == k + 1)

    def dimension(self):
        return max(map(len, self.faces), default=0) - 1


def boundary_matrix(lower, upper):
    """The boundary map from the k-faces ``upper`` to the (k-1)-faces ``lower``, as one row per face of ``lower``."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [{} for _ in lower]
    for j, face in enumerate(upper):
        for omit in range(len(face)):
            rows[index[face[:omit] + face[omit + 1 :]]][j] = (-1) ** omit
    return rows


def simplicial_homology(complex_, max_degree=None):
    """Integral homology per degree as (free rank, torsion invariants); zero above the dimension.

    >>> simplicial_homology(SimplicialComplexData.from_maximal([(0, 1), (1, 2), (0, 2)]))
    [(1, ()), (1, ())]
    """
    dimension = complex_.dimension()
    max_degree = dimension if max_degree is None else max_degree
    out = []
    rank_k = 0  # rank of the boundary out of degree k, from the previous Smith form
    lower = complex_.faces_of_dimension(0)
    for k in range(min(max_degree, dimension) + 1):
        upper = complex_.faces_of_dimension(k + 1)
        # one nonzero invariant factor per unit of rank
        factors = smith_normal_form(boundary_matrix(lower, upper))
        out.append((len(lower) - rank_k - len(factors), tuple(d for d in factors if d > 1)))
        rank_k, lower = len(factors), upper
    return out + [(0, ())] * (max_degree - len(out) + 1)


# -- coset nerves -----------------------------------------------------------


def coset_nerve(group, family, max_vertices=None):
    """The order complex of the coset poset of an intersection-closed family.

    Vertices are cosets gH for H in the family; faces are chains under
    inclusion, built level by level up to ``max_vertices`` cosets (by
    default, every chain).  Returns the complex together with the coset
    list in vertex order.
    """
    family = [frozenset(h) for h in family]
    if not all(map(group.is_subgroup, family)):
        raise ValueError("family members must be subgroups")
    if any(h1 & h2 not in family for h1, h2 in itertools.combinations(family, 2)):
        raise ValueError("family must be closed under pairwise intersection")
    cosets = sorted({c for h in family for c in group.cosets(h)}, key=lambda s: (len(s), sorted(s)))
    index = {c: i for i, c in enumerate(cosets)}
    above = {c: [d for d in cosets if c < d] for c in cosets}
    faces, chains = set(), [[c] for c in cosets]
    for _ in range(len(cosets) if max_vertices is None else max_vertices):
        faces.update(tuple(index[c] for c in chain) for chain in chains)  # sorted by size, cosets go up a chain
        chains = [chain + [d] for chain in chains for d in above[chain[-1]]]
    return SimplicialComplexData(frozenset(faces)), cosets


def coset_nerve_face_count(group, family, max_vertices):
    """The faces of :func:`coset_nerve` with at most ``max_vertices`` vertices, without building it.

    A face is a strict chain of cosets gH_0 < gH_1 < ... < gH_k, fixed by
    its least coset gH_0 and the strict chain H_0 < ... < H_k in the
    family.  So the count is the sum over H of [G : H] times the chains
    that start at H, counted per length from the members above H.
    """
    family = sorted(set(map(frozenset, family)), key=len, reverse=True)
    by_length = {}  # H -> the strict chains starting at H with 1, 2, ... members
    for h in family:  # larger members first, so each member above h is done
        above = [by_length[k] for k in family if h < k]
        longest = max(map(len, above), default=0)
        by_length[h] = [1] + [sum(c[r] for c in above if r < len(c)) for r in range(longest)]
    return sum(group.order // len(h) * sum(by_length[h][:max_vertices]) for h in family)


# -- circle-coefficient chain model ------------------------------------------


def torus_model_generators(complex_, degree):
    """The degree-k generator matrix of the circle chain model, as sparse rows.

    One row per distinct vector: a simplex U with a chosen set A of k
    gamma blocks contributes the sum of all transversals of A (the
    cellular diagonal sends the 1-cell to the sum over positions).
    Columns are indexed by k-subsets of the ground set, zero columns
    omitted.
    """
    members = functools.cache(complex_.elements_of)  # blocks recur across simplices: spell each once
    columns = {}
    vectors = set()
    for blocks in complex_.gamma.values():
        if len(blocks) < degree:
            continue
        for combo in itertools.combinations(map(members, blocks), degree):
            entries = {}
            for transversal in itertools.product(*combo):
                key = frozenset(transversal)
                if key not in columns:
                    columns[key] = len(columns)
                entries[columns[key]] = entries.get(columns[key], 0) + 1
            vectors.add(tuple(sorted(entries.items())))
    return [dict(vector) for vector in sorted(vectors)]


def torus_model_matrices(complex_):
    """Validate, then yield the generator rows of degrees 1 to the largest block count."""
    complex_.require_valid()
    max_blocks = max(map(len, complex_.gamma.values()), default=0)
    return (torus_model_generators(complex_, k) for k in range(1, max_blocks + 1))


def torus_model_betti(complex_):
    """Betti numbers of the complex product with every factor a circle.

    The ambient chain complex of the torus has one basis element per
    subset of the ground set and zero differential, so homology in degree
    k is the exact integer rank of the degree-k generator vectors.
    Nothing here assumes the splitting theorem.
    """
    return [1] + [integer_rank(rows) for rows in torus_model_matrices(complex_)]


def triplet_dump(rows):
    """Plain (row, col, value) triplet lines of sparse rows, for external checking."""
    lines = [f"{r} {c} {value}" for r, row in enumerate(rows) for c, value in sorted(row.items()) if value]
    return "\n".join(lines) + ("\n" if lines else "")

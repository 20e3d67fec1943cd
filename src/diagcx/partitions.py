"""Partial partitions of a finite ground set.

A partial partition is a set of pairwise disjoint nonempty blocks of
{0, ..., n-1}; the blocks need not cover the ground set.  Partial
partitions are ordered by *partial coarsening*: ``p <= q`` holds when
every block of p is a union of blocks of q.  Under this order the poset
has meets, computed by an equivalence closure with a sink element that
absorbs everything outside the common support.
"""

from dataclasses import dataclass


class EmptyMeet:
    """Sentinel for the empty meet (the basepoint of the pointed model)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY_MEET"


#: The unique empty-meet sentinel.
EMPTY_MEET = EmptyMeet()


PARTITION_JSON_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
}


@dataclass(frozen=True)
class PartialPartition:
    """A partial partition in canonical form.

    Blocks are stored as tuples of sorted ints, ordered by least element.
    Use :meth:`of` to build one from arbitrary iterables; the raw
    constructor insists on the canonical form.
    """

    ground_size: int
    blocks: tuple

    def __post_init__(self):
        if self.ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            if list(block) != sorted(set(block)):
                raise ValueError("blocks must be sorted tuples without repeats")
            for x in block:
                if not 0 <= x < self.ground_size:
                    raise ValueError(f"element {x} outside ground set")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by least element")

    @classmethod
    def of(cls, ground_size, blocks):
        """Build a canonical partial partition from an iterable of iterables."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1))
        return cls(ground_size, canon)

    @property
    def support(self):
        """The set of covered elements."""
        return frozenset(x for block in self.blocks for x in block)

    def block_of(self, x):
        """The block containing x, or None if x is uncovered."""
        for block in self.blocks:
            if x in block:
                return block
        return None

    def to_json(self):
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, ground_size, data):
        return cls.of(ground_size, data)

    def __str__(self):
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def is_partial_coarsening(p, q):
    """Whether ``p <= q`` in the partial-coarsening order.

    True iff every block of p is a union of blocks of q.

    >>> p = PartialPartition.of(3, [[0, 1]])
    >>> q = PartialPartition.of(3, [[0], [1], [2]])
    >>> is_partial_coarsening(p, q)
    True
    >>> is_partial_coarsening(q, p)
    False
    """
    if p.ground_size != q.ground_size:
        raise ValueError("mismatched ground sizes")
    for block in p.blocks:
        target = set(block)
        covered = set()
        for qb in q.blocks:
            if target.issuperset(qb):
                covered.update(qb)
        if covered != target:
            return False
    return True


def meet(p, q):
    """Greatest lower bound of two partial partitions, or EMPTY_MEET.

    Elements are related when they share a block of p or of q; any
    element outside the support of either argument is related to a sink.
    The classes avoiding the sink are the blocks of the meet.  When every
    class hits the sink the meet is the basepoint, returned as
    :data:`EMPTY_MEET`.

    >>> p = PartialPartition.of(2, [[0]])
    >>> q = PartialPartition.of(2, [[1]])
    >>> meet(p, q)
    EMPTY_MEET
    """
    if p.ground_size != q.ground_size:
        raise ValueError("mismatched ground sizes")
    n = p.ground_size
    common = p.support & q.support
    outside = [x for x in range(n) if x not in common]
    blocks = list(block_classes(n, p.blocks + q.blocks, outside).values())
    if not blocks:
        return EMPTY_MEET
    return PartialPartition.of(n, blocks)


def block_classes(n, blocks, outside=()):
    """Classes of {0..n-1} under "shares a block", by union-find.

    Elements of ``outside`` are joined to a sink, and classes reaching the
    sink are dropped.  Returns {representative: sorted members} for the
    remaining classes, in order of least member.
    """
    sink = n
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in outside:
        parent[x] = sink
    for block in blocks:
        for x in block[1:]:
            parent[find(x)] = find(block[0])
    classes = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    classes.pop(find(sink), None)
    return classes

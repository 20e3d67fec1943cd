"""Partial partitions of a finite ground set.

A partial partition is a set of pairwise disjoint nonempty blocks of
{0, ..., n-1}; the blocks need not cover the ground set.  Partial
partitions are ordered by *partial coarsening*: ``p <= q`` holds when
every block of p is a union of blocks of q.  Under this order the poset
has meets, computed by an equivalence closure with a sink element that
absorbs everything outside the common support; :func:`classes_inside`
does this on blocks stored as bitmasks.
"""

import collections


class EmptyMeet:
    """Sentinel for the empty meet (the basepoint of the pointed model)."""

    def __repr__(self):
        return "EMPTY_MEET"


#: The unique empty-meet sentinel.
EMPTY_MEET = EmptyMeet()


PARTITION_JSON_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
}


class PartialPartition(collections.namedtuple("PartialPartition", "ground_size blocks")):
    """A partial partition in canonical form.

    Blocks are stored as tuples of sorted ints, ordered by least element.
    Use :meth:`of` to build one from arbitrary iterables; the raw
    constructor insists on the canonical form.
    """

    __slots__ = ()

    def __new__(cls, ground_size, blocks):
        self = super().__new__(cls, ground_size, blocks)
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
        return self

    @classmethod
    def of(cls, ground_size, blocks):
        """Build a canonical partial partition from an iterable of iterables."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1))
        return cls(ground_size, canon)

    @property
    def support(self):
        """The set of covered elements."""
        return frozenset(x for block in self.blocks for x in block)

    def to_json(self):
        return [list(b) for b in self.blocks]

    def __str__(self):
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def to_mask(elements, bit):
    """The bitmask of a set of elements, bit[x] being the bit that stands for x."""
    return sum(1 << bit[x] for x in set(elements))


def bits(mask):
    """The set bits of a mask, ascending, read off one scan of its binary digits."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def spell(masks, elements):
    """Block bitmasks as tuples of the elements their bits stand for, bit i for elements[i]."""
    return tuple(tuple(elements[i] for i in bits(mask)) for mask in masks)


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
    :data:`EMPTY_MEET`.  The work is done by :func:`classes_inside`, with
    one bit per element of the two supports.

    >>> p = PartialPartition.of(2, [[0]])
    >>> q = PartialPartition.of(2, [[1]])
    >>> meet(p, q)
    EMPTY_MEET
    """
    if p.ground_size != q.ground_size:
        raise ValueError("mismatched ground sizes")
    elements = sorted(p.support | q.support)
    bit = {x: i for i, x in enumerate(elements)}
    p_masks, q_masks = (tuple(to_mask(block, bit) for block in r.blocks) for r in (p, q))
    blocks = classes_inside(p_masks, q_masks, sum(p_masks) & sum(q_masks))  # disjoint blocks: sum is union
    return PartialPartition(p.ground_size, spell(blocks, elements)) if blocks else EMPTY_MEET


def classes_inside(p, q, common):
    """The meet on block bitmasks, given ``common``, the mask of their common support.

    ``p`` and ``q`` are tuples of pairwise disjoint block masks.  Returns the
    classes of "shares a block of p or q" that lie inside ``common``, by
    least element; a class with an element outside it is joined to the sink
    and dropped, and an empty tuple is the empty meet.  A block missing
    ``common`` shares no element with a block of the other side, so it is a
    class of its own and is skipped.

    >>> classes_inside((0b011, 0b100), (0b001, 0b010), 0b011)
    (3,)
    """
    classes = [block for block in p if block & common]
    for block in q:
        if block & common:
            # classes are disjoint, so a class meets the merged block iff it meets block
            merged = block
            rest = []
            for c in classes:
                if c & block:
                    merged |= c
                else:
                    rest.append(c)
            rest.append(merged)
            classes = rest
    inside = [c for c in classes if c & common == c]
    return tuple(sorted(inside, key=lambda c: c & -c) if len(inside) > 1 else inside)


def block_classes(n, blocks):
    """Classes of {0..n-1} under "shares a block", by union-find.

    Returns {representative: sorted members}, in order of least member.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for block in blocks:
        for x in block[1:]:
            parent[find(x)] = find(block[0])
    classes = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return classes

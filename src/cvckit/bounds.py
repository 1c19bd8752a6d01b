"""Upper bounds on the maximum stable set size of induced subgraphs.

The branch-and-bound solver prunes with bounds on alpha(G[U]).  Two are
provided: a greedy clique-cover bound (a proper coloring of the complement
of G[U]; every color class is a clique of G, and a stable set can use each
clique at most once), and, for bipartite graphs, the exact value
|U| - nu(G[U]) via Koenig's theorem and a maximum matching.

The coloring bound supports reuse across shrinking candidate sets: a
coloring computed on a superset stays valid on any subset, counting only
the colors that still occur.  `CachedColoring` carries what is needed and
`color_bound_cached` applies the recomputation policy (fresh coloring once
the set has shrunk below 75% of the size it was computed at).

The greedy coloring is bit-parallel in the manner of San Segundo,
Rodriguez-Losada and Jimenez (Computers & OR 38(2), 2011): it extracts one
class at a time with mask intersections instead of testing each vertex
against every open class.  Extracting greedy maximal cliques in the scan
order gives exactly the classes of first-fit coloring in that order, so
the bound and its witness are those of plain first-fit.  The scan order
is one bitmask per degree, never cleared as vertices are placed, and a
class whose candidates narrow to one vertex takes it without a search.
The degree pass that fills those bitmasks reads the set a byte at a
time, `umask.to_bytes`, and takes the bit positions of each byte from one
256-entry table, so it pays no lowest-bit extraction per vertex.

The matching is carried down the search the same way, as a
`CachedMatching`, and repaired rather than rebuilt.  From scratch it is
one bitmask BFS for an augmenting path from each vertex still free, in
index order from the empty matching: by Berge's lemma a vertex
with no augmenting path never gains one as others augment, so one pass
gives a maximum matching.  Given a maximum matching on a superset of U,
removed vertices that are free, and matched pairs removed whole, are
dropped and the rest stays maximum.  Every other removed matched vertex x
is taken out of the current set one at a time: that frees its partner y
alone, and any augmenting path left must end at y (one between two older
free vertices would have augmented the matching before), so one search
from y makes it maximum again.  Removing them all at once and searching
only from the freed partners is not exact: an augmentation from one
partner can open a path between two older free vertices that nothing
searches for.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graph import Graph, VertexSet, bfs_forest, bits_of, mask_to_set, require

RECOMPUTE_FRACTION = 0.75


class CachedColoring(NamedTuple):
    """Immutable snapshot of a greedy coloring, reusable on subsets.

    base_mask: the vertex set the coloring was computed on.
    base_size: its size at computation time (drives the 75% rule).
    classes: one bitmask per color class.
    """

    base_mask: int
    base_size: int
    classes: tuple[int, ...]

    def bound(self, umask: int) -> int:
        """The classes that meet umask: a clique cover of it when umask is
        a subset of the base."""
        # the len of a list comprehension counts faster than a sum over a generator
        return len([1 for cm in self.classes if cm & umask])


# _BYTE_BITS[b]: the positions of the set bits of the byte value b, upward
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _greedy_classes(masks: tuple[int, ...], umask: int) -> tuple[int, ...]:
    """Greedy clique cover of the vertices in umask.

    The result is first-fit coloring of the complement in the order pi:
    increasing degree inside the set (i.e. decreasing complement-degree,
    largest-first), ties by index.  Each vertex joins the first class whose
    members are all its neighbors, and classes are listed by their first
    vertex.

    It is built one class at a time.  A vertex lands in class i exactly
    when it is in none of classes 1..i-1 and is adjacent to every member
    of class i that precedes it in pi.  So class i is the greedy maximal
    clique taken in pi order from the vertices the earlier classes left,
    and it opens at the first of them.  pi is kept as one bitmask per
    degree; the next member is the lowest bit of the first level that
    meets the candidates (unplaced common neighbors of the members).
    Placed vertices stay in the levels, as every read is masked by
    unplaced or by the candidates; a lone candidate joins with no walk.

    The levels are filled in one pass over the little-endian bytes of
    umask: a byte at offset k holds the vertices 8k + i for the positions
    i that _BYTE_BITS lists for its value, upward, and an empty byte is
    skipped whole.
    """
    size = umask.bit_count()
    buckets = [0] * size  # a degree inside umask is below its size
    base = 0
    for byte in umask.to_bytes((umask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                v = base + i
                buckets[(masks[v] & umask).bit_count()] |= 1 << v
        base += 8
    levels = [b for b in buckets if b]
    classes: list[int] = []
    unplaced = umask
    first = 0
    while unplaced:
        level = levels[first] & unplaced
        while not level:
            first += 1
            level = levels[first] & unplaced
        members = level & -level
        cand = masks[members.bit_length() - 1] & unplaced
        # cand only shrinks, so a level it misses never meets it again
        j = first
        while cand & (cand - 1):
            hit = levels[j] & cand
            while not hit:
                j += 1
                hit = levels[j] & cand
            low = hit & -hit
            members |= low
            cand &= masks[low.bit_length() - 1]
        members |= cand  # none left, or the one that joins last
        unplaced ^= members
        classes.append(members)
    assert sum(map(int.bit_count, classes)) == size
    return tuple(classes)


def color_bound_cached(
    masks: tuple[int, ...], umask: int, cache: Optional[CachedColoring]
) -> tuple[int, CachedColoring]:
    """Clique-cover bound for umask, reusing `cache` when still fresh.

    Returns (bound, cache'), where cache' is either the cache passed in or
    a newly computed one.  The caller must only pass a cache whose base is
    a superset of umask; the solver guarantees that by construction.
    """
    if cache is not None:
        assert umask & ~cache.base_mask == 0, "cache used outside its base set"
        if umask.bit_count() >= RECOMPUTE_FRACTION * cache.base_size:
            return cache.bound(umask), cache
    classes = _greedy_classes(masks, umask)
    cache = CachedColoring(umask, umask.bit_count(), classes)
    return len(classes), cache


def is_bipartite(g: Graph) -> Optional[tuple[VertexSet, VertexSet]]:
    """Two-color g by the parity of its breadth-first depths; returns
    (side0, side1), or None when an edge joins two vertices of one side
    (an odd cycle).

    Deterministic: in every component the lowest-index vertex lands on
    side 0.  Isolated vertices land on side 0.
    """
    require(g, "is_bipartite", min_n=0)
    parent, _ = bfs_forest(g.masks, g.full_mask())
    side1 = 0
    for v, u in parent.items():  # parents come first
        if not side1 >> u & 1:
            side1 |= 1 << v
    side0 = g.full_mask() & ~side1
    if any(g.masks[v] & (side1 if side1 >> v & 1 else side0) for v in range(g.n)):
        return None
    return mask_to_set(side0), mask_to_set(side1)


class CachedMatching(NamedTuple):
    """Immutable snapshot of a maximum matching, carried to subsets.

    base_mask: the vertex set the matching is maximum on.
    mate: mate[v] is v's partner; meaningful only for v in `matched`.
    matched: the mask of matched vertices.
    size: the number of matched pairs.
    """

    base_mask: int
    mate: tuple[int, ...]
    matched: int
    size: int

    def bound(self, umask: int) -> int:
        """|U| minus the pairs inside umask: those pairs are a matching of
        G[U], so this caps alpha(G[U]) for any umask, a subset of the base
        or not."""
        mate = self.mate
        inside = self.matched & umask
        pairs = sum(1 for v in bits_of(inside) if inside >> mate[v] & 1) // 2
        return umask.bit_count() - pairs


def _augment(masks: tuple[int, ...], live: int, mate: list[int], matched: int, root: int) -> int:
    """One BFS for an augmenting path from the free vertex root inside live.

    The search is exact only on a bipartite live subgraph: there every
    vertex it enqueues lies on root's side and every neighbor it scans on
    the other, so no blossom can occur.  On success the path is flipped
    into mate and its far end is returned; otherwise -1.
    """
    parent = {}
    seen = 0  # far-side vertices reached
    queue = [root]
    for x in queue:
        nbrs = masks[x] & live & ~seen
        if not nbrs:
            continue
        free = nbrs & ~matched
        if free:
            y = end = (free & -free).bit_length() - 1
            while x != root:
                nxt = mate[x]
                mate[x], mate[y] = y, x
                y, x = nxt, parent[nxt]
            mate[root], mate[y] = y, root
            return end
        seen |= nbrs
        while nbrs:
            low = nbrs & -nbrs
            y = low.bit_length() - 1
            parent[y] = x
            queue.append(mate[y])
            nbrs ^= low
    return -1


def bipartite_alpha(
    masks: tuple[int, ...], umask: int, cache: Optional[CachedMatching]
) -> tuple[int, CachedMatching]:
    """Exact alpha of the bipartite induced subgraph on umask: |U| minus a
    maximum matching (Koenig).

    Returns (alpha, cache'), where cache' is the cache passed in when
    umask lost no matched vertex, or else a repaired one; either way its
    matching lies inside umask and is maximum there.  A cache passed in
    must have a base containing umask.
    """
    if cache is None:
        mate = [0] * len(masks)
        matched = 0
        # Berge: a vertex with no augmenting path never gains one later
        for r in bits_of(umask):
            if not matched >> r & 1:  # not the far end of an earlier path
                end = _augment(masks, umask, mate, matched, r)
                if end >= 0:
                    matched |= 1 << r | 1 << end
    else:
        assert umask & ~cache.base_mask == 0, "cache used outside its base set"
        gone = cache.base_mask & ~umask & cache.matched
        if not gone:  # only free vertices left: the matching stays maximum
            return umask.bit_count() - cache.size, cache
        mate = list(cache.mate)
        matched = cache.matched
        live = umask | gone  # unmatched removed vertices leave at no cost
        for x in bits_of(gone):
            if not live >> x & 1:
                continue  # left with its partner
            y = mate[x]
            live ^= 1 << x
            matched ^= 1 << x | 1 << y
            if gone >> y & 1:
                live ^= 1 << y  # a whole pair leaves: the rest stays maximum
                continue
            # any augmenting path left must end at y, the one new free vertex
            end = _augment(masks, live, mate, matched, y)
            if end >= 0:
                matched |= 1 << y | 1 << end
    size = matched.bit_count() // 2
    return umask.bit_count() - size, CachedMatching(umask, tuple(mate), matched, size)

"""Upper bounds on the maximum stable set size of induced subgraphs.

The branch-and-bound solver prunes with bounds on alpha(G[U]).  Two are
provided: a greedy clique-cover bound (a proper coloring of the complement
of G[U]; every color class is a clique of G, and a stable set can use each
clique at most once), and, for bipartite graphs, the exact value via
Koenig's theorem and a maximum matching.

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
the bound and its witness are those of plain first-fit.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional

from .errors import ContractError, InputError
from .graph import Graph, VertexSet, bits_of, set_to_mask

RECOMPUTE_FRACTION = 0.75


class ColoringBound(NamedTuple):
    """A clique-cover bound: the count and the witness coloring.

    coloring maps each vertex of the queried set to a color index; any two
    vertices sharing a color are adjacent in the graph.
    """

    color_count: int
    coloring: dict


class CachedColoring(NamedTuple):
    """Immutable snapshot of a greedy coloring, reusable on subsets.

    base_mask: the vertex set the coloring was computed on.
    base_size: its size at computation time (drives the 75% rule).
    classes: one bitmask per color class.
    """

    base_mask: int
    base_size: int
    classes: tuple[int, ...]


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
    """
    size = umask.bit_count()
    buckets = [0] * size  # a degree inside umask is below its size
    rest = umask
    while rest:
        low = rest & -rest
        buckets[(masks[low.bit_length() - 1] & umask).bit_count()] |= low
        rest ^= low
    levels = [b for b in buckets if b]
    classes: list[int] = []
    unplaced = umask
    first = 0
    while unplaced:
        while not levels[first]:
            first += 1
        level = levels[first]
        low = level & -level
        levels[first] = level ^ low
        members = low
        cand = masks[low.bit_length() - 1] & unplaced
        # cand only shrinks, so a level it misses never meets it again
        j = first
        while cand:
            hit = levels[j] & cand
            if hit:
                low = hit & -hit
                levels[j] ^= low
                members |= low
                cand &= masks[low.bit_length() - 1]
            else:
                j += 1
        unplaced ^= members
        classes.append(members)
    assert sum(cm.bit_count() for cm in classes) == size
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
            return sum(1 for cm in cache.classes if cm & umask), cache
    classes = _greedy_classes(masks, umask)
    cache = CachedColoring(umask, umask.bit_count(), classes)
    return len(classes), cache


def greedy_color_bound(g: Graph, u: Iterable[int]) -> ColoringBound:
    """Upper bound on alpha(G[u]) by greedy clique cover.

    The empty set gets 0 colors.  Deterministic: scan order is decreasing
    complement-degree within u, ties broken by vertex index.
    """
    u = frozenset(u)
    for v in u:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    classes = _greedy_classes(g.masks, set_to_mask(u))
    coloring = {v: i for i, cm in enumerate(classes) for v in bits_of(cm)}
    return ColoringBound(len(classes), coloring)


def is_bipartite(g: Graph) -> Optional[tuple[VertexSet, VertexSet]]:
    """Two-color g by BFS; returns (side0, side1) or None on an odd cycle.

    Deterministic: in every component the lowest-index vertex lands on
    side 0.  Isolated vertices land on side 0.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = frozenset(v for v in range(g.n) if color[v] == 0)
    side1 = frozenset(v for v in range(g.n) if color[v] == 1)
    return side0, side1


def _matching_size(masks: tuple[int, ...], left: list[int], right_mask: int) -> int:
    """Maximum bipartite matching (Hopcroft-Karp: layered BFS phases, each
    followed by depth-first augmentation along the layers)."""
    inf = float("inf")
    match_l: dict[int, Optional[int]] = {v: None for v in left}
    match_r: dict[int, int] = {}
    dist: dict[int, float] = {}
    result = 0

    def bfs() -> bool:
        queue = deque()
        for v in left:
            if match_l[v] is None:
                dist[v] = 0
                queue.append(v)
            else:
                dist[v] = inf
        reached_free = False
        while queue:
            v = queue.popleft()
            for w in bits_of(masks[v] & right_mask):
                partner = match_r.get(w)
                if partner is None:
                    reached_free = True
                elif dist[partner] == inf:
                    dist[partner] = dist[v] + 1
                    queue.append(partner)
        return reached_free

    def dfs(v: int) -> bool:
        for w in bits_of(masks[v] & right_mask):
            partner = match_r.get(w)
            if partner is None or (dist[partner] == dist[v] + 1 and dfs(partner)):
                match_l[v] = w
                match_r[w] = v
                return True
        dist[v] = inf
        return False

    while bfs():
        for v in left:
            if match_l[v] is None and dfs(v):
                result += 1
    return result


def bipartite_alpha(masks: tuple[int, ...], umask: int, side0_mask: int) -> int:
    """Exact alpha of the induced subgraph on umask, given a bipartition
    mask valid for it: |U| minus the maximum matching (Koenig)."""
    left = list(bits_of(umask & side0_mask))
    right_mask = umask & ~side0_mask
    return umask.bit_count() - _matching_size(masks, left, right_mask)


def bipartite_stable_bound(g: Graph, u: Iterable[int]) -> int:
    """Exact maximum stable set size of G[u] for bipartite G[u].

    Raises ContractError when G[u] is not bipartite.
    """
    u = frozenset(u)
    for v in u:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    umask = set_to_mask(u)
    # two-color the induced subgraph itself; the global graph may be anything
    color: dict[int, int] = {}
    for start in sorted(u):
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in bits_of(g.masks[v] & umask):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    raise ContractError(
                        "bipartite_stable_bound called on a non-bipartite induced subgraph"
                    )
    side0 = set_to_mask(v for v in u if color[v] == 0)
    return bipartite_alpha(g.masks, umask, side0)

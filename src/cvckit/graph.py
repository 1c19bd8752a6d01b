"""Undirected graph type, DIMACS I/O, connectivity primitives, generators.

Vertices are always 0..n-1.  A graph keeps one adjacency view: a
neighbor bitmask per vertex (`Graph.masks`), which the solvers, the
models and the helpers below all read.  The `*_mask` functions and
`bfs_forest` operate on a "live" bitmask selecting an induced subgraph,
so subgraphs never have to be materialised in hot loops.

The library checks its arguments here: `vertex_index` each vertex or root
and `vertex_mask` each vertex set (a non-int or a value outside range(n)
is an InputError naming it; the checked int is what the callers use), and
`require` the graph (SizeCapError above a cap, InputError below a minimum
n or when disconnected).
"""

from __future__ import annotations

import operator
import warnings
from typing import Callable, Iterable, Optional

from .errors import DimacsError, InputError, SizeCapError
from .rng import Xoshiro256, _is_count

# Vertex sets are plain frozensets of ints with incidence semantics.
VertexSet = frozenset


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable once built.

    Data members:
        n: vertex count.
        m: edge count.
        masks: tuple of neighbor bitmasks, one per vertex (bit v of
            masks[u] is set iff u and v are adjacent); the neighbors of
            v in increasing order are bits_of(masks[v]).

    The constructor's `edges` must be an iterable of pairs of distinct
    ints in range(n); anything else raises InputError naming it.  An
    endpoint given as a bool or another `__index__` type is stored as the
    int it stands for.  Repeated pairs, in either orientation, collapse.

    The `edges` property is derived from the masks on each access, in
    O(n + m) big-int operations, so a loop should bind it once.
    """

    __slots__ = ("n", "m", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not _is_count(n):
            raise InputError(f"vertex count must be a non-negative int, got {n!r}")
        try:
            edges = iter(edges)
            masks = [0] * n
        except TypeError:
            raise InputError(f"edges must be an iterable of pairs, got {edges!r}") from None
        except (MemoryError, OverflowError):  # more masks than one list can hold
            raise InputError(f"vertex count {n} is too large") from None
        index = operator.index
        for edge in edges:
            try:
                u, v = edge
                u, v = index(u), index(v)
                if 0 <= u < n and 0 <= v < n and u != v:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                    continue
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair of ints") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            raise InputError(f"self-loop at vertex {u} is not allowed")
        self.n = n
        self.m = sum(mask.bit_count() for mask in masks) >> 1
        self.masks = tuple(masks)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) pairs with u < v, in increasing order."""
        pairs = []
        append = pairs.append
        for u, mask in enumerate(self.masks):
            # bit i of the shifted mask stands for the neighbour u + 1 + i
            mask >>= u + 1
            while mask:
                low = mask & -mask
                append((u, u + low.bit_length()))
                mask ^= low
        return tuple(pairs)

    def degree(self, v: int) -> int:
        return self.masks[vertex_index(self.n, v)].bit_count()

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# bitmask helpers


def bits_of(mask: int):
    """Yield the set bit indices of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def grow_piece(
    masks: tuple[int, ...], seed: int, live: int, target: int = -1
) -> tuple[int, int]:
    """Grow the piece of the `live` induced subgraph that holds `seed`.

    A level-by-level bitmask BFS from the vertices of `seed` (a subset of
    live).  Returns (piece, reach): the vertices reached, and the OR of
    the neighbour masks of the vertices it expanded.  The BFS stops as
    soon as piece covers `target`; with the default target (every vertex)
    or a target it cannot cover, it runs until the frontier is empty, and
    then piece is the union of the components of its seed vertices and
    reach is the neighbour union of the whole piece.
    """
    piece = frontier = seed
    reach = 0
    while frontier and target & ~piece:
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & live & ~piece
        piece |= frontier
    return piece, reach


def is_connected_mask(masks: tuple[int, ...], live: int) -> bool:
    """Connectivity of the induced subgraph selected by `live`.

    Empty and single-vertex subgraphs count as connected.
    """
    return grow_piece(masks, live & -live, live, live)[0] == live


def bfs_forest(
    masks: tuple[int, ...], live: int, seeds: Iterable[int] = ()
) -> tuple[dict[int, int], list[int]]:
    """Breadth-first spanning forest of the `live` induced subgraph.

    One FIFO search runs from all of `seeds` (vertices of live) at once;
    then, while a vertex of live is unreached, one more tree grows from
    the lowest such vertex.  Neighbours are taken in increasing order.
    Returns (parent, roots): parent maps each non-root vertex to its tree
    parent and lists each parent before its children; roots holds the
    seeds, then each further tree's root, in the order they were taken.
    """
    parent: dict[int, int] = {}
    roots = list(seeds)
    queue = list(roots)
    rest = live & ~set_to_mask(roots)
    head = 0
    while rest:
        if head == len(queue):
            low = rest & -rest
            rest ^= low
            roots.append(low.bit_length() - 1)
            queue.append(roots[-1])
        u = queue[head]
        head += 1
        new = masks[u] & rest
        rest ^= new
        for w in bits_of(new):
            parent[w] = u
            queue.append(w)
    return parent, roots


def splitters(masks: tuple[int, ...], live: int, group: int, target: int) -> int:
    """The vertices of `group` whose deletion from the `live` induced
    subgraph splits `target` into more than one piece, as a mask.

    target (non-empty) and group are disjoint subsets of live.  Adaptive
    group testing on the join test "is target joined in live - X?", a BFS
    from the lowest target vertex that stops once it covers target.  A
    passed test clears every u in X, since live - u holds live - X; a
    failed one halves X at its middle bit position, and a single vertex
    whose test fails is a splitter.  The first test is of X = group, and a
    half's BFS goes on from the piece its parent grew, which stays
    connected when fewer vertices are deleted.
    """
    cut = 0
    seed = target & -target
    # each entry: (part X, the vertices of live - X the BFS has not
    # reached, the neighbour union of the piece it has)
    stack = [(group, live & ~(group | seed), masks[seed.bit_length() - 1])]
    while stack:
        part, rest, reach = stack.pop()
        frontier = reach & rest
        while frontier:
            rest ^= frontier
            if not target & rest:
                break
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest
        else:
            # the BFS ran out: every vertex of the piece is expanded
            if target & rest:
                if part & (part - 1):
                    # part's lowest and highest bits fall on either side
                    mid = ((part & -part).bit_length() + part.bit_length()) >> 1
                    low_half = part & ((1 << mid) - 1)
                    high_half = part ^ low_half
                    stack.append((high_half, rest | low_half, reach))
                    stack.append((low_half, rest | high_half, reach))
                else:
                    cut |= part
    return cut


def articulation_points_mask(masks: tuple[int, ...], live: int) -> int:
    """Cut vertices of the induced subgraph selected by `live`, as a mask.

    One DFS per connected component, so the result is meaningful for
    disconnected subgraphs too.  Every non-tree edge of an undirected DFS
    joins a vertex to an ancestor, so a non-root u is a cut vertex iff some
    child's subtree has a neighbour union (`reach`, the OR of its masks)
    that misses every proper ancestor of u; the root is one iff it has two
    or more children.  The DFS enters and leaves each vertex once, so a
    call costs O(n) big-int operations, with no per-edge step.
    """
    art = 0
    unvisited = live
    while unvisited:
        vbit = path = unvisited & -unvisited
        unvisited ^= vbit
        vmask = reach = masks[vbit.bit_length() - 1]
        # the current vertex's ancestors: (bit, mask, reach of subtree so far)
        frames = []
        while True:
            nxt = vmask & unvisited
            if nxt:
                frames.append((vbit, vmask, reach))
                vbit = nxt & -nxt
                unvisited ^= vbit
                path |= vbit
                vmask = reach = masks[vbit.bit_length() - 1]
                continue
            path ^= vbit
            if not frames:
                break
            vbit, vmask, parent_reach = frames.pop()
            # with no frames left vbit is the root, which has no proper
            # ancestor: it has a second child iff a neighbour is unvisited
            if not reach & path & ~vbit and (frames or vmask & unvisited):
                art |= vbit
            reach |= parent_reach
    return art


def vertex_index(n: int, v, what: str = "vertex") -> int:
    """The int in range(n) that v stands for (`True` stands for 1).

    Anything else raises InputError naming the value as `what`, for
    example "root 1.5 is not an int" or "root 99 out of range for n=4".
    """
    try:
        i = operator.index(v)
    except TypeError:
        raise InputError(f"{what} {v!r} is not an int") from None
    if not 0 <= i < n:
        raise InputError(f"{what} {i} out of range for n={n}")
    return i


def vertex_mask(n: int, vertices: Iterable[int]) -> int:
    """Bitmask of `vertices`, each checked by `vertex_index`; a
    non-iterable `vertices` raises InputError too."""
    try:
        vertices = iter(vertices)
    except TypeError:
        raise InputError(f"vertex set {vertices!r} is not iterable") from None
    mask = 0
    for v in vertices:
        mask |= 1 << vertex_index(n, v)
    return mask


def set_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_to_set(mask: int) -> frozenset:
    return frozenset(bits_of(mask))


# ---------------------------------------------------------------------------
# public graph operations


def require(
    g: Graph, what: str, min_n: int = 1, connected: bool = False, cap: Optional[int] = None
) -> None:
    """Refuse g in the name of the routine `what` unless min_n <= g.n,
    g.n <= cap (when a cap is given) and, if `connected`, g is connected.

    Above the cap raises SizeCapError; every other refusal, a g that is
    not a Graph included, InputError.
    """
    if not isinstance(g, Graph):
        raise InputError(f"{what} needs a Graph, got {type(g).__name__}")
    if cap is not None and g.n > cap:
        raise SizeCapError(f"{what} refuses n={g.n} above the cap of {cap}")
    if g.n < min_n:
        raise InputError(f"{what} needs n >= {min_n}, got n={g.n}")
    if connected and not is_connected_mask(g.masks, g.full_mask()):
        raise InputError(f"{what} requires a connected graph")


def max_degree_vertex(g: Graph, mask: int) -> int:
    """The vertex of `mask`, a non-empty subset of range(g.n), of highest
    degree in g, ties by lowest index."""
    require(g, "max_degree_vertex", min_n=0)
    if not (isinstance(mask, int) and 0 < mask <= g.full_mask()):
        raise InputError(f"vertex mask {mask!r} is not a non-empty subset of range({g.n})")
    # max keeps the first of equal keys, and bits_of counts upward
    return max(bits_of(mask), key=lambda v: g.masks[v].bit_count())


def is_connected(g: Graph) -> bool:
    """True iff g is connected; requires at least one vertex."""
    require(g, "is_connected", min_n=0)
    if g.n == 0:
        raise InputError("connectivity is undefined for the empty graph")
    return is_connected_mask(g.masks, g.full_mask())


def articulation_points(g: Graph) -> frozenset:
    """Cut vertices of g (per component when g happens to be disconnected)."""
    require(g, "articulation_points", min_n=0)
    return mask_to_set(articulation_points_mask(g.masks, g.full_mask()))


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, by the matrix-tree determinant.

    The determinant of the reduced Laplacian is taken exactly, in integers,
    by fraction-free (Bareiss) elimination, so the count is exact at any
    size.  A graph with a single vertex has one spanning tree; a
    disconnected graph has zero.
    """
    require(g, "spanning_tree_count")
    # the Laplacian without vertex 0's row and column
    size = g.n - 1
    a = [
        [g.degree(i) if i == j else -(g.masks[i] >> j & 1) for j in range(1, g.n)]
        for i in range(1, g.n)
    ]
    prev = 1
    for k in range(size):
        # a zero pivot zeroes its whole row of a Schur complement of the reduced
        # Laplacian (off-diagonals <= 0, row sums >= 0): the count is 0
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                # exact: Bareiss guarantees prev divides the numerator
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        # after the last step prev is the last pivot, the determinant
        prev = a[k][k]
    return prev


# ---------------------------------------------------------------------------
# DIMACS edge format


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format ('p edge n m' header, 1-based 'e u v' lines).

    Comment lines start with 'c'.  Duplicate edge lines are collapsed with
    a warning; a final edge count differing from the header's m is also
    only a warning.  Structural problems (missing or repeated header, bad
    vertex numbers, self-loops, unknown line types) raise DimacsError
    naming the line.  Text that is not a str raises InputError.
    """
    if not isinstance(text, str):
        raise InputError(f"DIMACS text must be a str, got {type(text).__name__}")
    n = m_declared = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: repeated problem line {raw!r}")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"line {lineno}: malformed problem line {raw!r}")
            try:
                n, m_declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed problem line {raw!r}")
            if n < 0 or m_declared < 0:
                raise DimacsError(f"line {lineno}: negative counts in {raw!r}")
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line {raw!r}")
            if len(fields) != 3:
                raise DimacsError(f"line {lineno}: malformed edge line {raw!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed edge line {raw!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(
                    f"line {lineno}: vertex out of range in {raw!r} (n={n})"
                )
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop in {raw!r}")
            pair = (min(u, v) - 1, max(u, v) - 1)
            if pair in edges:
                warnings.warn(
                    f"line {lineno}: duplicate edge line {raw!r} collapsed",
                    stacklevel=2,
                )
            edges.add(pair)
        else:
            raise DimacsError(f"line {lineno}: unknown line type {raw!r}")
    if n is None:
        raise DimacsError("no problem line found")
    if len(edges) != m_declared:
        warnings.warn(
            f"header declares m={m_declared} but {len(edges)} distinct edges parsed",
            stacklevel=2,
        )
    return Graph(n, edges)


def write_dimacs(g: Graph) -> str:
    """Serialize to DIMACS edge format, bit-exactly reproducible.

    Edge lines are 1-based, lexicographically sorted, LF-terminated.
    """
    require(g, "write_dimacs", min_n=0)
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# random instance generators


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from the package's own deterministic stream.

    Every unordered pair (i, j), i < j, scanned lexicographically, consumes
    exactly one float draw and becomes an edge iff draw < p.  It never
    retries for connectivity; `first_connected` does.  `Xoshiro256` refuses
    a seed that is no int and a p outside [0, 1].
    """
    if not _is_count(n):
        raise InputError(f"vertex count must be a non-negative int, got {n!r}")
    edges = []
    # row i holds the flat offsets [row_end - (n - 1 - i), row_end)
    i, row_end = 0, n - 1
    for k in Xoshiro256(seed).below(n * (n - 1) // 2, p):
        while k >= row_end:
            i += 1
            row_end += n - 1 - i
        edges.append((i, k - row_end + n))
    return Graph(n, edges)


def bipartite_random(n1: int, n2: int, p: float, seed: int) -> Graph:
    """Random bipartite graph: left side 0..n1-1, right side n1..n1+n2-1.

    Pairs (i, n1+j) are scanned with i outer and j inner, one draw each,
    edge iff draw < p.  Side membership is fixed by the construction:
    the first n1 labels are the left side.
    """
    if not (_is_count(n1) and _is_count(n2)):
        raise InputError(f"side sizes must be non-negative ints, got {n1!r}, {n2!r}")
    hits = Xoshiro256(seed).below(n1 * n2, p)
    return Graph(n1 + n2, [(k // n2, n1 + k % n2) for k in hits])


def first_connected(
    generate: Callable[..., Graph], params: tuple, seed: int, max_reseeds: int = 1000
) -> tuple[Graph, int]:
    """The first connected `generate(*params, s)` for s = seed, ..., seed +
    max_reseeds, and its s; InputError when none is or an argument is bad."""
    if not (callable(generate) and isinstance(params, tuple)):
        raise InputError(f"generate must be callable and params a tuple, got {generate!r}, {params!r}")
    if not (isinstance(seed, int) and _is_count(max_reseeds)):
        raise InputError(f"seed must be an int and max_reseeds one >= 0, got {seed!r}, {max_reseeds!r}")
    for used in range(seed, seed + max_reseeds + 1):
        g = generate(*params, used)
        if is_connected(g):
            return g, used
    raise InputError(f"no connected sample within {max_reseeds} reseeds from seed {seed}")

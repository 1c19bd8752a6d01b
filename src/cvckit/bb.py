"""Branch-and-bound solvers for minimum connected vertex cover.

The search works on the complementary problem: find a maximum stable set S
whose deletion keeps the graph connected ("feasible" stable set); the
answer is V \\ S.  A search node is a pair (S, U): S the stable set built
so far, U the candidate vertices that may still join it.  U never contains
a neighbor of S nor a cut vertex of G - S, so every node's S is feasible
by construction.

Branching on v in U splits the node into an include child
(S + v, the nonneighbors of v within U minus the new cut vertices) and an exclude
child (S, U - v).  A node is pruned when |S| plus an upper bound on
alpha(G[U]) cannot beat the incumbent.  U is kept only as a bitmask.  The
search splits V into one mask per degree, highest degree first, and
branches on the lowest bit of the first of these levels that meets U: the
candidate of highest degree, ties by lowest index.  A stack entry is
(S, |S|, U, cache, level): level is the index of the first level that
met its parent's U (0 at a root).  Both children's U are subsets of the
parent's, so no level before it meets them, and the scan resumes there.

The include child's candidates need no cut-vertex pass.  Let
W = U - v - N(v) and N = N(v), all in H = G - S - v as S is stable.  A u
in W is not a cut vertex of G - S (the node invariant) and is not
adjacent to v, so G - S - u is connected and each component of H - u
holds a vertex of N: u is a cut vertex of H exactly when deleting u
splits N.  include_candidates drops those u by group testing this join
(graph.splitters).  If N is joined in H - X, no vertex of X is cut; a
single vertex whose test fails is.  The first test is of X = W, so a
child whose W holds no cut vertex costs one BFS, and a failed part is
halved, each half continuing the BFS its parent grew.

The whole search is one function, solve(g, algorithm, ...).  It picks
the bound once from the input, builds the roots of one of three
algorithms as plain stack entries, and drains them from one stack, one
node per pop; a split pushes its include child last, so the search dives
depth first.  Under a time limit the clock is read once per popped
entry; past the limit, each entry left is popped, offered as the
incumbent and bounded, never searched.  The algorithms are "bb" (a
single root), "rds" (russian doll search: one restricted root per
vertex, smallest subproblem first, the incumbent carried across), and
"vc-bb" (no connectivity pruning: a maximum stable set, plain cover).

The bound cache (a coloring, or a maximum matching on bipartite inputs) is
threaded through the search per node: children inherit the parent's cache
snapshot, so the bound computed at a node never depends on which other
branches were explored.  A consequence worth having is that a run that
starts with a better incumbent (warm start) visits a subset of the nodes
the cold run visits, so node counts are monotone.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Optional

from .bounds import bipartite_alpha, color_bound_cached, is_bipartite
from .errors import ContractError, InputError, shown
from .graph import (
    Graph,
    VertexSet,
    articulation_points_mask,
    bits_of,
    mask_to_set,
    max_degree_vertex,
    require,
    splitters,
)
from .oracle import check_cvc


@dataclass
class SolveReport:
    """Result of a solver run.

    best_bound is on the stable-set side: the proven optimum when status
    is "optimal", otherwise the best upper bound still open at timeout.
    node_count counts every (S, U) pair the search visits, one per stack
    pop before the time limit.
    """

    cover: VertexSet
    cover_size: int
    node_count: int
    wall_time: float
    status: str  # "optimal" | "time_limit"
    best_bound: int
    algorithm: str = "bb"
    branch_rule: str = "max-degree-first"


ALGORITHMS = ("bb", "rds", "vc-bb")


def _validate(g: Graph, algorithm: str, time_limit, warm_start, prune_log) -> None:
    if algorithm not in ALGORITHMS:
        raise InputError(f"algorithm must be one of {', '.join(ALGORITHMS)}, got {shown(algorithm)}")
    if time_limit is not None:
        # bool is an int subclass, but True is no number of seconds
        if isinstance(time_limit, bool) or not isinstance(time_limit, numbers.Real):
            raise InputError(f"time limit must be a number of seconds, got {shown(time_limit)}")
        # written so that NaN, which fails every comparison, is rejected too
        if not time_limit > 0:
            raise InputError(f"time limit must be positive, got {shown(time_limit)}")
    if not isinstance(warm_start, bool):
        raise InputError(f"warm_start must be True or False, got {shown(warm_start)}")
    if prune_log is not None and not isinstance(prune_log, list):
        raise InputError(f"prune_log must be None or a list, got {shown(prune_log)}")
    require(g, "solver", connected=True)


def include_candidates(masks: tuple[int, ...], live: int, rmask: int, v: int) -> int:
    """Candidates of the include child when a node branches on v.

    live is G - S - v, the child's remaining graph; rmask is the node's
    candidates without v, and must hold no cut vertex of G - S.  The
    child keeps the non-neighbours W of v in rmask that are not cut
    vertices of G - S - v.  Under that invariant a u in W is one exactly
    when deleting it splits v's neighbours in G - S - v, so the cut
    vertices of W are its splitters of masks[v] (see the module
    docstring).
    """
    w = rmask & ~masks[v]
    if w:
        w &= ~splitters(masks, live, w, masks[v])
    return w


def _feasible(g: Graph, smask: int, connected: bool) -> bool:
    """Whether V - smask is a vertex cover of g, and connected if
    `connected`: the debug check of each incumbent and the final
    certificate."""
    cert = check_cvc(g, mask_to_set(g.full_mask() & ~smask))
    return cert.valid if connected else cert.is_cover


def greedy_cvc_2approx(g: Graph) -> VertexSet:
    """Connected vertex cover at most twice the optimum, in linear time.

    Returns the internal (non-leaf) vertices of a depth-first spanning tree
    rooted at a maximum-degree vertex (ties by lowest index).  Every edge
    touches an internal vertex, and the internal vertices form a subtree,
    hence a connected cover.  Accepts n >= 1: the one-vertex tree has no
    internal vertex, and the empty cover is the optimum of K1.
    """
    require(g, "greedy_cvc_2approx", connected=True)
    full = g.full_mask()
    return mask_to_set(_dfs_inner(g.masks, max_degree_vertex(g, full), full))


def _dfs_inner(masks: tuple[int, ...], root: int, live: int) -> int:
    """Inner vertices of a depth-first spanning tree of the connected
    `live` induced subgraph, rooted at `root` (a vertex of live), as a
    mask.  Each step enters the lowest unvisited neighbour of the deepest
    vertex that has one, so the tree is deterministic."""
    unvisited = live ^ 1 << root
    stack = [root]
    inner = 0
    while stack:
        v = stack[-1]
        nxt = masks[v] & unvisited
        if nxt:
            low = nxt & -nxt
            unvisited ^= low
            inner |= 1 << v
            stack.append(low.bit_length() - 1)
        else:
            stack.pop()
    return inner


def _roots(g: Graph, algorithm: str, levels: list[int]) -> list:
    """The (S, |S|, U, None, 0) stack entries one algorithm starts from,
    in stack order, so the last is popped first; see solve.  levels is
    solve's branch order, one vertex mask per degree, highest first, and
    each root's scan of it starts at level 0."""
    full = g.full_mask()
    # no feasible stable set contains a cut vertex of G; vc-bb drops none
    cut = 0 if algorithm == "vc-bb" else articulation_points_mask(g.masks, full)
    if algorithm != "rds":
        return [(0, 0, full & ~cut, None, 0)]
    roots = []
    later = full & ~cut  # the non-cut vertices not yet rooted
    for v in (v for level in levels for v in bits_of(level & ~cut)):
        later ^= 1 << v  # now the non-cut vertices after v
        # a cut vertex of G not adjacent to v stays one in G - v, so
        # removing G's cut vertices first leaves the same root candidates
        umask = include_candidates(g.masks, full & ~(1 << v), later, v)
        roots.append((1 << v, 1, umask, None, 0))
    return roots


def solve(
    g: Graph,
    algorithm: str = "bb",
    *,
    time_limit: Optional[float] = None,
    warm_start: bool = True,
    prune_log: Optional[list] = None,
) -> SolveReport:
    """Exact minimum (connected) vertex cover of a connected graph.

    algorithm is one of ALGORITHMS, the name the report carries:
    - "bb": branch and bound from a single root, S empty.
    - "rds": russian doll search.  Vertices are ordered by decreasing
      degree (ties by index) as v_1..v_n.  Step i fixes S = {v_i} and
      restricts candidates to later non-neighbors v_j (j > i) that are
      not cut vertices of G - v_i; steps run from the smallest suffix
      upward so each incumbent prunes the larger steps.  Steps whose v_i
      is a cut vertex of G are skipped.
    - "vc-bb": minimum plain vertex cover; the same search with no
      cut-vertex filtering, so covers may induce anything.

    time_limit is in wall-clock seconds from the call, set-up included
    (the warm start, the root cut-vertex pass and the rds roots), and the
    clock is read once per popped entry; None or inf means no limit.
    Past the limit, each entry left is popped, offered as the incumbent
    and bounded, never searched.
    warm_start, a bool, seeds the incumbent with the complement of
    greedy_cvc_2approx.  prune_log, a list, gets a (stable_mask,
    candidate_mask, incumbent_size) triple for each bound-test prune.

    The bound follows the input: on bipartite graphs the exact stable-set
    bound |U| - nu(G[U]) (Koenig), from a maximum matching each node
    repairs from its parent's; otherwise the greedy clique-cover bound,
    reusing a node's inherited coloring while its candidate set is still
    at least 75% of the size the coloring was computed at.
    """
    _validate(g, algorithm, time_limit, warm_start, prune_log)
    t0 = time.perf_counter()
    connected = algorithm != "vc-bb"
    masks, full = g.masks, g.full_mask()
    # read per solve, not at import: bench/tracing.py and the tests patch
    # the module attribute
    bound_of = bipartite_alpha if is_bipartite(g) is not None else color_bound_cached
    # branch order: one vertex mask per degree, highest degree first;
    # the lowest bit of the first level that meets U is the branch vertex
    by_degree = [0] * g.n
    for v in range(g.n):
        by_degree[masks[v].bit_count()] |= 1 << v
    levels = [level for level in reversed(by_degree) if level]
    # greedy_cvc_2approx's cover: its root is levels[0]'s lowest vertex
    root = (levels[0] & -levels[0]).bit_length() - 1
    best_mask = full & ~_dfs_inner(masks, root, full) if warm_start else 0
    best_size = best_mask.bit_count()
    stack = _roots(g, algorithm, levels)
    visits = 0
    status, best_bound = "optimal", 0
    while stack:
        smask, ssize, umask, cache, first = stack.pop()
        if ssize > best_size:
            assert _feasible(g, smask, connected), "incumbent is no feasible stable set"
            best_mask, best_size = smask, ssize
        # compared exactly, so a limit too large for a float cannot overflow
        if time_limit is not None and (status != "optimal" or time.perf_counter() - t0 > time_limit):
            # past the limit an entry is closed unsearched: its inherited
            # coloring or matching bounds its U (an unstarted rds root gets
            # a fresh call), and no clock is read again.  Every bound is at
            # most |U|, so an entry whose |S| + |U| cannot raise the
            # reported max(best_bound, best_size) needs no bound
            status = "time_limit"
            if ssize + umask.bit_count() > max(best_bound, best_size):
                bound = bound_of(masks, umask, None)[0] if cache is None else cache.bound(umask)
                best_bound = max(best_bound, ssize + bound)
            continue
        visits += 1
        if not umask:
            continue
        bound, cache = bound_of(masks, umask, cache)
        if best_size >= ssize + bound:
            if prune_log is not None:
                prune_log.append((smask, umask, best_size))
            continue
        # umask lies inside its parent's, which no level before first met
        low = levels[first] & umask
        while not low:
            first += 1
            low = levels[first] & umask
        low &= -low
        v = low.bit_length() - 1
        rmask = umask ^ low
        stack.append((smask, ssize, rmask, cache, first))
        smask |= low
        wmask = include_candidates(masks, full & ~smask, rmask, v) if connected else rmask & ~masks[v]
        stack.append((smask, ssize + 1, wmask, cache, first))
    if not _feasible(g, best_mask, connected):
        raise ContractError("solver produced an invalid cover; internal bug")
    return SolveReport(
        cover=mask_to_set(full & ~best_mask),
        cover_size=g.n - best_size,
        node_count=visits,
        wall_time=time.perf_counter() - t0,
        status=status,
        best_bound=max(best_bound, best_size),
        algorithm=algorithm,
    )


# bench/corpus.py calls the solvers by these names; they go once it calls
# solve with an algorithm name
def solve_cvc_bb(g: Graph) -> SolveReport:
    return solve(g, "bb")


def russian_doll_solve(g: Graph) -> SolveReport:
    return solve(g, "rds")


def solve_vc_bb(g: Graph) -> SolveReport:
    return solve(g, "vc-bb")

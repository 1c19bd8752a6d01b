"""Brute-force reference implementations for connected vertex cover.

Everything here trades speed for transparency: these routines exist so the
branch-and-bound solver and the integer formulations have an independent
ground truth to be checked against.  The enumerations refuse n above
DEFAULT_CAP = 20 (SizeCapError) instead of silently taking forever, and a
vertex that is no int in range(n) is an InputError.

A vertex set C is a connected vertex cover (CVC) when every edge has an
endpoint in C and the subgraph induced by C is connected.  Equivalently,
S = V \\ C is a stable set whose deletion leaves the graph connected; the
enumerations below work on that stable-set side.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .graph import (
    Graph,
    VertexSet,
    bits_of,
    is_connected_mask,
    mask_to_set,
    require,
    vertex_mask,
)

DEFAULT_CAP = 20


class CvcCertificate(NamedTuple):
    """Outcome of checking a candidate cover, one flag per requirement.

    is_connected_induced follows these conventions: a single vertex counts
    as connected, and the empty set counts as connected only when the graph
    has no edges (so `valid` is exact for the empty cover too).
    """

    is_cover: bool
    is_connected_induced: bool

    @property
    def valid(self) -> bool:
        return self.is_cover and self.is_connected_induced


def check_cvc(g: Graph, cover: Iterable[int]) -> CvcCertificate:
    """Check the two defining properties of a connected vertex cover."""
    require(g, "check_cvc", min_n=0)
    cmask = vertex_mask(g.n, cover)
    masks = g.masks
    # an edge is uncovered iff it joins two vertices outside the cover
    is_cover = not any(masks[v] & ~cmask for v in bits_of(g.full_mask() & ~cmask))
    if cmask == 0:
        connected = g.m == 0
    else:
        connected = is_connected_mask(g.masks, cmask)
    return CvcCertificate(is_cover, connected)


def brute_force_cvc(g: Graph) -> tuple[VertexSet, int]:
    """Exact minimum connected vertex cover by stable-set enumeration.

    Branches on the lowest-index undecided vertex.  A vertex is only added
    to the stable set when it is non-adjacent to the current set and its
    removal keeps the remaining graph connected (an articulation point can
    never be in a feasible stable set); connectivity of the remainder is
    re-checked at every leaf anyway.  The first maximum found is kept, so
    the result is deterministic.

    Returns (cover, size).  Requires g connected and n <= DEFAULT_CAP.
    """
    require(g, "brute_force_cvc", connected=True, cap=DEFAULT_CAP)
    n, masks = g.n, g.masks
    full = g.full_mask()
    best_mask = 0  # the empty stable set is always feasible for connected g
    best_size = 0

    def rec(v: int, smask: int, ssize: int) -> None:
        nonlocal best_mask, best_size
        if ssize + (n - v) <= best_size:
            return
        if v == n:
            if is_connected_mask(masks, full & ~smask) and ssize > best_size:
                best_mask, best_size = smask, ssize
            return
        if masks[v] & smask == 0 and is_connected_mask(masks, full & ~smask & ~(1 << v)):
            rec(v + 1, smask | (1 << v), ssize + 1)
        rec(v + 1, smask, ssize)

    rec(0, 0, 0)
    cover = mask_to_set(full & ~best_mask)
    return cover, n - best_size


def brute_force_vc(g: Graph) -> int:
    """Minimum vertex cover size, ignoring connectivity of the cover.

    Computed as n minus the maximum stable set size.  n <= DEFAULT_CAP required.
    """
    require(g, "brute_force_vc", cap=DEFAULT_CAP)
    return g.n - max_stable_set_size(g)


def max_stable_set_size(g: Graph) -> int:
    """Maximum stable set size by include/exclude recursion with a
    cardinality prune."""
    require(g, "max_stable_set_size", cap=DEFAULT_CAP)
    masks = g.masks
    best = 0

    def rec(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if candidates == 0 or size + candidates.bit_count() <= best:
            return
        vbit = candidates & -candidates
        v = vbit.bit_length() - 1
        rec(candidates & ~(vbit | masks[v]), size + 1)
        rec(candidates ^ vbit, size)

    rec(g.full_mask(), 0)
    return best


def is_interesting(g: Graph) -> bool:
    """True when the connectivity requirement actually costs something,
    i.e. minimum CVC is strictly larger than minimum VC."""
    _, cvc_size = brute_force_cvc(g)
    return cvc_size > brute_force_vc(g)


def feasible_stable_sets(
    g: Graph,
    base: Iterable[int] = (),
    candidates: Optional[Iterable[int]] = None,
) -> Iterator[VertexSet]:
    """Yield every feasible stable set S with base <= S <= base+candidates.

    Feasible means: S is stable and deleting it leaves the graph connected.
    This enumeration is deliberately naive (stability filter plus a
    connectivity test at each leaf, nothing else) so it can serve as an
    independent check of cleverer pruning logic.
    """
    require(g, "feasible_stable_sets", cap=DEFAULT_CAP)
    masks = g.masks
    full = g.full_mask()
    base_mask = vertex_mask(g.n, base)
    pool = full if candidates is None else vertex_mask(g.n, candidates)
    for v in bits_of(base_mask):
        if masks[v] & base_mask:
            return  # base is not stable: no S containing it can be
    cand = list(bits_of(pool & ~base_mask))

    def rec(idx: int, smask: int) -> Iterator[int]:
        if idx == len(cand):
            if is_connected_mask(masks, full & ~smask):
                yield smask
            return
        v = cand[idx]
        if masks[v] & smask == 0:
            yield from rec(idx + 1, smask | (1 << v))
        yield from rec(idx + 1, smask)

    for smask in rec(0, base_mask):
        yield mask_to_set(smask)


def max_feasible_stable(
    g: Graph,
    base: Iterable[int] = (),
    candidates: Optional[Iterable[int]] = None,
) -> int:
    """Size of the largest feasible stable set within base+candidates,
    by exhaustive enumeration; -1 when none exists (infeasible base)."""
    best = -1
    for s in feasible_stable_sets(g, base, candidates):
        if len(s) > best:
            best = len(s)
    return best

"""Brute-force reference implementations for connected vertex cover.

Everything here trades speed for transparency: these routines exist so the
branch-and-bound solver and the integer formulations have an independent
ground truth to be checked against.  All of them refuse instances above a
hard size cap instead of silently taking forever.

A vertex set C is a connected vertex cover (CVC) when every edge has an
endpoint in C and the subgraph induced by C is connected.  Equivalently,
S = V \\ C is a stable set whose deletion leaves the graph connected; the
enumerations below work on that stable-set side.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import InputError, SizeCapError
from .graph import (
    Graph,
    VertexSet,
    is_connected,
    is_connected_mask,
    mask_to_set,
    set_to_mask,
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
    cover = frozenset(cover)
    for v in cover:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    is_cover = all(u in cover or v in cover for u, v in g.edges)
    cmask = set_to_mask(cover)
    if cmask == 0:
        connected = g.m == 0
    else:
        connected = is_connected_mask(g.masks, cmask)
    return CvcCertificate(is_cover, connected)


def _check_instance(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise SizeCapError(f"{what} refuses n={g.n} above the cap of {cap}")
    if g.n == 0:
        raise InputError(f"{what} needs at least one vertex")


def brute_force_cvc(g: Graph, cap: int = DEFAULT_CAP) -> tuple[VertexSet, int]:
    """Exact minimum connected vertex cover by stable-set enumeration.

    Branches on the lowest-index undecided vertex.  A vertex is only added
    to the stable set when it is non-adjacent to the current set and its
    removal keeps the remaining graph connected (an articulation point can
    never be in a feasible stable set); connectivity of the remainder is
    re-checked at every leaf anyway.  The first maximum found is kept, so
    the result is deterministic.

    Returns (cover, size).  Requires g connected and n <= cap.
    """
    _check_instance(g, cap, "brute_force_cvc")
    if not is_connected(g):
        raise InputError("brute_force_cvc requires a connected graph")
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


def brute_force_vc(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum vertex cover size, ignoring connectivity of the cover.

    Computed as n minus the maximum stable set size.  n <= cap required.
    """
    _check_instance(g, cap, "brute_force_vc")
    return g.n - max_stable_set_size(g, cap=cap)


def max_stable_set_size(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Maximum stable set size by include/exclude recursion with a
    cardinality prune."""
    _check_instance(g, cap, "max_stable_set_size")
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


def is_interesting(g: Graph, cap: int = DEFAULT_CAP) -> bool:
    """True when the connectivity requirement actually costs something,
    i.e. minimum CVC is strictly larger than minimum VC."""
    _, cvc_size = brute_force_cvc(g, cap=cap)
    return cvc_size > brute_force_vc(g, cap=cap)


def feasible_stable_sets(
    g: Graph,
    base: Iterable[int] = (),
    candidates: Optional[Iterable[int]] = None,
    cap: int = DEFAULT_CAP,
) -> Iterator[VertexSet]:
    """Yield every feasible stable set S with base <= S <= base+candidates.

    Feasible means: S is stable and deleting it leaves the graph connected.
    This enumeration is deliberately naive (stability filter plus a
    connectivity test at each leaf, nothing else) so it can serve as an
    independent check of cleverer pruning logic.
    """
    _check_instance(g, cap, "feasible_stable_sets")
    masks = g.masks
    full = g.full_mask()
    base = frozenset(base)
    pool = base if candidates is None else base | set(candidates)
    for v in pool:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    base_mask = set_to_mask(base)
    for v in base:
        if masks[v] & base_mask:
            return  # base is not stable: no S containing it can be
    if candidates is None:
        cand = [v for v in range(g.n) if not base_mask >> v & 1]
    else:
        cand = sorted(set(candidates) - base)

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
    cap: int = DEFAULT_CAP,
) -> int:
    """Size of the largest feasible stable set within base+candidates,
    by exhaustive enumeration; -1 when none exists (infeasible base)."""
    best = -1
    for s in feasible_stable_sets(g, base, candidates, cap=cap):
        if len(s) > best:
            best = len(s)
    return best

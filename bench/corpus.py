"""Workload definitions, input generation and the correctness gate.

Each solver workload is a fixed list of base graphs drawn with the
package's own generators (scanning instance seeds upward to the first
connected sample, as `cvckit gen --connected` does); these are the
baseline instances of ROADMAP.md.  A pass solves every base graph as
drawn, plus `copies - 1` relabelings of it made from the workload seed.
A relabeling changes the branching order, the node counts and the covers,
but not the optima, so the pinned optima are checked on every copy.  The
base graphs themselves are the same on every seed, so their node counts
can be compared with the ROADMAP table on any run, and a single
multi-second solve whose node count swings with the labeling does not
dominate a pass's time.

The models workload draws fresh G(n, p) instances from the seed, since
its cost depends on the instance size only.

The library is imported by the caller (run.py puts the checkout's `src`
first on the path); everything here looks the library functions up
through this module's globals, so the tracer can wrap them where the
benchmark calls them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from cvckit.bb import russian_doll_solve, solve_cvc_bb, solve_vc_bb
from cvckit.graph import (
    Graph,
    bipartite_random,
    gnp_random,
    is_connected,
    parse_dimacs,
    write_dimacs,
)
from cvckit.mip import build_parb, default_roots, write_lp
from cvckit.oracle import check_cvc

DEFAULT_SEED = 0
MAX_RESEEDS = 1000

SOLVERS = {"bb": solve_cvc_bb, "rds": russian_doll_solve, "vc": solve_vc_bb}


@dataclass(frozen=True)
class Base:
    """One base graph of a solver workload and what is pinned about it.

    kind "gnp" takes params (n, p); kind "bip" takes (n1, n2, p).  seed is
    where the connected scan starts.  cvc and vc are the optimum cover
    sizes; they do not depend on the labeling.  A pass solves the graph
    as drawn and `copies - 1` seeded relabelings of it.
    """

    kind: str
    params: tuple
    seed: int
    solvers: tuple[str, ...]
    cvc: int
    vc: Optional[int] = None
    copies: int = 1

    @property
    def label(self) -> str:
        shape = "+".join(str(x) for x in self.params[:-1])
        return f"{self.kind}({shape},{self.params[-1]})#{self.seed}"


@dataclass(frozen=True)
class ModelSpec:
    """One model of the models workload: G(n, p) with a seeded draw."""

    n: int
    p: float


G60 = ("gnp", (60, 0.1), 101)
G80 = ("gnp", (80, 0.1), 101)
G100 = ("gnp", (100, 0.1), 101)
G60D = ("gnp", (60, 0.3), 101)

SOLVER_WORKLOADS: dict[str, tuple[Base, ...]] = {
    "cvc-sparse": (
        Base(*G60, ("bb", "rds"), cvc=37, copies=4),
        Base(*G80, ("bb", "rds"), cvc=54, copies=2),
        Base(*G60D, ("bb", "rds"), cvc=48, copies=4),
    ),
    "vc-sparse": (
        Base(*G60, ("vc",), cvc=37, vc=37, copies=4),
        Base(*G80, ("vc",), cvc=54, vc=53, copies=12),
        Base(*G100, ("vc",), cvc=69, vc=69),
    ),
    "cvc-bipartite": (
        Base("bip", (30, 30, 0.2), 11, ("bb", "rds"), cvc=34, copies=2),
        Base("bip", (30, 30, 0.2), 22, ("bb", "rds"), cvc=35, copies=2),
    ),
}

MODEL_SPECS = (ModelSpec(200, 0.05), ModelSpec(300, 0.04), ModelSpec(400, 0.03), ModelSpec(500, 0.02))
MODEL_SEED_STRIDE = 7919

# sha256 of each LP text on the default seed, in MODEL_SPECS order
PINNED_LP_SHA256 = (
    "18d95b983a019a0303e36e2629ab701c55a140320463fe16b48f3aae25ef8b0b",
    "e2c444f3a7ef51d950d5fc205f79b408da996ef3f91b8d3a4a157786bc57f85e",
    "233e3d60b8f22413366751bced8b94cac41a89b5464fc57dbc20175dae3c3184",
    "c90c34c6be1530f6378b621a7e7e96355f06dfd88c258023d4891a374546abbb",
)


class GateError(Exception):
    """A benchmark output failed its correctness check."""


def _draw(kind: str, params: tuple, seed: int) -> Graph:
    if kind == "gnp":
        return gnp_random(params[0], params[1], seed)
    return bipartite_random(params[0], params[1], params[2], seed)


def first_connected(kind: str, params: tuple, seed: int) -> tuple[Graph, int]:
    """Scan instance seeds upward from `seed` to the first connected draw."""
    for used in range(seed, seed + MAX_RESEEDS + 1):
        g = _draw(kind, params, used)
        if is_connected(g):
            return g, used
    raise GateError(f"no connected {kind}{params} draw within {MAX_RESEEDS} of seed {seed}")


def relabel(g: Graph, workload_seed: int, copy: int, index: int) -> Graph:
    """Copy `copy` of base graph `index` for the workload seed.

    Copy 0 is the base graph itself.  Every other copy is shuffled with a
    generator keyed on (seed, copy, index), independent of the library's
    own stream.
    """
    if copy == 0:
        return g
    perm = list(range(g.n))
    random.Random(f"cvckit-bench:{workload_seed}:{copy}:{index}").shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@dataclass(frozen=True)
class SolveItem:
    """One timed unit of a solver workload: a graph and a solver."""

    base: Base
    copy: int
    graph: Graph
    solver: str


@dataclass(frozen=True)
class ModelItem:
    """One timed unit of the models workload."""

    spec: ModelSpec
    seed: int
    pinned_sha256: str


def build_items(workload: str, seed: int) -> list:
    """The workload's items for `seed`, in the order a pass runs them."""
    if workload == "models":
        items = []
        for i, spec in enumerate(MODEL_SPECS):
            start = 101 + i + MODEL_SEED_STRIDE * seed
            _, used = first_connected("gnp", (spec.n, spec.p), start)
            pinned = PINNED_LP_SHA256[i] if seed == DEFAULT_SEED else ""
            items.append(ModelItem(spec, used, pinned))
        return items
    bases = SOLVER_WORKLOADS[workload]
    graphs = [first_connected(base.kind, base.params, base.seed)[0] for base in bases]
    items = []
    for copy in range(max(base.copies for base in bases)):
        for i, (base, g) in enumerate(zip(bases, graphs)):
            if copy < base.copies:
                h = relabel(g, seed, copy, i)
                items.extend(SolveItem(base, copy, h, solver) for solver in base.solvers)
    return items


def run_item(item):
    """The timed call: solve one graph, or build and write one model."""
    if isinstance(item, SolveItem):
        return SOLVERS[item.solver](item.graph)
    g = gnp_random(item.spec.n, item.spec.p, item.seed)
    text = write_dimacs(g)
    parsed = parse_dimacs(text)
    lp = write_lp(build_parb(parsed))
    return g, parsed, lp


def lp_rows(lp: str) -> int:
    """Rows of an LP text: the named lines of its Subject To section."""
    rows = 0
    inside = False
    for line in lp.splitlines():
        if line == "Subject To":
            inside = True
        elif not line.startswith(" "):
            inside = False
        elif inside and not line.startswith("    "):
            rows += 1
    return rows


def expected_parb_rows(g: Graph) -> int:
    """Row count of build_parb(g), from the formulation's definition:
    cover rows, indegree rows, one depth row per arc, the root and
    cardinality rows, and two linking rows per arc."""
    r, r1 = default_roots(g)
    arcs = 2 * g.m - g.degree(r) - g.degree(r1) + 1
    return g.m + (g.n - 2) + arcs + 2 + 2 * arcs


def check_solve(item: SolveItem, report) -> None:
    """Gate one solve: certified cover of the pinned optimum size."""
    base = item.base
    where = f"{base.label} {item.solver}"
    if report.status != "optimal":
        raise GateError(f"{where}: status {report.status}")
    cert = check_cvc(item.graph, report.cover)
    if item.solver == "vc":
        if not cert.is_cover:
            raise GateError(f"{where}: result is not a vertex cover")
        if report.cover_size != base.vc:
            raise GateError(f"{where}: cover {report.cover_size}, pinned {base.vc}")
        if report.cover_size > base.cvc:
            raise GateError(f"{where}: vc {report.cover_size} > cvc {base.cvc}")
    else:
        if not cert.valid:
            raise GateError(f"{where}: result is not a connected vertex cover")
        if report.cover_size != base.cvc:
            raise GateError(f"{where}: cover {report.cover_size}, pinned {base.cvc}")
    if len(report.cover) != report.cover_size:
        raise GateError(f"{where}: cover_size disagrees with the cover")


def check_model(item: ModelItem, result) -> str:
    """Gate one model; returns the LP text's sha256."""
    g, parsed, lp = result
    where = f"G({item.spec.n},{item.spec.p})#{item.seed}"
    if parsed != g:
        raise GateError(f"{where}: parse_dimacs(write_dimacs(g)) != g")
    rows = lp_rows(lp)
    if rows != expected_parb_rows(g):
        raise GateError(f"{where}: LP has {rows} rows, expected {expected_parb_rows(g)}")
    if not lp.endswith("\nEnd\n"):
        raise GateError(f"{where}: LP text is not terminated by End")
    digest = hashlib.sha256(lp.encode("ascii")).hexdigest()
    if item.pinned_sha256 and digest != item.pinned_sha256:
        raise GateError(f"{where}: LP sha256 {digest} differs from the pinned one")
    return digest

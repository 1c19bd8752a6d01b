"""Mixed-integer formulations of connected vertex cover.

Three models over a connected graph G, all minimizing the cover size:

* spanning-tree form (`build_pstp`): binary x per vertex, continuous
  y in [0,1] per edge; covering rows, forest rows y(E(U)) <= |U|-1, and a
  total row y(E) = x(V) - 1 forcing the picked edges to hold a spanning
  tree of the cover.  Exponentially many rows, so it is capped small and
  exists for exhaustive study, not for solving.
* two-root arborescence form (`build_parb`): the polynomial CVC model.
  For adjacent roots r, r1 it orients G (`arborescence_arcs`): every
  edge in both directions, minus the arcs into r and every arc into r1
  but (r, r1).  Binary x and z with indegree rows tied to x, depth rows
  weighted by x (Miller-Tucker-Zemlin style, big-M), and a cardinality
  row z(A) = x(V) - 1.  Integral x is feasible iff x picks a connected
  vertex cover.
* single-root arborescence form (`build_qr`): the same arborescence rows
  with every x_v fixed to 1, over G in both directions minus the arcs
  into one root r; the feasible binary z are exactly the
  r-arborescences.

`MipModel` is a deliberately dumb IR (named variables, linear rows) with a
deterministic LP-file writer; no solver is embedded.  The exhaustive
verifiers below build one point per vertex subset or arc pick instead (a
breadth-first spanning forest from `graph.bfs_forest`, or an arborescence,
with tree depths) and let `check_integer_point` on the model the builder
returns decide, so a wrong row shows as a mismatch.  Every subset reaches
the two-root model: a further tree's root has no in-arc, which the
indegree and cardinality rows must reject, and the depth rows must reject
a directed cycle; tests check both.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import ContractError, InputError
from .graph import (
    Graph,
    VertexSet,
    bfs_forest,
    bits_of,
    grow_piece,
    mask_to_set,
    max_degree_vertex,
    require,
    set_to_mask,
    vertex_index,
)
from .oracle import check_cvc

PSTP_CAP = 15
VERIFY_CAP = 10
PSTP_VERIFY_CAP = 8
QR_COUNT_CAP = 10
DEFAULT_TOL = 1e-6


class Variable(NamedTuple):
    name: str
    kind: str  # "binary" | "continuous"
    lb: float
    ub: float


class Constraint(NamedTuple):
    name: str
    terms: tuple  # ((coef, varname), ...)
    sense: str  # "<=" | "=" | ">="
    rhs: float


class MipModel:
    """Solver-agnostic integer model: named variables, linear rows, a
    minimize objective, and metadata emitted as LP comment lines."""

    def __init__(self, metadata: Optional[Mapping[str, str]] = None):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: tuple = ()  # ((coef, varname), ...), minimized
        self.metadata: dict[str, str] = dict(metadata or {})
        self._var_names: set[str] = set()
        self._row_names: set[str] = set()

    def add_variable(self, name: str, kind: str, lb: float = 0.0, ub: float = 1.0):
        if kind not in ("binary", "continuous"):
            raise InputError(f"unknown variable kind {kind!r}")
        if name in self._var_names:
            raise InputError(f"duplicate variable name {name!r}")
        if kind == "binary":
            lb, ub = 0.0, 1.0
        self._var_names.add(name)
        self.variables.append(Variable(name, kind, lb, ub))

    def _check_terms(self, terms, row: Optional[str]):
        """Reject a term on an undeclared variable; `row` names the
        constraint, None the objective."""
        for _, var in terms:
            if var not in self._var_names:
                where = "objective" if row is None else f"constraint {row!r}"
                raise InputError(f"{where} references undeclared variable {var!r}")

    def add_constraint(self, name: str, terms, sense: str, rhs: float):
        if sense not in ("<=", "=", ">="):
            raise InputError(f"unknown sense {sense!r}")
        if name in self._row_names:
            raise InputError(f"duplicate constraint name {name!r}")
        terms = tuple(terms)
        self._check_terms(terms, name)
        self._row_names.add(name)
        self.constraints.append(Constraint(name, terms, sense, rhs))

    def set_objective(self, terms):
        terms = tuple(terms)
        self._check_terms(terms, None)
        self.objective = terms

    def __repr__(self) -> str:
        return (
            f"MipModel({len(self.variables)} vars, "
            f"{len(self.constraints)} rows)"
        )


# ---------------------------------------------------------------------------
# roots and arcs


def default_roots(g: Graph) -> tuple[int, int]:
    """Default root pair: a maximum-degree vertex and its maximum-degree
    neighbor, ties broken by lowest index."""
    if g.m == 0:
        raise InputError("root selection needs at least one edge")
    r = max_degree_vertex(g, g.full_mask())
    return r, max_degree_vertex(g, g.masks[r])


def _parb_roots(g: Graph, r: Optional[int], r1: Optional[int]) -> tuple[int, int]:
    """The two-root model's roots, as `build_parb` documents them; g must
    be connected with n >= 2, and the roots ints in range(n) and adjacent."""
    require(g, "build_parb", min_n=2, connected=True)
    if r is None and r1 is None:
        return default_roots(g)
    if r is None or r1 is None:
        base = vertex_index(g.n, r if r is not None else r1, "root")
        # g is connected with n >= 2, so base has a neighbor
        other = max_degree_vertex(g, g.masks[base])
        return (base, other) if r is not None else (other, base)
    r, r1 = vertex_index(g.n, r, "root"), vertex_index(g.n, r1, "root")
    if not g.has_edge(r, r1):
        raise InputError(f"roots {r} and {r1} must be adjacent")
    return r, r1


def arborescence_arcs(g: Graph, r: int, r1: Optional[int] = None) -> list[tuple[int, int]]:
    """The arcs (u, v) the arborescence models pick from, sorted.

    Every edge of g in both directions, minus the arcs into r and, when
    r1 is given, the arcs into r1 other than (r, r1): the in-arcs of a
    vertex come from its neighbours, or none for r, or only r for r1.
    A root that is not an int in range(n) raises InputError.
    """
    require(g, "arborescence_arcs")
    r = vertex_index(g.n, r, "root")
    if r1 is not None:
        r1 = vertex_index(g.n, r1, "root")
    return [
        (u, v)
        for u, nbrs in enumerate(g.masks)
        for v in bits_of(nbrs)
        if v != r and (v != r1 or u == r)
    ]


# ---------------------------------------------------------------------------
# model builders


def _arborescence(model: MipModel, n: int, arcs, r: int, r1: Optional[int], x) -> list[str]:
    """Declare z per arc and d per vertex, and add the indegree, depth,
    root and cardinality rows `build_parb` lists.  x is the list of x
    names, or None for x fixed to 1 (`build_qr`): each -x_v term is then
    left out and its row's right-hand side shifted by 1.  Returns each
    arc's row-name suffix "_u_v"."""
    tails = [f"_{u}_{v}" for u, v in arcs]
    z = ["z" + tail for tail in tails]
    d = [f"d_{v}" for v in range(n)]
    for name in z:
        model.add_variable(name, "binary")
    for name in d:
        model.add_variable(name, "continuous", 0.0, float(n - 1))
    minus_x = [((-1, name),) for name in x] if x is not None else [()] * n
    shift = 0 if x is not None else 1
    into = [[] for _ in range(n)]
    for (_, v), zuv in zip(arcs, z):
        into[v].append((1, zuv))
    for v in range(n):
        if v != r and v != r1:
            model.add_constraint(f"indeg_{v}", (*into[v], *minus_x[v]), "=", shift)
    for (u, v), tail, zuv in zip(arcs, tails, z):
        model.add_constraint(
            "mtz" + tail, ((1, d[v]), (-n, zuv), (-1, d[u]), *minus_x[v]), ">=", shift - n
        )
    model.add_constraint("root", ((1, d[r]),), "=", 0)
    card = [(1, name) for name in z]
    card.extend(term for terms in minus_x for term in terms)
    model.add_constraint("card", card, "=", n * shift - 1)
    return tails


def build_parb(g: Graph, r: Optional[int] = None, r1: Optional[int] = None) -> MipModel:
    """Two-root arborescence model; integral x feasible iff x is a CVC.

    Rows, in declaration order: one covering row per undirected edge,
    indegree rows z(into v) = x_v for v outside {r, r1}, one depth row per
    arc d_v >= n*(z_uv - 1) + d_u + x_v, the root row d_r = 0, the
    cardinality row z(A) = x(V) - 1, and two linking rows per arc.
    Depth variables carry explicit bounds [0, n-1]; the big-M is exactly n.
    The arcs are `arborescence_arcs(g, r, r1)`.  g must be connected, and
    r, r1 adjacent: by default `default_roots(g)`, and a single given
    root is paired with its maximum-degree neighbor.
    """
    r, r1 = _parb_roots(g, r, r1)
    n = g.n
    arcs = arborescence_arcs(g, r, r1)
    model = MipModel(metadata={"formulation": "arborescence", "roots": f"r={r} r1={r1}"})
    x = [f"x_{v}" for v in range(n)]
    for name in x:
        model.add_variable(name, "binary")
    model.set_objective(tuple((1, name) for name in x))
    for u, v in sorted(g.edges):
        model.add_constraint(f"cover_{u}_{v}", ((1, x[u]), (1, x[v])), ">=", 1)
    tails = _arborescence(model, n, arcs, r, r1, x)
    for (u, v), tail in zip(arcs, tails):
        zuv = "z" + tail
        model.add_constraint("lnka" + tail, ((1, zuv), (-1, x[u])), "<=", 0)
        model.add_constraint("lnkb" + tail, ((1, zuv), (-1, x[v])), "<=", 0)
    return model


def build_qr(g: Graph, r: int) -> MipModel:
    """Single-root arborescence polytope Q_r over g rooted at r.

    The two-root model's arborescence rows with every x_v fixed to 1,
    over `arborescence_arcs(g, r)`: unit indegree row per non-root vertex,
    depth rows d_v >= n*(z_uv - 1) + d_u + 1, d_r = 0 and z(A) = n - 1.
    The feasible binary z are exactly the r-arborescences of g (none when
    g is disconnected); the depth bounds [0, n-1] do not change that.
    """
    arcs = arborescence_arcs(g, r)
    r = vertex_index(g.n, r, "root")
    model = MipModel(metadata={"formulation": "single-root-arborescence", "roots": f"r={r}"})
    _arborescence(model, g.n, arcs, r, None, None)
    return model


def build_pstp(g: Graph) -> MipModel:
    """Spanning-tree model with explicit forest rows; capped at n <= 15.

    Forest rows y(E(U)) <= |U| - 1 are emitted only for vertex sets U
    inducing at least |U| edges; for any other U the row already follows
    from the y <= 1 bounds.  Rows are declared in increasing order of the
    subset's bitmask encoding.
    """
    require(g, "build_pstp", cap=PSTP_CAP)
    n = g.n
    edges = sorted(g.edges)
    model = MipModel(metadata={"formulation": "spanning-tree"})
    for v in range(n):
        model.add_variable(f"x_{v}", "binary")
    for u, v in edges:
        model.add_variable(f"y_{u}_{v}", "continuous", 0.0, 1.0)
    model.set_objective(tuple((1, f"x_{v}") for v in range(n)))
    for u, v in edges:
        model.add_constraint(f"cover_{u}_{v}", ((1, f"x_{u}"), (1, f"x_{v}")), ">=", 1)
    # induced-edge counts for all subsets, by peeling the lowest vertex
    ecount = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        ecount[mask] = ecount[rest] + (g.masks[v] & rest).bit_count()
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if ecount[mask] < size:
            continue
        members = list(bits_of(mask))
        name = "sub_" + "_".join(str(v) for v in members)
        inner = tuple(
            (1, f"y_{u}_{v}") for u, v in edges if mask >> u & 1 and mask >> v & 1
        )
        model.add_constraint(name, inner, "<=", size - 1)
    total = [(1, f"y_{u}_{v}") for u, v in edges]
    total.extend((-1, f"x_{v}") for v in range(n))
    model.add_constraint("total", total, "=", -1)
    for u, v in edges:
        model.add_constraint(f"ya_{u}_{v}", ((1, f"y_{u}_{v}"), (-1, f"x_{u}")), "<=", 0)
        model.add_constraint(f"yb_{u}_{v}", ((1, f"y_{u}_{v}"), (-1, f"x_{v}")), "<=", 0)
    return model


# ---------------------------------------------------------------------------
# point checking


def check_integer_point(model: MipModel, assignment: Mapping[str, float], tol: float = DEFAULT_TOL) -> bool:
    """Evaluate every row and bound at the given point.

    Every declared variable must be present in the assignment (extra keys
    are ignored); a missing one raises InputError.  Binary variables must
    sit within tol of 0 or 1.
    """
    for name, kind, lb, ub in model.variables:
        if name not in assignment:
            raise InputError(f"assignment missing variable {name!r}")
        val = assignment[name]
        if not (lb - tol <= val <= ub + tol):
            return False
        # within the bounds checked above, min(|val|, |val - 1|) > tol
        if kind == "binary" and tol < val < 1 - tol:
            return False
    for _, terms, sense, rhs in model.constraints:
        lhs = sum(coef * assignment[var] for coef, var in terms)
        if sense == "<=" and lhs > rhs + tol:
            return False
        if sense == ">=" and lhs < rhs - tol:
            return False
        if sense == "=" and abs(lhs - rhs) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# witnesses and exhaustive verification


def _point_builder(n: int, arcs):
    """A function (cmask, parent) -> named point of an arc pick from
    `arcs`; each name is formatted once, here.

    x is the indicator of cmask, z picks the arc into each vertex of the
    acyclic map `parent` from its parent, and d is each vertex's parent
    hops up to a root (zero off the pick): on an arborescence, the least
    labels the depth rows allow.  build_qr ignores the x keys.
    """
    x = [f"x_{v}" for v in range(n)]
    d = [f"d_{v}" for v in range(n)]
    z = {(u, v): f"z_{u}_{v}" for u, v in arcs}
    unpicked = dict.fromkeys(z.values(), 0)

    def point(cmask: int, parent: Mapping[int, int]) -> dict:
        values = dict(unpicked)
        depth = [0] * n
        for v, u in parent.items():
            values[z[u, v]] = 1
            hops = 1
            while u in parent:
                u = parent[u]
                hops += 1
            depth[v] = hops
        for v in range(n):
            values[x[v]] = cmask >> v & 1
            values[d[v]] = depth[v]
        return values

    return point


def _parb_pick(masks: tuple[int, ...], r: int, r1: int, cmask: int) -> dict[int, int]:
    """The two-root model's pick for the vertex set cmask, as a parent map:
    the breadth-first forest of G[C] from the roots C holds, plus the arc
    (r, r1) when C holds both.  Each tree arc is one of
    `arborescence_arcs(g, r, r1)`: no tree arc enters a seed."""
    seeds = [v for v in (r, r1) if cmask >> v & 1]
    parent, _ = bfs_forest(masks, cmask, seeds)
    if len(seeds) == 2:
        parent[r1] = r
    return parent


def witness_parb(g: Graph, cover: Iterable[int], r: int, r1: int) -> dict:
    """Feasible point of build_parb(g, r, r1) for a connected vertex cover,
    as the named assignment check_integer_point takes.

    x is the cover's indicator, z a breadth-first arborescence of the
    model's arcs inside the cover, rooted per which roots the cover
    contains, and d the tree depths, zero outside the cover.  The point is
    verified against the model before being returned.
    """
    cover = frozenset(cover)
    cert = check_cvc(g, cover)
    if not cert.valid:
        raise InputError("witness_parb requires a valid connected vertex cover")
    r, r1 = _parb_roots(g, r, r1)
    cmask = set_to_mask(cover)
    point = _point_builder(g.n, arborescence_arcs(g, r, r1))
    point = point(cmask, _parb_pick(g.masks, r, r1, cmask))
    if not check_integer_point(build_parb(g, r, r1), point):
        raise ContractError("constructed witness fails the model; internal bug")
    return point


def _closes_cycle(parent: dict[int, int], u: int, v: int) -> bool:
    """Whether picking arc (u, v) closes a directed cycle, i.e. v is
    already an ancestor of u along the picked in-arcs in `parent`."""
    w = u
    while w in parent:
        w = parent[w]
        if w == v:
            return True
    return False


def find_parb_mismatch(
    g: Graph, r: Optional[int] = None, r1: Optional[int] = None
) -> Optional[VertexSet]:
    """First vertex set breaking the model/checker equivalence, or None.

    For every C subseteq V, the two-root model with x = indicator of C is
    feasible for some (z, d) exactly when C is a connected vertex cover.
    Returns the first C (by bitmask order) where the sides disagree.

    The model side is judged on the model `build_parb` returns, at one
    point per C, for every C.  With x fixed, the linking, indegree and
    cardinality rows allow only picks giving each member but the root(s)
    one in-arc from inside C.  A pick that closes a directed cycle breaks
    the depth rows on it, and one that closes none is an arborescence from
    the root(s).  So a feasible (z, d) exists iff the breadth-first forest
    of G[C] from the roots in C, joined by the arc (r, r1) when C holds
    both, is one tree, and then its tree depths pass every row.  Otherwise
    a further tree's root has no in-arc, and the indegree and cardinality
    rows must reject the point.
    """
    require(g, "find_parb_mismatch", cap=VERIFY_CAP)
    r, r1 = _parb_roots(g, r, r1)
    model = build_parb(g, r, r1)
    point = _point_builder(g.n, arborescence_arcs(g, r, r1))
    for cmask in range(1 << g.n):
        cover = mask_to_set(cmask)
        feasible = check_integer_point(model, point(cmask, _parb_pick(g.masks, r, r1, cmask)))
        if feasible != check_cvc(g, cover).valid:
            return cover
    return None


def find_pstp_mismatch(g: Graph) -> Optional[VertexSet]:
    """First vertex set breaking the model/checker equivalence, or None.

    For every C subseteq V of a connected graph (n <= PSTP_VERIFY_CAP),
    the spanning-tree model with x = indicator of C is feasible for some y
    exactly when C is a connected vertex cover.  Returns the first C (by
    bitmask order) where the sides disagree.

    The model side is judged on the model `build_pstp` returns, at one
    point per C: y picks a spanning forest of G[C], one breadth-first tree
    per component.  The linking rows keep y on E(C), and the forest rows
    (each one emitted, or implied by the y bounds) cap y(E(C)) at |C| - k
    for the k components of G[C], while the total row needs |C| - 1.  So
    a feasible y exists iff k = 1, and then the forest attains the cap.
    The forest point stays inside the cap, so it cannot show a forest row
    that is missing: for a disconnected cover, each component K inducing
    at least |K| edges must therefore have its `sub_` row.
    """
    require(g, "find_pstp_mismatch", min_n=2, connected=True, cap=PSTP_VERIFY_CAP)
    model = build_pstp(g)
    row_names = {row.name for row in model.constraints}
    edges = sorted(g.edges)
    for cmask in range(1 << g.n):
        cover = mask_to_set(cmask)
        parent, roots = bfs_forest(g.masks, cmask)
        tree = {(min(u, v), max(u, v)) for v, u in parent.items()}
        point = {f"x_{v}": cmask >> v & 1 for v in range(g.n)}
        for u, v in edges:
            point[f"y_{u}_{v}"] = int((u, v) in tree)
        cert = check_cvc(g, cover)
        if check_integer_point(model, point) != cert.valid:
            return cover
        if cert.is_cover and len(roots) > 1:
            for root in roots:
                comp = grow_piece(g.masks, 1 << root, cmask)[0]
                induced = sum(1 for u, v in edges if comp >> u & 1 and comp >> v & 1)
                name = "sub_" + "_".join(str(v) for v in bits_of(comp))
                if induced >= comp.bit_count() and name not in row_names:
                    return cover
    return None


def count_qr_feasible(g: Graph, r: int) -> int:
    """Count the binary arc picks feasible in `build_qr(g, r)`.

    Enumerates the solution set of the indegree rows (one picked in-arc,
    from a neighbour, per non-root vertex) depth-first.  A partial pick
    that closes a directed cycle is pruned: the depth rows along the cycle
    (each adds 1) are already unsatisfiable, and completions only add
    rows.  Every complete pick is then an r-arborescence, and it counts
    when its point (z with its tree depths) passes the model `build_qr`
    returns.  Intended for the matrix-tree cross-check; refuses n above
    QR_COUNT_CAP with SizeCapError.
    """
    require(g, "count_qr_feasible", cap=QR_COUNT_CAP)
    r = vertex_index(g.n, r, "root")
    model = build_qr(g, r)
    point = _point_builder(g.n, arborescence_arcs(g, r))
    targets = [v for v in range(g.n) if v != r]
    parent: dict[int, int] = {}

    def count(idx: int) -> int:
        if idx == len(targets):
            return int(check_integer_point(model, point(0, parent)))
        v = targets[idx]
        total = 0
        for u in bits_of(g.masks[v]):
            if not _closes_cycle(parent, u, v):
                parent[v] = u
                total += count(idx + 1)
                del parent[v]
        return total

    return count(0)


# ---------------------------------------------------------------------------
# LP-file emission


def _num(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _term_prefix(coef, first: bool) -> str:
    """The text written before a term's variable name."""
    mag = abs(coef)
    body = "" if mag == 1 else f"{_num(mag)} "
    if coef < 0:
        return "- " + body
    return body if first else "+ " + body


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _wrap(prefix: str, tokens: list[str], per_line: int = 8) -> list[str]:
    lines = []
    for start in range(0, len(tokens), per_line):
        chunk = " ".join(tokens[start : start + per_line])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"    {chunk}")
    return lines


def write_lp(model: MipModel) -> str:
    """Serialize the model to LP format, byte-for-byte deterministic.

    Sections: comment lines from metadata, Minimize, Subject To (rows in
    declaration order), Bounds (continuous variables), Binaries, End.
    An empty linear expression is written as the first variable with
    coefficient zero.  Long expressions wrap at eight terms per line.
    """
    if not model.variables:
        raise InputError("cannot write a model with no variables")
    empty = ((0, model.variables[0].name),)
    # a model repeats few coefficients and numbers: format each once
    first = _Memo(lambda coef: _term_prefix(coef, True))
    later = _Memo(lambda coef: _term_prefix(coef, False))
    num = _Memo(_num)

    def tokens_of(terms) -> list[str]:
        terms = terms or empty
        tokens = [later[coef] + var for coef, var in terms]
        coef, var = terms[0]
        tokens[0] = first[coef] + var
        return tokens

    lines = [f"\\ {k}: {v}" for k, v in model.metadata.items()]
    lines.append("Minimize")
    lines.extend(_wrap(" obj: ", tokens_of(model.objective)))
    lines.append("Subject To")
    for row in model.constraints:
        tokens = tokens_of(row.terms)
        tokens.append(row.sense)
        tokens.append(num[row.rhs])
        if len(tokens) <= 8:
            lines.append(f" {row.name}: {' '.join(tokens)}")
        else:
            lines.extend(_wrap(f" {row.name}: ", tokens))
    bounded = [v for v in model.variables if v.kind == "continuous"]
    if bounded:
        lines.append("Bounds")
        for v in bounded:
            lines.append(f" {num[v.lb]} <= {v.name} <= {num[v.ub]}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 10):
            lines.append(" " + " ".join(binaries[start : start + 10]))
    lines.append("End")
    return "\n".join(lines) + "\n"

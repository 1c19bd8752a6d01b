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

`MipModel` stores a model columns-first: parallel column lists and one
CSR row table, read back through name views, handed to a sparse solver
interface by `to_arrays()`, and written by a deterministic LP-file
writer; no solver is embedded.  It refuses, as they are added, names,
numbers and bounds that would make broken LP text.  The exhaustive
verifiers below build one point per vertex subset or arc pick instead (a
breadth-first spanning forest from `graph.bfs_forest`, or an arborescence,
with tree depths) and let `check_integer_point` on the model the builder
returns decide, so a wrong row shows as a mismatch.  Every subset reaches
the two-root model: a further tree's root has no in-arc, which the
indegree and cardinality rows must reject, and the depth rows must reject
a directed cycle; tests check both.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import accumulate
from math import inf
from numbers import Real
from operator import sub
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import ContractError, InputError, checked_name, checked_type, shown
from .graph import (
    Graph,
    VertexSet,
    bfs_forest,
    bits_of,
    grow_piece,
    mask_to_set,
    max_degree_vertex,
    require,
    vertex_index,
    vertex_mask,
)
from .oracle import check_cvc

PSTP_CAP = 15
VERIFY_CAP = 10
PSTP_VERIFY_CAP = 8
QR_COUNT_CAP = 10
DEFAULT_TOL = 1e-6
# write_lp joins its Subject To lines into text this many at a time
_BLOCK_LINES = 2048


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


# an LP name: no whitespace or ':', and no leading digit, '.', '+' or '-'
_NAME = re.compile(r"(?![\d.+-])[^\s:]+\Z")


def _check_name(name, what: str) -> None:
    if not isinstance(name, str) or not _NAME.match(name):
        raise InputError(
            f"{what} name {shown(name)} is not an LP name: a non-empty str with no "
            "whitespace or ':' that does not start with a digit, '.', '+' or '-'"
        )


def _finite(value) -> bool:
    """Whether value is a real number whose float is finite: not NaN, an
    infinity, or a number too large for a float."""
    try:
        return isinstance(value, Real) and -inf < float(value) < inf
    except OverflowError:
        return False


def _bound(value) -> bool:
    """Whether value can bound a variable: a finite real or an infinity."""
    return _finite(value) or isinstance(value, Real) and abs(value) == inf


class _View(Sequence):
    """Read-only sequence of item(i) for i in range(len(backing))."""

    __slots__ = ("_backing", "_item")

    def __init__(self, backing: list, item):
        self._backing = backing
        self._item = item

    def __len__(self) -> int:
        return len(self._backing)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(len(self._backing))[i]]
        return self._item(range(len(self._backing))[i])

    def __iter__(self):
        return map(self._item, range(len(self._backing)))


class MipModel:
    """Solver-agnostic integer model with a minimize objective and
    metadata emitted as LP comment lines, stored columns-first.

    Columns are parallel lists (name, kind, lb, ub) with one name ->
    column dict; rows are one CSR table: name, sense and rhs per row, and
    `indptr` into column indices and coefficients.  `_ids` holds one int
    object per column, which the name dict and every row and objective
    index share, so the table holds no int per nonzero.  The table holds
    only ints, floats and strs, which the cyclic garbage collector does
    not track.  `variables`, `constraints` and `objective` read it back
    as `Variable` and `Constraint` tuples and (coef, varname) terms.
    The metadata must map strs to strs; anything else is an InputError
    when the model is made.
    """

    def __init__(self, metadata: Optional[Mapping[str, str]] = None):
        if metadata is not None:
            checked_type(metadata, Mapping, "metadata")
        self.metadata: dict[str, str] = dict(metadata or {})
        for key, value in self.metadata.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise InputError(f"metadata must map strs to strs, got {shown(key)}: {shown(value)}")
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._lb: list = []
        self._ub: list = []
        self._col: dict[str, int] = {}
        self._ids: list[int] = []
        self._row_names: list[str] = []
        self._row_set: set[str] = set()
        self._senses: list[str] = []
        self._rhs: list = []
        self._indptr: list[int] = [0]
        self._indices: list[int] = []
        self._data: list = []
        self._objective: tuple[list, list] = ([], [])  # (columns, coefficients)

    def add_variable(self, name: str, kind: str, lb: float = 0.0, ub: float = 1.0):
        checked_name(kind, ("binary", "continuous"), "variable kind")
        _check_name(name, "variable")
        if name in self._col:
            raise InputError(f"duplicate variable name {name!r}")
        if kind == "binary":
            lb, ub = 0.0, 1.0
        elif not (_bound(lb) and _bound(ub) and lb <= ub and lb < inf and ub > -inf):
            raise InputError(f"variable {name!r} needs real bounds lb <= ub, lb < inf, ub > -inf, got {shown(lb)}, {shown(ub)}")
        self._add_columns([name], kind, lb, ub)

    def add_constraint(self, name: str, terms, sense: str, rhs: float):
        checked_name(sense, ("<=", "=", ">="), "sense")
        _check_name(name, "constraint")
        if name in self._row_set:
            raise InputError(f"duplicate constraint name {name!r}")
        cols, coefs = self._columns(terms, f"constraint {name!r}")
        if not _finite(rhs):
            raise InputError(f"constraint {name!r} has right-hand side {shown(rhs)}, not a finite real")
        self._add_rows([name], sense, [rhs], [len(cols)], cols, coefs)

    def set_objective(self, terms):
        self._objective = self._columns(terms, "objective")

    def _columns(self, terms, where: str) -> tuple[list[int], list]:
        """The columns and coefficients of (coef, varname) terms; `where`
        names the row or objective in a refusal."""
        try:
            pairs = [(coef, var) for coef, var in terms]
        except (TypeError, ValueError):
            raise InputError(f"{where} needs (coef, varname) terms, got {shown(terms)}") from None
        cols, coefs = [], []
        for coef, var in pairs:
            col = self._col.get(var) if isinstance(var, str) else None
            if col is None:
                raise InputError(f"{where} references undeclared variable {shown(var)}")
            if not _finite(coef):
                raise InputError(f"{where} has coefficient {shown(coef)} on {var!r}, not a finite real")
            cols.append(col)
            coefs.append(coef)
        return cols, coefs

    def _add_columns(self, names: list[str], kind: str, lb, ub) -> list[int]:
        """Append a block of columns of one kind and bounds; returns their
        indices, the `_ids` objects rows take.  The builders' names need
        no per-name check."""
        first = len(self._names)
        self._ids += range(first, first + len(names))
        cols = self._ids[first:]
        self._col.update(zip(names, cols))
        if len(self._col) != first + len(names):
            raise ContractError("duplicate variable name in a block; internal bug")
        self._names += names
        self._kinds += [kind] * len(names)
        self._lb += [lb] * len(names)
        self._ub += [ub] * len(names)
        return cols

    def _add_rows(self, names: list[str], sense: str, rhs: list, sizes: list[int], indices: list[int], data: list):
        """Append a block of rows of one sense: row i is names[i] with
        right-hand side rhs[i] over the next sizes[i] entries of indices
        (columns, taken from `_ids`) and data (coefficients).  The
        builders' rows need no per-row check."""
        if indices and (min(indices) < 0 or max(indices) >= len(self._names)):
            raise ContractError("row references a column out of range; internal bug")
        known = len(self._row_set)
        self._row_set.update(names)
        if len(self._row_set) != known + len(names):
            raise ContractError("duplicate constraint name in a block; internal bug")
        self._row_names += names
        self._senses += [sense] * len(names)
        self._rhs += rhs
        ptr = self._indptr
        ptr += accumulate(sizes, initial=ptr.pop())
        self._indices += indices
        self._data += data

    @property
    def variables(self) -> Sequence[Variable]:
        return _View(self._names, self._variable)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return _View(self._row_names, self._constraint)

    @property
    def objective(self) -> tuple:
        """((coef, varname), ...), minimized."""
        cols, coefs = self._objective
        return tuple(zip(coefs, map(self._names.__getitem__, cols)))

    def _variable(self, col: int) -> Variable:
        return Variable(self._names[col], self._kinds[col], self._lb[col], self._ub[col])

    def _constraint(self, row: int) -> Constraint:
        start, end = self._indptr[row], self._indptr[row + 1]
        names = self._names
        terms = tuple(
            (coef, names[col]) for col, coef in zip(self._indices[start:end], self._data[start:end])
        )
        return Constraint(self._row_names[row], terms, self._senses[row], self._rhs[row])

    def to_arrays(self) -> dict[str, list]:
        """The model as plain lists, in the shape sparse MIP interfaces
        such as scipy's `milp` (HiGHS) take.

        "c": objective coefficient per column (repeated terms add);
        "indptr", "indices", "data": the rows as a CSR matrix (repeated
        terms are kept, and a CSR reader adds them); "row_lo", "row_hi":
        each row's range, rhs on the bounded side(s) and -inf or inf on
        the other; "col_lb", "col_ub": column bounds; "integrality": 1
        for a binary column, 0 for a continuous one.  Numbers are floats.
        """
        c = [0.0] * len(self._names)
        for col, coef in zip(*self._objective):
            c[col] += float(coef)
        rhs = [float(value) for value in self._rhs]
        return {
            "c": c,
            "indptr": list(self._indptr),
            "indices": list(self._indices),
            "data": [float(coef) for coef in self._data],
            "row_lo": [-inf if sense == "<=" else b for sense, b in zip(self._senses, rhs)],
            "row_hi": [inf if sense == ">=" else b for sense, b in zip(self._senses, rhs)],
            "col_lb": [float(lb) for lb in self._lb],
            "col_ub": [float(ub) for ub in self._ub],
            "integrality": [int(kind == "binary") for kind in self._kinds],
        }

    def __repr__(self) -> str:
        return f"MipModel({len(self._names)} vars, {len(self._row_names)} rows)"


# ---------------------------------------------------------------------------
# roots and arcs


def default_roots(g: Graph) -> tuple[int, int]:
    """Default root pair: a maximum-degree vertex and its maximum-degree
    neighbor, ties broken by lowest index."""
    require(g, "default_roots", min_n=0)
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
    if not g.masks[r] >> r1 & 1:
        raise InputError(f"roots {shown(r)} and {shown(r1)} must be adjacent")
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


def _cover_rows(model: MipModel, edges) -> None:
    """One covering row x_u + x_v >= 1 per edge, x_v being column v."""
    m = len(edges)
    x = model._ids
    model._add_rows(
        [f"cover_{u}_{v}" for u, v in edges], ">=", [1] * m, [2] * m,
        [x[w] for edge in edges for w in edge], [1] * (2 * m),
    )


def _link_rows(model: MipModel, a: str, b: str, w: list[int], pairs, tails: list[str]) -> None:
    """Two rows w - x_u <= 0 (named a + tail) and w - x_v <= 0 (b + tail)
    per pair (u, v), w its column in `w` and x_v column v."""
    k = len(pairs)
    names = [""] * (2 * k)
    names[0::2] = [a + tail for tail in tails]
    names[1::2] = [b + tail for tail in tails]
    x = model._ids
    indices = [0] * (4 * k)
    indices[0::4] = indices[2::4] = w
    indices[1::4] = [x[u] for u, _ in pairs]
    indices[3::4] = [x[v] for _, v in pairs]
    model._add_rows(names, "<=", [0] * (2 * k), [2] * (2 * k), indices, [1, -1] * (2 * k))


def _arborescence(model: MipModel, n: int, arcs, r: int, r1: Optional[int], with_x: bool) -> tuple[list[str], list[int]]:
    """Declare z per arc and d per vertex, and add the indegree, depth,
    root and cardinality rows `build_parb` lists.  with_x: x_v is column
    v (`build_parb`), or fixed to 1 (`build_qr`): each -x_v term is then
    left out and its row's right-hand side shifted by 1.  Returns each
    arc's row-name suffix "_u_v" and the z columns."""
    k = len(arcs)
    tails = [f"_{u}_{v}" for u, v in arcs]
    heads = [v for _, v in arcs]
    z = model._add_columns(["z" + tail for tail in tails], "binary", 0.0, 1.0)
    d = model._add_columns([f"d_{v}" for v in range(n)], "continuous", 0.0, float(n - 1))
    x = model._ids[:n] if with_x else []
    shift = 0 if with_x else 1
    into = [[] for _ in range(n)]
    for col, v in zip(z, heads):
        into[v].append(col)
    targets = [v for v in range(n) if v != r and v != r1]
    indices, data = [], []
    for v in targets:
        indices += into[v]
        data += [1] * len(into[v])
        if with_x:
            indices.append(x[v])
            data.append(-1)
    sizes = [len(into[v]) + with_x for v in targets]
    model._add_rows([f"indeg_{v}" for v in targets], "=", [shift] * len(targets), sizes, indices, data)
    width = 3 + with_x
    indices = [0] * (width * k)
    indices[0::width] = [d[v] for v in heads]
    indices[1::width] = z
    indices[2::width] = [d[u] for u, _ in arcs]
    if with_x:
        indices[3::width] = [x[v] for v in heads]
    model._add_rows(
        ["mtz" + tail for tail in tails], ">=", [shift - n] * k, [width] * k,
        indices, [1, -n, -1, -1][:width] * k,
    )
    model._add_rows(["root"], "=", [0], [1], [d[r]], [1])
    model._add_rows(
        ["card"], "=", [n * shift - 1], [k + len(x)],
        z + x, [1] * k + [-1] * len(x),
    )
    return tails, z


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
    model._add_columns(x, "binary", 0.0, 1.0)
    model.set_objective([(1, name) for name in x])
    _cover_rows(model, g.edges)
    tails, z = _arborescence(model, n, arcs, r, r1, True)
    _link_rows(model, "lnka", "lnkb", z, arcs, tails)
    return model


def build_qr(g: Graph, r: Optional[int] = None) -> MipModel:
    """Single-root arborescence polytope Q_r over g rooted at r (default: default_roots(g)[0]).

    The two-root model's arborescence rows with every x_v fixed to 1,
    over `arborescence_arcs(g, r)`: unit indegree row per non-root vertex,
    depth rows d_v >= n*(z_uv - 1) + d_u + 1, d_r = 0 and z(A) = n - 1.
    The feasible binary z are exactly the r-arborescences of g (none when
    g is disconnected); the depth bounds [0, n-1] do not change that.
    """
    r = default_roots(g)[0] if r is None else r
    arcs = arborescence_arcs(g, r)
    r = vertex_index(g.n, r, "root")
    model = MipModel(metadata={"formulation": "single-root-arborescence", "roots": f"r={r}"})
    _arborescence(model, g.n, arcs, r, None, False)
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
    edges = g.edges
    m = len(edges)
    tails = [f"_{u}_{v}" for u, v in edges]
    model = MipModel(metadata={"formulation": "spanning-tree"})
    x = [f"x_{v}" for v in range(n)]
    model._add_columns(x, "binary", 0.0, 1.0)
    y = model._add_columns(["y" + tail for tail in tails], "continuous", 0.0, 1.0)
    model.set_objective([(1, name) for name in x])
    _cover_rows(model, edges)
    # induced-edge counts for all subsets, by peeling the lowest vertex
    ecount = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        ecount[mask] = ecount[rest] + (g.masks[v] & rest).bit_count()
    names, rhs, sizes, indices = [], [], [], []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if ecount[mask] < size:
            continue
        names.append("sub_" + "_".join(str(v) for v in bits_of(mask)))
        rhs.append(size - 1)
        sizes.append(ecount[mask])
        indices += [col for col, (u, v) in zip(y, edges) if mask >> u & 1 and mask >> v & 1]
    model._add_rows(names, "<=", rhs, sizes, indices, [1] * len(indices))
    model._add_rows(["total"], "=", [-1], [m + n], y + model._ids[:n], [1] * m + [-1] * n)
    _link_rows(model, "ya", "yb", y, edges, tails)
    return model


# ---------------------------------------------------------------------------
# point checking


def check_integer_point(model: MipModel, assignment: Mapping[str, float]) -> bool:
    """Evaluate every row and bound at the given point.

    Every declared variable must be present in the assignment (extra keys
    are ignored) and hold a real number; a missing one, or any value that
    is not a `numbers.Real` or is too large for a float, raises InputError
    before any row is read.
    Rows and bounds hold within DEFAULT_TOL, and binary variables must
    sit within it of 0 or 1.
    """
    checked_type(model, MipModel, "model")
    checked_type(assignment, Mapping, "assignment")
    try:
        values = [assignment[name] for name in model._names]
    except KeyError as missing:
        raise InputError(f"assignment missing variable {missing.args[0]!r}") from None
    # one test per distinct type, not per value: the verifiers' points
    # hold a single type or two
    bad = [t for t in set(map(type, values)) if not issubclass(t, Real)]
    if bad:
        name, val = next((name, val) for name, val in zip(model._names, values) if type(val) in bad)
        raise InputError(f"variable {name!r} has value {shown(val)}, not a real number")
    try:
        list(map(float, values))
    except OverflowError:
        # a real that is neither NaN nor a float bound is one float() refused
        name, val = next((name, val) for name, val in zip(model._names, values) if val == val and not _bound(val))
        raise InputError(f"variable {name!r} has value {shown(val)}, too large for a float") from None
    tol = DEFAULT_TOL
    # rows first: a point the verifiers build mostly fails an early row
    indices, data, ptr = model._indices, model._data, model._indptr
    for sense, rhs, start, end in zip(model._senses, model._rhs, ptr, ptr[1:]):
        lhs = 0
        for k in range(start, end):
            lhs += data[k] * values[indices[k]]
        if sense == "<=":
            if lhs > rhs + tol:
                return False
        elif sense == ">=":
            if lhs < rhs - tol:
                return False
        elif abs(lhs - rhs) > tol:
            return False
    for val, kind, lb, ub in zip(values, model._kinds, model._lb, model._ub):
        if not (lb - tol <= val <= ub + tol):
            return False
        # within the bounds checked above, min(|val|, |val - 1|) > tol
        if kind == "binary" and tol < val < 1 - tol:
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
    require(g, "witness_parb", min_n=0)
    cmask = vertex_mask(g.n, cover)
    if not check_cvc(g, bits_of(cmask)).valid:
        raise InputError("witness_parb requires a valid connected vertex cover")
    r, r1 = _parb_roots(g, r, r1)
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
    edges = g.edges
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
                if induced >= comp.bit_count() and name not in model._row_set:
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


def _term_prefix(coef) -> str:
    """The text written before the variable name of a row's second or
    later term; a row's first term drops a leading "+ "."""
    body = "" if abs(coef) == 1 else f"{_num(abs(coef))} "
    return ("- " if coef < 0 else "+ ") + body


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _wrap(prefix: str, tokens: list[str]) -> list[str]:
    lines = []
    for start in range(0, len(tokens), 8):
        chunk = " ".join(tokens[start : start + 8])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"    {chunk}")
    return lines


def write_lp(model: MipModel) -> str:
    """Serialize the model to LP format, byte-for-byte deterministic.

    Sections: comment lines from metadata, Minimize, Subject To (rows in
    declaration order), Bounds (continuous variables), Binaries, End.
    An empty linear expression is written as the first variable with
    coefficient zero.  Long expressions wrap at eight terms per line.
    """
    checked_type(model, MipModel, "model")
    names = model._names
    if not names:
        raise InputError("cannot write a model with no variables")
    # each column's "x", "+ x" and "- x" token is formatted once, and each
    # other coefficient's prefix once
    plus = ["+ " + name for name in names]
    minus = ["- " + name for name in names]
    prefix = _Memo(_term_prefix)
    num = _Memo(_num)

    def tokens(indices, data) -> list[str]:
        """Each term's token as a row's second or later term."""
        return [
            plus[col] if coef == 1 else minus[col] if coef == -1 else prefix[coef] + names[col]
            for col, coef in zip(indices, data)
        ]

    def expression(toks: list[str], data, start: int, end: int) -> list[str]:
        if start == end:
            return ["0 " + names[0]]
        row = toks[start:end]
        if not data[start] < 0:
            row[0] = row[0][2:]  # a leading term drops its "+ "
        return row

    lines = [f"\\ {k}: {v}" for k, v in model.metadata.items()]
    if any("\n" in line or "\r" in line for line in lines):
        raise InputError(f"metadata {model.metadata!r} holds a line break, which ends an LP comment")
    lines.append("Minimize")
    cols, coefs = model._objective
    lines.extend(_wrap(" obj: ", expression(tokens(cols, coefs), coefs, 0, len(coefs))))
    lines.append("Subject To")
    row_names, senses, rhs_list = model._row_names, model._senses, model._rhs
    data, ptr = model._data, model._indptr
    toks = tokens(model._indices, data)
    # a run of two-term rows is formatted a block at a time, each term
    # from a strided slice of toks; other rows one at a time
    two = bytes(map((2).__eq__, map(sub, ptr[1:], ptr)))
    runs = [match.span() for match in re.finditer(b"\x01+", two)]
    runs.append((len(row_names), len(row_names)))
    text = []  # blocks of joined lines, then the lines after them
    lo = 0
    for mid, hi in runs:
        for name, sense, rhs, start, end in zip(
            row_names[lo:mid], senses[lo:mid], rhs_list[lo:mid], ptr[lo:mid], ptr[lo + 1 : mid + 1]
        ):
            row = expression(toks, data, start, end)
            if len(row) <= 6:
                lines.append(f" {name}: {' '.join(row)} {sense} {num[rhs]}")
            else:
                row += (sense, num[rhs])
                lines.extend(_wrap(f" {name}: ", row))
            if len(lines) >= _BLOCK_LINES:
                text.append("\n".join(lines))
                lines.clear()
        if lines and mid < hi:
            text.append("\n".join(lines))
            lines.clear()
        for top in range(mid, hi, _BLOCK_LINES):
            end = min(top + _BLOCK_LINES, hi)
            start, stop = ptr[top], ptr[end]
            # a token starts with "+ " exactly when its coefficient is not
            # negative, so this drops a leading "+ " as expression does
            text.append("\n".join([
                f" {name}: {first.removeprefix('+ ')} {second} {sense} {num[rhs]}"
                for name, first, second, sense, rhs in zip(
                    row_names[top:end], toks[start:stop:2], toks[start + 1 : stop : 2], senses[top:end], rhs_list[top:end]
                )
            ]))
        lo = hi
    # the final join holds the blocks and the whole text at once, so the
    # whole-table tokens and the column token tables go first
    del toks, plus, minus
    kinds = model._kinds
    bounded = [
        f" {num[lb]} <= {name} <= {num[ub]}"
        for name, kind, lb, ub in zip(names, kinds, model._lb, model._ub)
        if kind == "continuous"
    ]
    if bounded:
        lines.append("Bounds")
        lines.extend(bounded)
    binaries = [name for name, kind in zip(names, kinds) if kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 10):
            lines.append(" " + " ".join(binaries[start : start + 10]))
    text += lines
    text += ("End", "")
    return "\n".join(text)

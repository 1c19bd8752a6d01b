"""Formulations: arborescence arcs, model rows, witnesses, exhaustive checks."""

import itertools
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from cvckit.errors import InputError, SizeCapError, shown
from cvckit.bb import solve
from cvckit.bounds import is_bipartite
from cvckit.graph import (
    Graph,
    articulation_points,
    bipartite_random,
    first_connected,
    gnp_random,
    is_connected,
    max_degree_vertex,
    parse_dimacs,
    spanning_tree_count,
    vertex_mask,
    write_dimacs,
)
from cvckit.mip import (
    MipModel,
    arborescence_arcs,
    build_parb,
    build_pstp,
    build_qr,
    check_integer_point,
    count_qr_feasible,
    default_roots,
    find_parb_mismatch,
    find_pstp_mismatch,
    witness_parb,
    write_lp,
)
from cvckit.rng import Xoshiro256
from cvckit.oracle import brute_force_cvc, check_cvc, feasible_stable_sets, max_feasible_stable
from tests.conftest import connected_gnp
from tests.test_graph import complete, cycle, path


# each call takes one bad vertex or root v of P4 (n=4)
BAD_VERTEX_CALLS = {
    "check_cvc": lambda v: check_cvc(path(4), [1, v]),
    "degree": lambda v: path(4).degree(v),
    "feasible_stable_sets-base": lambda v: list(feasible_stable_sets(path(4), [v])),
    "feasible_stable_sets-candidates": lambda v: list(feasible_stable_sets(path(4), (), [0, v])),
    "max_feasible_stable-base": lambda v: max_feasible_stable(path(4), [v]),
    "max_feasible_stable-candidates": lambda v: max_feasible_stable(path(4), (), [0, v]),
    "build_parb-r": lambda v: build_parb(path(4), v),
    "build_parb-r1": lambda v: build_parb(path(4), None, v),
    "build_parb-pair": lambda v: build_parb(path(4), 1, v),
    "arborescence_arcs-r": lambda v: arborescence_arcs(path(4), v, 1),
    "arborescence_arcs-r1": lambda v: arborescence_arcs(path(4), 1, v),
    "witness_parb-r": lambda v: witness_parb(path(4), {1, 2}, v, 1),
    "witness_parb-r1": lambda v: witness_parb(path(4), {1, 2}, 1, v),
    "build_qr": lambda v: build_qr(path(4), v),
    "count_qr_feasible": lambda v: count_qr_feasible(path(4), v),
}


@pytest.mark.parametrize("value", [1.5, "a", -1, 4], ids=["float", "str", "negative", "n"])
@pytest.mark.parametrize("call", BAD_VERTEX_CALLS.values(), ids=BAD_VERTEX_CALLS.keys())
def test_bad_vertex_argument_raises_input_error(call, value):
    match = "out of range for n=4" if isinstance(value, int) else "is not an int"
    with pytest.raises(InputError, match=match):
        call(value)


# each call passes one argument of the wrong type where the library
# takes a Graph, a vertex set or mask, DIMACS text, metadata or a prune
# log; tests/test_fuzz.py checks that every exported Graph, model, str
# and mapping argument refuses any other type
BAD_ARGUMENT_CALLS = {
    "is_bipartite-graph": lambda: is_bipartite("x"),
    "max_degree_vertex-graph": lambda: max_degree_vertex("x", 1),
    "check_cvc-int-cover": lambda: check_cvc(path(4), 5),
    "check_cvc-none-cover": lambda: check_cvc(path(4), None),
    "witness_parb-none-cover": lambda: witness_parb(path(4), None, 0, 1),
    "max_feasible_stable-int-candidates": lambda: max_feasible_stable(path(4), (), 5),
    "max_degree_vertex-empty-mask": lambda: max_degree_vertex(path(4), 0),
    "max_degree_vertex-mask-beyond-n": lambda: max_degree_vertex(path(4), 1 << 9),
    "max_degree_vertex-float-mask": lambda: max_degree_vertex(path(4), 1.5),
    "parse_dimacs-bytes": lambda: parse_dimacs(b"p edge 1 0"),
    "check_integer_point-str-values": lambda: check_integer_point(
        build_parb(path(4), 1, 2), {k: str(v) for k, v in witness_parb(path(4), {1, 2}, 1, 2).items()}
    ),
    "MipModel-str": lambda: MipModel("abc"),
    "MipModel-list": lambda: MipModel([1]),
    "first_connected-str-generate": lambda: first_connected("gnp", (5, 0.5), 1),
    "first_connected-list-params": lambda: first_connected(gnp_random, [5, 0.5], 1),
    "first_connected-float-seed": lambda: first_connected(gnp_random, (5, 0.5), 1.0),
    "first_connected-negative-reseeds": lambda: first_connected(gnp_random, (5, 0.5), 1, -1),
    "first_connected-float-reseeds": lambda: first_connected(gnp_random, (5, 0.5), 1, 2.0),
}


@pytest.mark.parametrize("call", BAD_ARGUMENT_CALLS.values(), ids=BAD_ARGUMENT_CALLS.keys())
def test_bad_argument_type_raises_input_error(call):
    with pytest.raises(InputError):
        call()


HUGE = 10**5000  # past Python's int-to-str digit limit


def _one_binary():
    model = MipModel()
    model.add_variable("a", "binary")
    return model


# each call passes an int too long for repr (or a value that holds one)
# where a refusal quotes the caller's value
HUGE_INT_CALLS = {
    "add_variable-ub": lambda: MipModel().add_variable("a", "continuous", 0, HUGE),
    "add_variable-lb": lambda: MipModel().add_variable("a", "continuous", -HUGE, 0),
    "add_variable-name": lambda: MipModel().add_variable(HUGE, "binary"),
    "add_variable-kind": lambda: MipModel().add_variable("a", HUGE),
    "add_constraint-sense": lambda: _one_binary().add_constraint("r", [(1, "a")], HUGE, 1),
    "add_constraint-rhs": lambda: _one_binary().add_constraint("r", [(1, "a")], "<=", HUGE),
    "add_constraint-coef": lambda: _one_binary().add_constraint("r", [(HUGE, "a")], "<=", 1),
    "add_constraint-var": lambda: _one_binary().add_constraint("r", [(1, HUGE)], "<=", 1),
    "add_constraint-terms": lambda: _one_binary().add_constraint("r", HUGE, "<=", 1),
    "check_integer_point-value": lambda: check_integer_point(_one_binary(), {"a": HUGE}),
    "check_integer_point-fraction": lambda: check_integer_point(_one_binary(), {"a": Fraction(HUGE, 3)}),
    "build_parb-root": lambda: build_parb(path(4), HUGE),
    "build_parb-negative-root": lambda: build_parb(path(4), -HUGE),
    "build_qr-root": lambda: build_qr(path(4), HUGE),
    "Graph-endpoint": lambda: Graph(3, [(0, HUGE)]),
    "Graph-edge-shape": lambda: Graph(3, [(0, HUGE, 1)]),
    "Graph-edges": lambda: Graph(3, HUGE),
    "Graph-negative-n": lambda: Graph(-HUGE),
    "Graph-n-too-large": lambda: Graph(HUGE),
    "vertex_mask-int": lambda: vertex_mask(3, HUGE),
    "vertex_mask-vertex": lambda: vertex_mask(3, [HUGE]),
    "max_degree_vertex-mask": lambda: max_degree_vertex(path(3), HUGE),
    "gnp_random-n": lambda: gnp_random(-HUGE, 0.5, 1),
    "bipartite_random-n": lambda: bipartite_random(-HUGE, 2, 0.5, 1),
    "first_connected-seed": lambda: first_connected(gnp_random, (4, 0.0), HUGE, 0),
    "first_connected-reseeds": lambda: first_connected(gnp_random, (4, 0.0), 1, -HUGE),
    "solve-time_limit": lambda: solve(path(3), time_limit=-HUGE),
    "solve-algorithm": lambda: solve(path(3), HUGE),
    "below-count": lambda: Xoshiro256(1).below(-HUGE, 0.5),
    "below-p": lambda: Xoshiro256(1).below(3, HUGE),
    "Xoshiro256-seed": lambda: Xoshiro256(Fraction(HUGE, 3)),
}


@pytest.mark.parametrize("call", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS.keys())
def test_huge_int_in_a_refusal_is_input_error(call):
    # the refusal names the int by its digit count, or the value holding
    # it by its type, in place of a repr that raises ValueError
    with pytest.raises(InputError, match=r"int of 5001 digits|(Fraction|tuple) with no repr"):
        call()


# a type refusal names the value's type, not the value
TYPE_REFUSALS = {
    "first_connected-params": lambda: first_connected(gnp_random, HUGE, 1),
    "solve-warm_start": lambda: solve(path(3), warm_start=HUGE),
    "write_lp-model": lambda: write_lp("x" * 10**6),
}


@pytest.mark.parametrize("call", TYPE_REFUSALS.values(), ids=TYPE_REFUSALS.keys())
def test_type_refusal_names_the_type(call):
    with pytest.raises(InputError, match=r"^\w+ must be a \w+, got (int|str)$"):
        call()


@pytest.mark.parametrize(
    "value,text",
    [(5, "5"), (-3, "-3"), ("a", "'a'"), (1.5, "1.5"), (HUGE - 1, "an int of 5000 digits"),
     (-HUGE, "a negative int of 5001 digits"), (2**20000, "an int of 6021 digits")],
    ids=["int", "negative", "str", "float", "5000-digits", "negative-5001-digits", "2**20000"],
)
def test_shown_is_repr_unless_an_int_is_too_long(value, text):
    assert shown(value) == text


def test_empty_graph_stays_valid_where_it_was():
    g = Graph(0)
    assert check_cvc(g, []).valid
    assert write_dimacs(g) == "p edge 0 0\n"
    assert articulation_points(g) == frozenset()
    assert is_bipartite(g) == (frozenset(), frozenset())
    with pytest.raises(InputError, match="undefined for the empty graph"):
        is_connected(g)
    with pytest.raises(InputError, match="at least one edge"):
        default_roots(g)


class _Index:
    """An int stand-in through `__index__` only, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _all_ints(pairs):
    return all(type(u) is int and type(v) is int for u, v in pairs)


@pytest.mark.parametrize("one", [True, _Index(1)], ids=["bool", "index"])
def test_index_vertex_argument_is_used_as_int(one):
    g = path(4)
    for r, r1 in [(one, 2), (one, None), (None, one)]:
        plain = (1 if r is one else r, 1 if r1 is one else r1)
        # the LP text carries the roots, as "roots: r=1 r1=2"
        assert write_lp(build_parb(g, r, r1)) == write_lp(build_parb(g, *plain))
    assert witness_parb(g, {1, 2}, one, 2) == witness_parb(g, {1, 2}, 1, 2)
    for r1 in (2, None):
        arcs = arborescence_arcs(g, one, r1)
        assert arcs == arborescence_arcs(g, 1, r1) and _all_ints(arcs)
    assert write_lp(build_qr(g, one)) == write_lp(build_qr(g, 1))
    assert count_qr_feasible(g, one) == count_qr_feasible(g, 1) == 1


@pytest.mark.parametrize("one", [True, _Index(1)], ids=["bool", "index"])
def test_index_edge_endpoint_is_stored_as_int(one):
    g = Graph(3, [(one, 2), (0, one)])
    assert g.edges == ((0, 1), (1, 2)) and _all_ints(g.edges)
    # pstp names its variables after the stored endpoints
    text = write_lp(build_pstp(g))
    assert "x_1" in text and text == write_lp(build_pstp(path(3)))


class TestArborescenceArcs:
    def test_two_root_orientation(self):
        g = path(4)  # default roots are the two middle vertices
        assert default_roots(g) == (1, 2)
        arcs = arborescence_arcs(g, 1, 2)
        assert arcs == [(1, 0), (1, 2), (2, 3)]
        # arc count identity: 2m - deg(r) - deg(r1) + 1
        assert len(arcs) == 2 * g.m - g.degree(1) - g.degree(2) + 1

    def test_inner_edges_bidirected(self):
        arcs = arborescence_arcs(cycle(5), 0, 1)
        assert (2, 3) in arcs and (3, 2) in arcs
        assert (1, 0) not in arcs  # nothing enters the root
        assert [u for u, v in arcs if v == 1] == [0]  # r1 is entered from r only

    def test_arc_count_on_corpus(self, corpus60):
        for name, g in corpus60[:20]:
            r, r1 = default_roots(g)
            arcs = arborescence_arcs(g, r, r1)
            assert arcs == sorted(set(arcs)), name
            assert len(arcs) == 2 * g.m - g.degree(r) - g.degree(r1) + 1, name

    def test_invariant_validation(self):
        with pytest.raises(InputError, match="must be adjacent"):
            build_parb(path(4), 0, 2)
        with pytest.raises(InputError, match="requires a connected graph"):
            build_parb(Graph(4, [(0, 1), (2, 3)]), 0, 1)
        with pytest.raises(InputError, match="needs n >= 2"):
            build_parb(Graph(1), 0, 0)
        for call in (build_parb, build_qr, arborescence_arcs, count_qr_feasible):
            with pytest.raises(InputError, match="needs a Graph"):
                call([(0, 1)], 0)

    def test_single_root(self):
        assert arborescence_arcs(path(3), 1) == [(1, 0), (1, 2)]
        assert len(arborescence_arcs(cycle(4), 0)) == 2 * 4 - 2

    def test_default_roots_tiebreak(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])  # degrees 2,3,2,1
        assert default_roots(g) == (1, 0)  # highest-degree neighbor, low index
        # build_qr roots at the first default root unless given one
        assert write_lp(build_qr(g)) == write_lp(build_qr(g, default_roots(g)[0]))
        with pytest.raises(InputError, match="at least one edge"):
            build_qr(Graph(2))


class TestMipModel:
    def test_name_and_reference_checks(self):
        model = MipModel()
        model.add_variable("x_0", "binary")
        with pytest.raises(InputError):
            model.add_variable("x_0", "binary")
        with pytest.raises(InputError):
            model.add_variable("w", "affine")
        with pytest.raises(InputError, match="constraint 'row' references undeclared variable 'nope'"):
            model.add_constraint("row", ((1, "nope"),), "<=", 1)
        with pytest.raises(InputError, match="objective references undeclared variable 'nope'"):
            model.set_objective(((1, "nope"),))
        model.add_constraint("row", ((1, "x_0"),), "<=", 1)
        with pytest.raises(InputError):
            model.add_constraint("row", ((1, "x_0"),), ">=", 0)
        with pytest.raises(InputError):
            model.add_constraint("row2", ((1, "x_0"),), "<<", 0)
        # numbers and bounds that would write broken LP text
        bad_rows = [
            [((math.nan, "x_0"),), 1], [((math.inf, "x_0"),), 1], [(("2", "x_0"),), 1],
            [((1, "x_0"),), math.inf], [((1, "x_0"),), math.nan], [((1, "x_0"),), "1"],
        ]
        for terms, rhs in bad_rows:
            with pytest.raises(InputError, match="not a finite real"):
                model.add_constraint("row3", terms, "<=", rhs)
        with pytest.raises(InputError, match="not a finite real"):
            model.set_objective(((math.nan, "x_0"),))
        for lb, ub in [
            (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), ("0", 1.0),
            (math.inf, math.inf), (-math.inf, -math.inf),
        ]:
            with pytest.raises(InputError, match="variable 't' needs real bounds"):
                model.add_variable("t", "continuous", lb, ub)
        # names that LP text cannot carry as one token
        for name in ["", "a b", "a\tb", "a:b", "1a", ".a", "+a", "-a", 5, None]:
            with pytest.raises(InputError, match="is not an LP name"):
                model.add_variable(name, "binary")
            with pytest.raises(InputError, match="is not an LP name"):
                model.add_constraint(name, ((1, "x_0"),), "<=", 1)
        # terms that are not (coef, varname) pairs
        for terms in ([1], [(1,)], [(1, "x_0", 2)], 5):
            with pytest.raises(InputError, match=r"constraint 'row4' needs \(coef, varname\) terms"):
                model.add_constraint("row4", terms, "<=", 0)
            with pytest.raises(InputError, match=r"objective needs \(coef, varname\) terms"):
                model.set_objective(terms)
        with pytest.raises(InputError, match=r"references undeclared variable \['a'\]"):
            model.add_constraint("row4", [(1, ["a"])], "<=", 0)
        # the refusals left the model as it was
        assert len(model.variables) == len(model.constraints) == 1
        model.add_variable("t", "continuous", -math.inf, math.inf)
        model.add_constraint("row3", ((0.5, "x_0"), (-2, "t")), ">=", -1.5)
        assert write_lp(model).endswith(
            " row: x_0 <= 1\n row3: 0.5 x_0 - 2 t >= -1.5\n"
            "Bounds\n -inf <= t <= inf\nBinaries\n x_0\nEnd\n"
        )

    # a number too large for a float is refused as it is added, not met
    # as an OverflowError by write_lp, to_arrays or check_integer_point
    @pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative", "fraction"])
    def test_bound_too_large_for_a_float_is_refused(self, huge):
        model = MipModel()
        with pytest.raises(InputError, match="variable 't' needs real bounds"):
            model.add_variable("t", "continuous", huge, huge)
        with pytest.raises(InputError, match="variable 't' needs real bounds"):
            model.add_variable("t", "continuous", -math.inf, huge)
        model.add_variable("t", "continuous", -math.inf, 10**300)
        assert model.to_arrays()["col_ub"] == [1e300]
        write_lp(model)

    def test_right_hand_side_too_large_for_a_float_is_refused(self):
        model = MipModel()
        model.add_variable("a", "continuous", 0, 1)
        with pytest.raises(InputError, match="constraint 'r' has right-hand side 1000"):
            model.add_constraint("r", [(1, "a")], "<=", 10**400)
        assert not model.constraints
        model.to_arrays()
        write_lp(model)

    def test_coefficient_too_large_for_a_float_is_refused(self):
        model = MipModel()
        model.add_variable("a", "continuous", 0, 1)
        with pytest.raises(InputError, match="constraint 'r' has coefficient 1000"):
            model.add_constraint("r", [(10**400, "a")], "<=", 1)
        with pytest.raises(InputError, match="objective has coefficient 1000"):
            model.set_objective([(10**400, "a")])
        assert not model.constraints and not model.objective
        model.to_arrays()
        write_lp(model)

    def test_metadata_must_map_strs_to_strs(self):
        # refused as the model is made, not when write_lp formats it
        with pytest.raises(InputError, match="^metadata must map strs to strs, got 1: 2$"):
            MipModel({1: 2})
        with pytest.raises(InputError, match="^metadata must map strs to strs, got 'a': an int of 5001 digits$"):
            MipModel({"a": HUGE})
        with pytest.raises(InputError, match="^metadata must map strs to strs, got an int of 5001 digits: 'a'$"):
            MipModel({HUGE: "a"})
        with pytest.raises(InputError, match="^metadata must map strs to strs, got 'b': None$"):
            MipModel({"a": "x", "b": None})
        assert MipModel({"a": "x"}).metadata == {"a": "x"}
        assert MipModel().metadata == {}

    def test_metadata_line_breaks_are_refused(self):
        for metadata in ({"note": "a\nEnd"}, {"note": "a\rb"}, {"a\nb": "c"}):
            model = MipModel(metadata)
            model.add_variable("x_0", "binary")
            with pytest.raises(InputError, match="holds a line break"):
                write_lp(model)
        model = MipModel({"note": "one line"})
        model.add_variable("x_0", "binary")
        assert write_lp(model).startswith("\\ note: one line\nMinimize\n")

    def test_views_are_read_only(self):
        model = build_parb(path(4))
        with pytest.raises(AttributeError):
            model.constraints = []
        with pytest.raises(TypeError):
            model.constraints[0] = model.constraints[1]
        with pytest.raises(TypeError):
            del model.variables[0]
        rows = model.constraints
        assert rows[-1] == rows[len(rows) - 1] and rows[-2:] == list(rows)[-2:]
        with pytest.raises(IndexError):
            rows[len(rows)]

    def test_to_arrays(self):
        model = MipModel()
        model.add_variable("a", "binary")
        model.add_variable("t", "continuous", -1, 2.5)
        model.set_objective(((1, "a"), (2, "t"), (Fraction(1, 2), "a")))
        model.add_constraint("le", ((2, "a"), (-1, "t")), "<=", 1)
        model.add_constraint("eq", (), "=", 0)
        model.add_constraint("ge", ((1, "t"), (3, "t")), ">=", Fraction(-1, 4))
        assert model.to_arrays() == {
            "c": [1.5, 2.0],
            "indptr": [0, 2, 2, 4],
            "indices": [0, 1, 1, 1],
            "data": [2.0, -1.0, 1.0, 3.0],
            "row_lo": [-math.inf, 0.0, -0.25],
            "row_hi": [1.0, 0.0, math.inf],
            "col_lb": [0.0, -1.0],
            "col_ub": [1.0, 2.5],
            "integrality": [1, 0],
        }


class TestFootprint:
    """Memory guards on build_parb of a connected G(500, 0.02): 5,926
    columns, 17,759 rows and 55,220 nonzeros."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_parb(connected_gnp(500, 0.02, 104))

    def test_one_int_object_per_column(self, model):
        arrays = model.to_arrays()
        assert len(set(map(id, arrays["indices"]))) <= len(arrays["c"])

    def test_write_lp_peak_is_below_four_texts(self, model):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = write_lp(model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * len(text)


class TestBuildParb:
    def test_p4_rows_in_order(self):
        model = build_parb(path(4))
        assert [v.name for v in model.variables] == [
            "x_0", "x_1", "x_2", "x_3",
            "z_1_0", "z_1_2", "z_2_3",
            "d_0", "d_1", "d_2", "d_3",
        ]
        assert [c.name for c in model.constraints] == [
            "cover_0_1", "cover_1_2", "cover_2_3",
            "indeg_0", "indeg_3",
            "mtz_1_0", "mtz_1_2", "mtz_2_3",
            "root", "card",
            "lnka_1_0", "lnkb_1_0", "lnka_1_2", "lnkb_1_2", "lnka_2_3", "lnkb_2_3",
        ]
        assert model.metadata == {"formulation": "arborescence", "roots": "r=1 r1=2"}
        mtz = model.constraints[5]
        assert mtz.terms == ((1, "d_0"), (-4, "z_1_0"), (-1, "d_1"), (-1, "x_0"))
        assert mtz.sense == ">=" and mtz.rhs == -4
        card = model.constraints[9]
        assert card.rhs == -1 and len(card.terms) == 3 + 4

    def test_row_count_identity(self, corpus60):
        for name, g in corpus60[:15]:
            r, r1 = default_roots(g)
            model = build_parb(g, r, r1)
            arcs = 2 * g.m - g.degree(r) - g.degree(r1) + 1
            assert len(model.constraints) == g.m + (g.n - 2) + 3 * arcs + 2, name
            assert len(model.variables) == 2 * g.n + arcs, name

    def test_depth_bounds(self):
        model = build_parb(cycle(5))
        for var in model.variables:
            if var.name.startswith("d_"):
                assert (var.lb, var.ub) == (0.0, 4.0)


def _depths(point, n):
    return tuple(point[f"d_{v}"] for v in range(n))


class TestWitness:
    def test_path_witness_by_hand(self):
        g = path(4)
        w = witness_parb(g, {1, 2}, 1, 2)
        assert w == {
            "x_0": 0, "x_1": 1, "x_2": 1, "x_3": 0,
            "z_1_0": 0, "z_1_2": 1, "z_2_3": 0,
            "d_0": 0, "d_1": 0, "d_2": 1, "d_3": 0,
        }

    def test_single_root_sides(self):
        g = cycle(5)  # roots 0, 1
        # cover holding r=0 but not r1=1: tree must hang off r alone
        w = witness_parb(g, {0, 2, 3, 4}, 0, 1)
        assert w["z_0_4"] == 1 and w["z_0_1"] == 0
        assert _depths(w, 5) == (0, 0, 3, 2, 1)
        # cover holding r1=1 but not r=0
        w = witness_parb(g, {1, 2, 3, 4}, 0, 1)
        assert w["z_1_2"] == 1 and w["z_0_1"] == 0
        assert _depths(w, 5) == (0, 0, 1, 2, 3)

    def test_roundtrip_on_corpus_optima(self, corpus60):
        for name, g in corpus60[:25]:
            cover, _ = brute_force_cvc(g)
            r, r1 = default_roots(g)
            w = witness_parb(g, cover, r, r1)
            assert check_integer_point(build_parb(g, r, r1), w), name
            assert {v for v in range(g.n) if w[f"x_{v}"]} == cover, name

    def test_rejects_invalid_cover(self):
        with pytest.raises(InputError):
            witness_parb(path(4), {0, 3}, 1, 2)


class TestCheckIntegerPoint:
    def _model(self):
        model = MipModel()
        model.add_variable("a", "binary")
        model.add_variable("t", "continuous", 0.0, 2.0)
        model.add_constraint("row", ((2, "a"), (-1, "t")), "<=", 1)
        return model

    def test_senses_and_tolerance(self):
        model = self._model()
        assert check_integer_point(model, {"a": 1, "t": 1})
        assert not check_integer_point(model, {"a": 1, "t": 0.5})
        # violations within tol pass, beyond tol fail
        assert check_integer_point(model, {"a": 1, "t": 1 - 1e-9})
        assert not check_integer_point(model, {"a": 1, "t": 1 - 1e-3})

    def test_binary_integrality_and_bounds(self):
        model = self._model()
        assert not check_integer_point(model, {"a": 0.5, "t": 0})
        assert not check_integer_point(model, {"a": 0, "t": 3})
        assert check_integer_point(model, {"a": 1e-9, "t": 0})

    def test_missing_variable_raises(self):
        with pytest.raises(InputError):
            check_integer_point(self._model(), {"a": 1})

    def test_value_that_is_no_number_raises(self):
        # "a" is read by the row sums, "u" (in no row) only by its bounds
        model = self._model()
        model.add_variable("u", "binary")
        with pytest.raises(InputError, match="variable 'a' has value '1'"):
            check_integer_point(model, {"a": "1", "t": 1, "u": 0})
        with pytest.raises(InputError, match="variable 'u' has value None"):
            check_integer_point(model, {"a": 1, "t": 1, "u": None})

    @pytest.mark.parametrize(
        "point",
        [{"a": 1, "t": 0, "u": "x"}, {"a": 0, "t": 0, "u": Decimal(1)}],
        ids=["after-a-failing-row", "decimal"],
    )
    def test_non_real_value_raises_wherever_it_sits(self, point):
        # the row fails at a = 1, t = 0 before u is read, and a Decimal
        # compares with the float bounds without a TypeError
        model = self._model()
        model.add_variable("u", "binary")
        with pytest.raises(InputError, match=re.escape(f"variable 'u' has value {point['u']!r}")):
            check_integer_point(model, point)

    @pytest.mark.parametrize("var", ["a", "t", "u"])
    def test_value_too_large_for_a_float_raises(self, var):
        # "a" sits in a row with coefficient 1.5, "t" in one with -1, "u"
        # in none
        model = MipModel()
        for name in "atu":
            model.add_variable(name, "continuous", 0.0, 2.0)
        model.add_constraint("row", ((1.5, "a"), (-1, "t")), "<=", 1)
        point = dict.fromkeys("atu", 0) | {var: 10**400}
        with pytest.raises(InputError, match=f"variable '{var}' has value 1000"):
            check_integer_point(model, point)

    def test_tolerance_is_fixed(self):
        # a tol argument once let tol=-1 turn a valid witness False
        g = path(4)
        model, point = build_parb(g, 1, 2), witness_parb(g, {1, 2}, 1, 2)
        assert check_integer_point(model, point)
        with pytest.raises(TypeError):
            check_integer_point(model, point, tol=-1)

    def test_extra_keys_ignored(self):
        assert check_integer_point(self._model(), {"a": 0, "t": 0, "junk": 9})


def test_models_on_every_connected_graph_up_to_5(upto5):
    # conftest.upto5; one vertex has no root pair and no spanning-tree row
    for g in upto5[1:]:
        assert find_parb_mismatch(g) is None, g.edges
        assert find_pstp_mismatch(g) is None, g.edges
        assert count_qr_feasible(g, 0) == spanning_tree_count(g), g.edges


class TestExhaustiveParb:
    def test_families(self):
        for g in (path(5), cycle(6), complete(5), Graph(5, [(0, i) for i in range(1, 5)])):
            assert find_parb_mismatch(g) is None

    def test_random_graphs_random_roots(self):
        for seed in range(12):
            g = connected_gnp(2 + seed % 6, 0.5, 40 + seed)
            assert find_parb_mismatch(g) is None, f"seed {seed}"
            edges = g.edges
            r, r1 = edges[seed % len(edges)]
            assert find_parb_mismatch(g, r, r1) is None, f"seed {seed} roots {(r, r1)}"
            assert find_parb_mismatch(g, r1, r) is None, f"seed {seed} swapped"

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            find_parb_mismatch(connected_gnp(11, 0.4, 1))

    def test_judges_the_built_model(self, monkeypatch):
        def tightened(g, r=None, r1=None):
            model = build_parb(g, r, r1)
            model.add_constraint("extra", ((1, "x_0"),), "<=", 0)
            return model

        monkeypatch.setattr("cvckit.mip.build_parb", tightened)
        # {0, 1, 2, 3} is the first connected vertex cover of C5 by bitmask
        assert find_parb_mismatch(cycle(5)) == frozenset({0, 1, 2, 3})

    def test_judges_connectivity_rows(self, monkeypatch):
        def unconnected(g, r=None, r1=None):
            model = build_parb(g, r, r1)
            return _rebuilt(model, [
                row for row in model.constraints
                if not row.name.startswith("indeg_") and row.name != "card"
            ])

        monkeypatch.setattr("cvckit.mip.build_parb", unconnected)
        # {1, 3} is the first disconnected cover of P5 by bitmask
        assert find_parb_mismatch(path(5)) == frozenset({1, 3})


def _rebuilt(model, rows):
    """A copy of model with `rows` as its constraints, made through the
    public API: the variables, objective and metadata, then each row
    added again."""
    copy = MipModel(model.metadata)
    for var in model.variables:
        copy.add_variable(*var)
    copy.set_objective(model.objective)
    for row in rows:
        copy.add_constraint(*row)
    return copy


def _without_depth_rows(model):
    return _rebuilt(model, [row for row in model.constraints if not row.name.startswith("mtz_")])


class TestDepthRows:
    """The depth rows are what rejects a directed cycle: both verifiers
    rely on it (the forest point is acyclic, and count_qr_feasible prunes
    cyclic partial picks by hand), so it is checked here on one point."""

    CYCLE = {"z_0_1": 1, "z_2_3": 1, "z_3_2": 1}

    def _check(self, build, base):
        model = build()
        zero = {v.name: 0 for v in model.variables if v.name.startswith("z_")}
        point = {**base, **zero, **self.CYCLE}
        for depths in itertools.product(range(4), repeat=4):
            d = {f"d_{v}": depths[v] for v in range(4)}
            assert not check_integer_point(model, {**point, **d}), depths
        # every other row holds, so only the depth rows reject it
        d0 = {f"d_{v}": 0 for v in range(4)}
        assert check_integer_point(_without_depth_rows(build()), {**point, **d0})

    def test_parb_rejects_a_cycle(self):
        self._check(lambda: build_parb(complete(4), 0, 1), {f"x_{v}": 1 for v in range(4)})

    def test_qr_rejects_a_cycle(self):
        self._check(lambda: build_qr(complete(4), 0), {})


class TestBuildQr:
    def test_row_structure(self):
        model = build_qr(path(3), 0)
        names = [c.name for c in model.constraints]
        assert names == ["indeg_1", "indeg_2", "mtz_0_1", "mtz_1_2", "mtz_2_1", "root", "card"]
        assert model.objective == ()
        card = model.constraints[-1]
        assert card.rhs == 2

    def test_count_matches_matrix_tree(self):
        cases = [path(5), cycle(6), complete(4), petersen_free_small()]
        for g in cases:
            for r in range(min(g.n, 3)):
                assert count_qr_feasible(g, r) == spanning_tree_count(g), (g, r)

    def test_count_on_random_graphs(self):
        done = 0
        for seed in range(30):
            g = gnp_random(3 + seed % 5, 0.5, 60 + seed)
            if spanning_tree_count(g) == 0:
                continue  # disconnected: the count must then be zero too
            done += 1
            assert count_qr_feasible(g, 0) == spanning_tree_count(g), seed
        assert done >= 15

    def test_disconnected_counts_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert count_qr_feasible(g, 0) == 0
        assert spanning_tree_count(g) == 0

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            count_qr_feasible(complete(11), 0)

    def test_judges_the_built_model(self, monkeypatch):
        def tightened(g, r):
            model = build_qr(g, r)
            model.add_constraint("extra", ((1, "z_0_1"),), "=", 0)
            return model

        monkeypatch.setattr("cvckit.mip.build_qr", tightened)
        # of the four spanning trees of C4, only the one without edge 0-1
        # leaves arc (0, 1) unpicked
        g = cycle(4)
        assert count_qr_feasible(g, 0) == 1 < spanning_tree_count(g)


def petersen_free_small():
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


class TestBuildPstp:
    def test_tree_has_no_subset_rows(self):
        model = build_pstp(path(4))
        assert not any(c.name.startswith("sub_") for c in model.constraints)

    def test_cycle_has_exactly_one(self):
        model = build_pstp(cycle(4))
        subs = [c for c in model.constraints if c.name.startswith("sub_")]
        assert [c.name for c in subs] == ["sub_0_1_2_3"]
        assert subs[0].sense == "<=" and subs[0].rhs == 3
        assert len(subs[0].terms) == 4

    def test_triangle_row(self):
        model = build_pstp(complete(3))
        subs = [c.name for c in model.constraints if c.name.startswith("sub_")]
        assert subs == ["sub_0_1_2"]

    def test_emission_rule_matches_edge_count(self):
        g = connected_gnp(6, 0.5, 12)
        model = build_pstp(g)
        names = {c.name for c in model.constraints}
        for mask in range(1, 1 << 6):
            members = [v for v in range(6) if mask >> v & 1]
            induced = sum(
                1 for u, v in g.edges if mask >> u & 1 and mask >> v & 1
            )
            name = "sub_" + "_".join(map(str, members))
            assert (name in names) == (induced >= len(members)), name

    def test_exhaustive_families(self):
        for g in (path(4), cycle(5), complete(4), connected_gnp(7, 0.45, 3)):
            assert find_pstp_mismatch(g) is None

    def test_caps_and_domain(self):
        with pytest.raises(SizeCapError):
            build_pstp(Graph(16))
        with pytest.raises(SizeCapError):
            find_pstp_mismatch(connected_gnp(9, 0.5, 2))
        with pytest.raises(InputError):
            find_pstp_mismatch(Graph(4, [(0, 1), (2, 3)]))

    def test_judges_the_built_model(self, monkeypatch):
        def without_first_cover_row(g):
            model = build_pstp(g)
            assert model.constraints[0].name == "cover_0_1"
            return _rebuilt(model, model.constraints[1:])

        monkeypatch.setattr("cvckit.mip.build_pstp", without_first_cover_row)
        # {2} covers every edge of P4 but 0-1
        assert find_pstp_mismatch(path(4)) == frozenset({2})

    def test_total_row_is_an_equation(self, monkeypatch):
        def loosened(g):
            model = build_pstp(g)
            return _rebuilt(model, [
                row._replace(sense="<=") if row.name == "total" else row
                for row in model.constraints
            ])

        monkeypatch.setattr("cvckit.mip.build_pstp", loosened)
        # {0, 2} is the first disconnected cover of P4 by bitmask
        assert find_pstp_mismatch(path(4)) == frozenset({0, 2})

    def test_missing_forest_row_is_a_mismatch(self, monkeypatch):
        def without_triangle_row(g):
            model = build_pstp(g)
            return _rebuilt(model, [row for row in model.constraints if row.name != "sub_0_1_2"])

        monkeypatch.setattr("cvckit.mip.build_pstp", without_triangle_row)
        # a triangle with a pendant path 2-3-4: the cover {0, 1, 2, 4} is
        # disconnected only because the triangle's row caps its y at 2
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert find_pstp_mismatch(g) == frozenset({0, 1, 2, 4})

    def test_linking_rows_keep_y_inside_the_cover(self):
        # the forest point never puts y off G[C], so no exhaustive check
        # sees these rows: C = {0, 2} covers P3, and either edge alone
        # meets the total row but touches vertex 1, outside C
        model = build_pstp(path(3))
        x = {"x_0": 1, "x_1": 0, "x_2": 1}
        assert not check_integer_point(model, {**x, "y_0_1": 0, "y_1_2": 1})
        assert not check_integer_point(model, {**x, "y_0_1": 1, "y_1_2": 0})

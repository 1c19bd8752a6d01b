"""Boundary fuzzer: odd values in every argument of the public surface.

Library: every callable cvckit exports, plus MipModel with add_variable,
add_constraint and set_objective, plus Xoshiro256 with below, is called
with valid arguments, one of them replaced by a value from ODD; the drawn
test replaces any subset, by ODD values or drawn ones.  Each call must
return or raise InputError, within CAP seconds, and an argument that
takes a Graph, a MipModel, a str or a mapping must refuse any other type.

CLI: each cli.main subcommand runs with one option's value, or one field
of a comma-separated spec, replaced by an odd string, in a scratch
working directory.  Its exit code must be one the CLI documents: 0, 2,
3, 4 or 5.

Left out on purpose:
- valid counts above 10**4 where the count is the work asked for: they
  legitimately run for hours.  Xoshiro256(1).below(2**70, 0.5) and
  `cvckit bench --repeats 99999999999999999999999` both outlast the cap.
- objects whose own __index__ raises: their exception passes through by
  design, as a generator's own TypeError does in first_connected.
"""

import itertools
import math
import signal
from collections.abc import Mapping
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvckit
from cvckit import cli
from cvckit.errors import InputError
from cvckit.mip import MipModel
from cvckit.rng import Xoshiro256

CAP = 2.0
COUNT_LIMIT = 10**4


class Overran(Exception):
    pass


@contextmanager
def capped():
    """Raise Overran in the block once CAP seconds of wall time pass."""

    def alarm(signum, frame):
        raise Overran(f"still running after {CAP} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, CAP)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Index:
    """An int stand-in known only through __index__."""

    def __index__(self):
        return 2


P4 = cvckit.Graph(4, [(0, 1), (1, 2), (2, 3)])
ODD = (
    None, True, False, -1, -0.5, -2**70,
    2**70, math.nan, math.inf, -math.inf, -0.0,
    "x", b"x", [], (), {}, {"x": 1}, [(0, 1)], frozenset({1}),
    Fraction(1, 3), Decimal("NaN"), 1j, Index(),
    cvckit.Graph(0), cvckit.Graph(1), cvckit.Graph(4, [(0, 1), (2, 3)]),
)


def model():
    """A model with binaries x and y and one row."""
    m = MipModel({"name": "fuzz"})
    m.add_variable("x", "binary")
    m.add_variable("y", "binary")
    m.add_constraint("xy", [(1, "x"), (1, "y")], ">=", 1)
    return m


def solve(g, algorithm, time_limit, warm_start):
    """cvckit.solve with its keyword arguments taken by position."""
    return cvckit.solve(g, algorithm, time_limit=time_limit, warm_start=warm_start)


# label -> (callable, valid arguments); a method is called on a fresh
# object, as some change it
CALLS = {
    "Graph": (cvckit.Graph, (4, [(0, 1), (1, 2)])),
    "SolveReport": (cvckit.SolveReport, (frozenset(), 0, 1, 0.0, "optimal", 1)),
    "arborescence_arcs": (cvckit.arborescence_arcs, (P4, 1, 2)),
    "articulation_points": (cvckit.articulation_points, (P4,)),
    "bipartite_random": (cvckit.bipartite_random, (3, 3, 0.5, 1)),
    "brute_force_cvc": (cvckit.brute_force_cvc, (P4,)),
    "brute_force_vc": (cvckit.brute_force_vc, (P4,)),
    "build_parb": (cvckit.build_parb, (P4, 1, 2)),
    "build_pstp": (cvckit.build_pstp, (P4,)),
    "build_qr": (cvckit.build_qr, (P4, 1)),
    "check_cvc": (cvckit.check_cvc, (P4, [1, 2])),
    "check_integer_point": (cvckit.check_integer_point, (model(), {"x": 1, "y": 0})),
    "count_qr_feasible": (cvckit.count_qr_feasible, (P4, 1)),
    "default_roots": (cvckit.default_roots, (P4,)),
    "first_connected": (cvckit.first_connected, (cvckit.gnp_random, (5, 0.5), 1, 10)),
    "gnp_random": (cvckit.gnp_random, (5, 0.5, 1)),
    "greedy_cvc_2approx": (cvckit.greedy_cvc_2approx, (P4,)),
    "is_connected": (cvckit.is_connected, (P4,)),
    "max_feasible_stable": (cvckit.max_feasible_stable, (P4, [0], [3])),
    "parse_dimacs": (cvckit.parse_dimacs, ("p edge 2 1\ne 1 2\n",)),
    "solve": (solve, (P4, "rds", 10.0, False)),
    "spanning_tree_count": (cvckit.spanning_tree_count, (P4,)),
    "witness_parb": (cvckit.witness_parb, (P4, [1, 2], 1, 2)),
    "write_dimacs": (cvckit.write_dimacs, (P4,)),
    "write_lp": (cvckit.write_lp, (model(),)),
    "MipModel": (MipModel, ({"name": "fuzz"},)),
    "MipModel.add_variable": (lambda *a: model().add_variable(*a), ("z", "continuous", 0.0, 2.5)),
    "MipModel.add_constraint": (lambda *a: model().add_constraint(*a),
                                ("row", [(2, "x"), (-1, "y")], "<=", 1)),
    "MipModel.set_objective": (lambda *a: model().set_objective(*a), ([(1, "x"), (1, "y")],)),
    "Xoshiro256": (Xoshiro256, (7,)),
    "Xoshiro256.below": (lambda *a: Xoshiro256(7).below(*a), (50, 0.5)),
}
# (label, argument index) pairs whose int is a count of the work asked for
COUNTS = {("Xoshiro256.below", 0)}
# an argument whose valid value is one of these types refuses a value of
# any other type, but in the UNTYPED pairs: SolveReport is a plain record,
# and MipModel takes None for no metadata
TYPED = (cvckit.Graph, MipModel, str, Mapping)
UNTYPED = {("SolveReport", 4), ("MipModel", 0)}


def test_calls_cover_every_exported_callable():
    exported = {name for name, obj in vars(cvckit).items()
                if callable(obj) and not name.startswith("_")
                and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    assert exported <= set(CALLS)


def call(label, replace):
    """Run CALLS[label] with the arguments at the indices of `replace`
    swapped for its values; return its result or the InputError it
    raised."""
    function, args = CALLS[label]
    args = [replace.get(i, arg) for i, arg in enumerate(args)]
    with capped():
        try:
            return function(*args)
        except InputError as exc:
            return exc


def allowed(label, i, value):
    return not ((label, i) in COUNTS and isinstance(value, int) and value > COUNT_LIMIT)


@pytest.mark.parametrize("label", CALLS)
def test_one_odd_argument(label):
    args = CALLS[label][1]
    assert not isinstance(call(label, {}), InputError)  # the valid call
    for i, value in itertools.product(range(len(args)), ODD):
        if allowed(label, i, value):
            out = call(label, {i: value})
            kind = next((t for t in TYPED if isinstance(args[i], t)), None)
            if kind and (label, i) not in UNTYPED and not isinstance(value, kind):
                assert isinstance(out, InputError), (label, i, value)


VALUES = st.one_of(
    st.sampled_from(ODD),
    st.integers(-COUNT_LIMIT, COUNT_LIMIT),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.integers(-3, 8), max_size=4),
    st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_drawn_arguments(data):
    # any subset of the arguments replaced at once
    label = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    replace = {}
    for i in range(len(CALLS[label][1])):
        if data.draw(st.booleans(), label=f"replace {i}"):
            value = data.draw(VALUES, label=f"argument {i}")
            if allowed(label, i, value):
                replace[i] = value
    call(label, replace)


ODD_TEXT = ("", "-1", "0", "nan", "inf", "-inf", "1e309", "0.5", "2.5", "x", "1,2",
            "99999999999999999999999", "/", ".", "é", "-", "a\x00b")
GRAPH = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
# subcommand -> its argv, values after their options; options whose value
# is a count of the work asked for take no value above COUNT_LIMIT
COMMANDS = {
    "gen gnp": ["gen", "gnp", "--n", "6", "--p", "0.5", "--seed", "1", "--count", "2",
                "--connected", "--max-reseeds", "20", "--out", "out"],
    "gen bipartite": ["gen", "bipartite", "--n1", "3", "--n2", "3", "--p", "0.5", "--seed", "1",
                      "--count", "2", "--max-reseeds", "20", "--out", "out"],
    "solve": ["solve", "g.col", "--algorithm", "rds", "--time-limit", "5", "--no-warm-start"],
    "emit": ["emit", "g.col", "--model", "parb", "--root", "0", "--root2", "1", "-o", "m.lp"],
    "verify": ["verify", "g.col", "--model", "parb", "--root", "0", "--root2", "1",
               "--out", "bad"],
    "bench": ["bench", "g.col", "--gnp", "6,0.5,1", "--bipartite", "3,3,0.5,1",
              "--algorithm", "bb", "--repeats", "2", "--jobs", "1", "--time-limit", "5",
              "-o", "b.csv"],
}
CLI_COUNTS = {"--count", "--repeats"}


def odd_values(word):
    """ODD_TEXT, then, for a comma-separated spec, the spec with each
    field in turn replaced by each of them."""
    yield from ODD_TEXT
    fields = word.split(",")
    if len(fields) > 1:
        for j, text in itertools.product(range(len(fields)), ODD_TEXT):
            yield ",".join([*fields[:j], text, *fields[j + 1:]])


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_odd_option_values(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.col").write_text(GRAPH)
    argv = COMMANDS[command]
    with capped():
        assert cli.main(argv) == 0
    for i, word in enumerate(argv):
        if word.startswith("-") or i < len(command.split()):
            continue
        for text in odd_values(word):
            if argv[i - 1] in CLI_COUNTS and text.isdigit() and int(text) > COUNT_LIMIT:
                continue
            odd = [*argv[:i], text, *argv[i + 1:]]
            with capped():
                assert cli.main(odd) in (0, 2, 3, 4, 5), odd

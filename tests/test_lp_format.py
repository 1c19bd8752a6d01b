"""LP writer: golden bytes, dialect details, independent re-parse."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from cvckit.errors import InputError
from cvckit.graph import Graph
from cvckit.mip import (
    _BLOCK_LINES,
    MipModel,
    build_parb,
    build_pstp,
    build_qr,
    check_integer_point,
    write_lp,
)
from cvckit.rng import Xoshiro256
from tests.conftest import connected_gnp
from tests.lpcheck import parse_lp
from tests.test_graph import complete, cycle, path

GOLDEN = Path(__file__).parent / "golden"


def k33():
    return Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


# each golden file with the graph and the model builder that write it
GOLDENS = [
    ("parb_k2.lp", Graph(2, [(0, 1)]), build_parb),
    ("parb_p4.lp", path(4), build_parb),
    ("parb_k33.lp", k33(), build_parb),
    ("qr_c5_r0.lp", cycle(5), lambda g: build_qr(g, 0)),
    ("pstp_k4.lp", complete(4), build_pstp),
]


def large_parb():
    """build_parb of a connected G(200, 0.05): 7,171 rows, so its text
    spans more than one of the blocks write_lp joins."""
    return build_parb(connected_gnp(200, 0.05, 101))


# the golden files are all shorter than one block, so the text of
# large_parb() is pinned by its sha256
LARGE_PARB_SHA256 = "18d95b983a019a0303e36e2629ab701c55a140320463fe16b48f3aae25ef8b0b"


class TestGolden:
    @pytest.mark.parametrize(
        "fname,graph,build", GOLDENS, ids=[f"{f}-graph{i}" for i, (f, _, _) in enumerate(GOLDENS)]
    )
    def test_byte_equal(self, fname, graph, build):
        expected = (GOLDEN / fname).read_bytes()
        assert write_lp(build(graph)).encode("ascii") == expected

    def test_large_text_hash(self):
        text = write_lp(large_parb()).encode("ascii")
        assert hashlib.sha256(text).hexdigest() == LARGE_PARB_SHA256


class TestDialect:
    def test_sections_in_order(self):
        text = write_lp(build_parb(path(4)))
        lines = text.splitlines()
        assert lines[0] == "\\ formulation: arborescence"
        assert lines[1] == "\\ roots: r=1 r1=2"
        order = [lines.index(h) for h in ("Minimize", "Subject To", "Bounds", "Binaries", "End")]
        assert order == sorted(order)
        assert text.endswith("End\n")

    def test_eight_term_wrap(self):
        # the P_4 cardinality row has 7 terms plus sense and rhs: 9 tokens,
        # so exactly the rhs spills onto the indented continuation line
        text = write_lp(build_parb(path(4)))
        assert " card: z_1_0 + z_1_2 + z_2_3 - x_0 - x_1 - x_2 - x_3 =\n    -1\n" in text

    def test_binaries_ten_per_line(self):
        text = write_lp(build_parb(k33()))  # 6 x vars + 13 z vars
        section = text.split("Binaries\n")[1].split("End")[0].splitlines()
        assert len(section) == 2
        assert len(section[0].split()) == 10
        assert len(section[1].split()) == 9

    def test_bounds_only_for_continuous(self):
        parsed = parse_lp(write_lp(build_parb(cycle(5))))
        assert set(parsed.bounds) == {f"d_{v}" for v in range(5)}
        assert parsed.bounds["d_0"] == (0.0, 4.0)

    def test_unit_coefficients_are_bare(self):
        text = write_lp(build_parb(path(4)))
        assert "1 x_0" not in text  # never "1 x"; bare names instead
        assert "- 4 z_1_0" in text  # non-unit magnitudes keep the number

    def test_empty_objective_convention(self):
        text = write_lp(build_qr(path(3), 1))
        assert "\n obj: 0 z_1_0\n" in text

    def test_empty_row_convention(self):
        model = MipModel()
        model.add_variable("a", "binary")
        model.add_constraint("nothing", (), "=", 0)
        assert " nothing: 0 a = 0\n" in write_lp(model)

    def test_mixed_coefficient_types(self):
        # equal coefficients of different types (1.0, True, -1) share one
        # formatted prefix; zeros, fractions and big ints keep their text
        model = MipModel()
        for name in "abc":
            model.add_variable(name, "continuous", -2.5, 1.0)
        model.add_constraint(
            "r",
            [(0, "a"), (-0.0, "b"), (2.5, "c"), (1.0, "a"), (True, "b"), (-1, "c"),
             (Fraction(1, 4), "a"), (-(2**60), "b")],
            ">=",
            -0.5,
        )
        model.add_constraint("s", [(-0.0, "a"), (1.0, "b")], "<=", 2.0)
        assert write_lp(model) == (
            "Minimize\n obj: 0 a\nSubject To\n"
            " r: 0 a + 0 b + 2.5 c + a + b - c + 0.25 a - 1152921504606846976 b\n"
            "    >= -0.5\n"
            " s: 0 a + b <= 2\n"
            "Bounds\n -2.5 <= a <= 1\n -2.5 <= b <= 1\n -2.5 <= c <= 1\nEnd\n"
        )

    def test_two_term_runs_match_the_per_row_reference(self):
        # rows of two terms are written a block at a time, every other row
        # one at a time; the text is the same as row by row, and the
        # independent reader gets every row back
        model = _runs_model()
        text = write_lp(model)
        body = text.split("Subject To\n", 1)[1].split("\nBounds\n", 1)[0]
        assert body.split("\n") == _reference_rows(model)
        parsed = parse_lp(text)
        assert [row[0] for row in parsed.rows] == [row.name for row in model.constraints]
        for (name, terms, sense, rhs), row in zip(parsed.rows, model.constraints):
            assert (sense, rhs) == (row.sense, float(row.rhs)), name
            assert terms == ({var: float(c) for c, var in row.terms} or {"v0": 0.0}), name

    def test_no_variables_rejected(self):
        with pytest.raises(InputError):
            write_lp(MipModel())


def _reference_rows(model):
    """The Subject To lines of `model`, formatted one row at a time from
    its public view by the dialect rules alone."""

    def num(x):
        return str(int(x)) if float(x).is_integer() else repr(float(x))

    lines = []
    for name, terms, sense, rhs in model.constraints:
        tokens = [f"0 {model.variables[0].name}"] if not terms else []
        for coef, var in terms:
            body = "" if abs(coef) == 1 else f"{num(abs(coef))} "
            token = f"{'-' if coef < 0 else '+'} {body}{var}"
            tokens.append(token[2:] if not tokens and token[0] == "+" else token)
        if len(tokens) <= 6:
            lines.append(f" {name}: {' '.join(tokens)} {sense} {num(rhs)}")
            continue
        tokens += [sense, num(rhs)]
        for start in range(0, len(tokens), 8):
            lead = f" {name}: " if start == 0 else "    "
            lines.append(lead + " ".join(tokens[start : start + 8]))
    return lines


# the leading and second coefficients of the two-term rows, in turn: unit,
# negative leading, non-unit, -0.0 and exact types
TWO_TERM_COEFFICIENTS = [
    (1, 1), (-1, 1), (1, -1), (-1, -1), (2.5, -3), (-0.0, 1), (1.0, -0.0),
    (-2.5, 0.125), (Fraction(1, 4), -(2**60)), (True, -1.0), (0, 7), (-7, 0.0),
]


def _runs_model():
    """A hand-built model whose two-term rows come as one run of more than
    two blocks, then in short runs between empty, one-term and nine-term
    rows, and last as a run that ends the table."""
    model = MipModel(metadata={"purpose": "two-term runs"})
    for v in range(12):
        model.add_variable(f"v{v}", "continuous", -3, 3)
    count = 0

    def two(sense=">=", rhs=1):
        nonlocal count
        a, b = TWO_TERM_COEFFICIENTS[count % len(TWO_TERM_COEFFICIENTS)]
        model.add_constraint(f"t{count}", [(a, f"v{count % 12}"), (b, f"v{(count + 5) % 12}")], sense, rhs)
        count += 1

    model.add_constraint("lead", [(3, "v1")], "<=", 2)
    for _ in range(2 * _BLOCK_LINES + 7):
        two()
    for i in range(400):
        kind = i % 5
        if kind == 0:
            model.add_constraint(f"e{i}", (), "=", 0)
        elif kind == 1:
            model.add_constraint(f"o{i}", [(-1.5, f"v{i % 12}")], ">=", -1)
        elif kind == 2:
            model.add_constraint(f"n{i}", [((-1) ** k * (k + 1), f"v{k}") for k in range(9)], "<=", 4.5)
        for _ in range(i % 4):
            two("<=" if i % 2 else "=", Fraction(i, 8))
    for _ in range(_BLOCK_LINES + 3):
        two()
    model.set_objective([(1, "v0"), (-2, "v3")])
    return model


def _random_point(model, rng):
    """Mostly-integral random assignment, occasionally out of bounds."""
    point = {}
    for var in model.variables:
        roll = rng.random()
        if var.kind == "binary":
            if roll < 0.45:
                point[var.name] = 0
            elif roll < 0.9:
                point[var.name] = 1
            else:
                point[var.name] = round(rng.random() * 1.4 - 0.2, 3)
        else:
            span = var.ub - var.lb
            if roll < 0.7:
                point[var.name] = float(int(var.lb + rng.random() * (span + 1)))
            else:
                point[var.name] = var.lb - 0.5 + rng.random() * (span + 1)
    return point


class TestIndependentReparse:
    def models(self):
        yield build_parb(path(4))
        yield build_parb(k33())
        yield build_qr(cycle(5), 0)
        yield build_pstp(complete(4))
        yield large_parb()

    def test_rows_survive_reparse(self):
        for model in self.models():
            parsed = parse_lp(write_lp(model))
            assert parsed.variables() == {v.name for v in model.variables}
            assert parsed.binaries == {
                v.name for v in model.variables if v.kind == "binary"
            }
            assert [r[0] for r in parsed.rows] == [c.name for c in model.constraints]
            for (name, terms, sense, rhs), row in zip(parsed.rows, model.constraints):
                assert sense == row.sense and rhs == row.rhs, name
                assert terms == {var: float(c) for c, var in row.terms}, name

    def test_verdicts_agree_on_random_points(self):
        rng = Xoshiro256(777)
        for model in self.models():
            parsed = parse_lp(write_lp(model))
            for _ in range(60):
                point = _random_point(model, rng)
                assert parsed.evaluate(point) == check_integer_point(model, point)

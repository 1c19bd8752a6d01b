"""External MIP oracle: `build_parb` solved by HiGHS through scipy's `milp`.

The model reaches the solver only through `MipModel.to_arrays()`, so this
checks the arrays as well as the formulation: the solver's optimum must
equal the exact one, and its point must pass `check_integer_point` and
pick a connected vertex cover.  Skipped where scipy is not installed.
"""

import pytest

from cvckit.bb import solve
from cvckit.mip import build_parb, check_integer_point, default_roots
from cvckit.oracle import brute_force_cvc, check_cvc
from tests.conftest import connected_bipartite, connected_gnp
from tests.test_graph import complete, cycle, path

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def highs_optimum(model):
    """The optimum of the model by HiGHS, and the named point it found."""
    a = model.to_arrays()
    matrix = sparse.csr_array(
        (a["data"], a["indices"], a["indptr"]), shape=(len(a["row_lo"]), len(a["c"]))
    )
    result = optimize.milp(
        a["c"],
        constraints=optimize.LinearConstraint(matrix, a["row_lo"], a["row_hi"]),
        integrality=a["integrality"],
        bounds=optimize.Bounds(a["col_lb"], a["col_ub"]),
    )
    assert result.success, result.message
    point = {
        var.name: round(value) if var.kind == "binary" else value
        for var, value in zip(model.variables, result.x)
    }
    return round(result.fun), point


def _check(g, size, r=None, r1=None):
    model = build_parb(g, r, r1)
    optimum, point = highs_optimum(model)
    assert optimum == size
    assert check_integer_point(model, point)
    cover = {v for v in range(g.n) if point[f"x_{v}"]}
    assert len(cover) == size and check_cvc(g, cover).valid


SMALL = [path(2), path(5), cycle(6), complete(5)] + [
    connected_gnp(n, (0.25, 0.4, 0.6)[n % 3], 300 + n) for n in range(3, 15)
]


@pytest.mark.parametrize("g", SMALL, ids=[f"n{g.n}_m{g.m}" for g in SMALL])
def test_parb_optimum_matches_brute_force(g):
    _, size = brute_force_cvc(g)
    _check(g, size)
    r, r1 = default_roots(g)
    _check(g, size, r1, r)


# past brute force: both searches against HiGHS, up to n = 40, where
# HiGHS takes up to about a second and either search a few milliseconds
MIDSIZE = {
    "20-0.2-6": connected_gnp(20, 0.2, 6),
    "25-0.15-7": connected_gnp(25, 0.15, 7),
    "30-0.1-8": connected_gnp(30, 0.1, 8),
    "30-0.2-9": connected_gnp(30, 0.2, 9),
    "40-0.1-11": connected_gnp(40, 0.1, 11),
    "40-0.15-12": connected_gnp(40, 0.15, 12),
    "35-0.2-13": connected_gnp(35, 0.2, 13),
    "bip-20-20-0.2-14": connected_bipartite(20, 20, 0.2, 14),
}


@pytest.mark.parametrize("g", MIDSIZE.values(), ids=MIDSIZE.keys())
def test_parb_optimum_matches_branch_and_bound(g):
    size = solve(g, "bb").cover_size
    assert solve(g, "rds").cover_size == size
    _check(g, size)

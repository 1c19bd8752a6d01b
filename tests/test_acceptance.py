"""Acceptance suite: ten end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines go by.
Each test prints exactly one PASS/FAIL line before asserting, so a red run
still names every criterion it touched.
"""

import time
from pathlib import Path

import pytest

from cvckit.bb import greedy_cvc_2approx, solve
from cvckit.graph import (
    Graph,
    articulation_points,
    gnp_random,
    is_connected,
    spanning_tree_count,
)
from cvckit.mip import (
    build_parb,
    build_pstp,
    build_qr,
    check_integer_point,
    count_qr_feasible,
    find_parb_mismatch,
    find_pstp_mismatch,
    write_lp,
)
from cvckit.oracle import brute_force_cvc, check_cvc, feasible_stable_sets
from cvckit.rng import Xoshiro256
from tests.conftest import connected_bipartite, connected_gnp
from tests.lpcheck import parse_lp
from tests.test_graph import complete, cycle, path
from tests.test_lp_format import GOLDENS, _random_point

GOLDEN = Path(__file__).parent / "golden"


def _verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"{word} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus_optima(corpus500):
    return [(name, g, brute_force_cvc(g)[1]) for name, g in corpus500]


def test_criterion_01_solvers_match_oracle(corpus500):
    t0 = time.perf_counter()
    bad = []
    for name, g in corpus500:
        expected = brute_force_cvc(g)[1]
        if solve(g, "bb").cover_size != expected:
            bad.append(("bb", name))
        if solve(g, "rds").cover_size != expected:
            bad.append(("rds", name))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        not bad and elapsed < 120.0,
        f"bb and rds match the oracle on all {len(corpus500)} corpus "
        f"instances in {elapsed:.1f}s (budget 120s); mismatches: {bad[:3]}",
    )


def test_criterion_02_parb_exhaustive_with_random_roots():
    t0 = time.perf_counter()
    rng = Xoshiro256(2024)
    checked = 0
    failures = []
    for i in range(200):
        g = connected_gnp(2 + i % 8, (0.3, 0.5, 0.7)[i % 3], 5000 + i)
        if find_parb_mismatch(g) is not None:
            failures.append((i, "default"))
        edges = sorted(g.edges)
        for _ in range(5):
            r, r1 = edges[rng.next_u64() % len(edges)]
            if find_parb_mismatch(g, r, r1) is not None:
                failures.append((i, (r, r1)))
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        not failures and checked == 200 and elapsed < 600.0,
        f"two-root model equals the subset oracle on {checked} graphs "
        f"(n in 2..9), default plus 5 random root pairs each, "
        f"in {elapsed:.1f}s (budget 600s); failures: {failures[:3]}",
    )


def test_criterion_03_pstp_exhaustive():
    failures = []
    for i in range(100):
        g = connected_gnp(2 + i % 7, (0.35, 0.55, 0.8)[i % 3], 7000 + i)
        if find_pstp_mismatch(g) is not None:
            failures.append(i)
    _verdict(
        3,
        not failures,
        f"spanning-tree model equals the subset oracle on 100 graphs "
        f"(n <= 8); failures: {failures[:3]}",
    )


def test_criterion_04_qr_count_is_tree_count():
    cases = [path(5), cycle(6), cycle(7), complete(4), complete(5)]
    i = 0
    while len(cases) < 30:
        g = gnp_random(3 + i % 5, 0.55, 9000 + i)
        i += 1
        if is_connected(g) or spanning_tree_count(g) == 0:
            cases.append(g)
    bad = []
    for idx, g in enumerate(cases):
        root = idx % g.n
        if count_qr_feasible(g, root) != spanning_tree_count(g):
            bad.append(idx)
    _verdict(
        4,
        not bad and len(cases) == 30,
        f"single-root model's feasible picks equal the matrix-tree count "
        f"on {len(cases)} rooted graphs; failures: {bad[:3]}",
    )


def test_criterion_05_complete_bipartite_gap():
    bad = []
    for n in range(2, 9):
        g = Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
        cvc = solve(g, "bb").cover_size
        vc = solve(g, "vc-bb").cover_size
        if (cvc, vc) != (n + 1, n):
            bad.append((n, cvc, vc))
    _verdict(
        5,
        not bad,
        f"K_nn for n=2..8: connected cover costs n+1 while plain cover "
        f"costs n; failures: {bad}",
    )


def test_criterion_06_greedy_two_approx(corpus_optima):
    bad = []
    for name, g, optimum in corpus_optima:
        cover = greedy_cvc_2approx(g)
        if not check_cvc(g, cover).valid or len(cover) > 2 * optimum:
            bad.append(name)
    _verdict(
        6,
        not bad,
        f"greedy cover is a valid connected cover within twice the optimum "
        f"on all {len(corpus_optima)} corpus instances; failures: {bad[:3]}",
    )


def test_criterion_07_no_cut_vertex_in_feasible_sets():
    checked = 0
    offenders = []
    i = 0
    while checked < 100:
        g = connected_gnp(4 + i % 7, (0.25, 0.4, 0.6)[i % 3], 11_000 + i)
        i += 1
        cuts = articulation_points(g)
        checked += 1
        for s in feasible_stable_sets(g):
            if s & cuts:
                offenders.append((i, s))
                break
    _verdict(
        7,
        not offenders and checked == 100,
        f"on {checked} instances (n <= 10), no exhaustively enumerated "
        f"feasible stable set contains a cut vertex; offenders: {offenders[:3]}",
    )


def test_criterion_08_midsize_within_budget():
    slow = []
    for seed in (101, 202, 303):
        g = connected_gnp(60, 0.1, seed)
        t0 = time.perf_counter()
        report = solve(g, "bb")
        elapsed = time.perf_counter() - t0
        if report.status != "optimal" or elapsed >= 60.0:
            slow.append(("gnp60", seed, round(elapsed, 1)))
        if solve(g, "rds").cover_size != report.cover_size:
            slow.append(("gnp60-disagree", seed, 0))
    for seed in (11, 22):
        g = connected_bipartite(30, 30, 0.2, seed)
        t0 = time.perf_counter()
        report = solve(g, "bb")
        elapsed = time.perf_counter() - t0
        if report.status != "optimal" or elapsed >= 120.0:
            slow.append(("bip30", seed, round(elapsed, 1)))
    _verdict(
        8,
        not slow,
        "three G(60, 0.1) instances solved under 60s each (bb and rds "
        "agreeing) and two bipartite 30+30 p=0.2 instances under 120s "
        f"each; violations: {slow}",
    )


def test_criterion_09_warm_start_node_monotonicity(corpus500):
    bad = []
    for name, g in corpus500:
        warm = solve(g, "bb", warm_start=True)
        cold = solve(g, "bb", warm_start=False)
        if warm.node_count > cold.node_count or warm.cover_size != cold.cover_size:
            bad.append((name, warm.node_count, cold.node_count))
    _verdict(
        9,
        not bad,
        f"warm-started search never visits more nodes than the cold search "
        f"on any of the {len(corpus500)} corpus instances; violations: {bad[:3]}",
    )


def test_criterion_10_lp_goldens_and_reparse():
    byte_bad = [
        fname
        for fname, graph, build in GOLDENS
        if write_lp(build(graph)).encode("ascii") != (GOLDEN / fname).read_bytes()
    ]
    models = [
        build_parb(path(4)),
        build_qr(cycle(5), 0),
        build_pstp(complete(4)),
    ]
    rng = Xoshiro256(424242)
    verdict_bad = 0
    for model in models:
        parsed = parse_lp(write_lp(model))
        for _ in range(100):
            point = _random_point(model, rng)
            if parsed.evaluate(point) != check_integer_point(model, point):
                verdict_bad += 1
    _verdict(
        10,
        not byte_bad and verdict_bad == 0,
        f"{len(GOLDENS)} golden LP files byte-identical and an independent reader "
        f"agrees with the model checker on 100 random points per "
        f"formulation; byte mismatches: {byte_bad}, verdict "
        f"disagreements: {verdict_bad}",
    )

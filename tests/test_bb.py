"""Branch-and-bound solvers: oracle agreement, pruning safety, settings."""

import itertools
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvckit import bb as bb_module
from cvckit.bb import (
    greedy_cvc_2approx,
    include_candidates,
    solve,
)
from cvckit.bounds import color_bound_cached
from cvckit.errors import InputError
from cvckit.graph import (
    Graph,
    articulation_points_mask,
    bipartite_random,
    bits_of,
    gnp_random,
    grow_piece,
    mask_to_set,
)
from cvckit.oracle import (
    brute_force_cvc,
    brute_force_vc,
    check_cvc,
)
from cvckit.rng import Xoshiro256
from tests import search_pins
from tests.conftest import connected_bipartite, connected_gnp
from tests.search_pins import HARD, INSTANCES, SEARCH, TIMEOUT, graph, measure, row, table_text
from tests.test_bounds import induced_alpha
from tests.test_graph import complete, cycle, path
from tests.test_oracle import petersen


class TestAgainstOracle:
    def test_bb_matches_oracle(self, corpus60):
        for name, g in corpus60:
            report = solve(g, "bb")
            _, expected = brute_force_cvc(g)
            assert report.cover_size == expected, name
            assert check_cvc(g, report.cover).valid, name
            assert report.status == "optimal"
            assert report.best_bound == g.n - expected

    def test_rds_matches_oracle(self, corpus60):
        for name, g in corpus60:
            report = solve(g, "rds")
            assert report.cover_size == brute_force_cvc(g)[1], name
            assert check_cvc(g, report.cover).valid, name
            assert report.algorithm == "rds"

    def test_vc_solver_matches_oracle(self, corpus60):
        for name, g in corpus60:
            report = solve(g, "vc-bb")
            assert report.cover_size == brute_force_vc(g), name
            assert check_cvc(g, report.cover).is_cover, name

    def test_families(self):
        assert solve(path(9), "bb").cover_size == 7
        assert solve(cycle(9), "bb").cover_size == 8
        assert solve(complete(7), "bb").cover_size == 6
        assert solve(petersen(), "bb").cover_size == 7
        assert solve(petersen(), "vc-bb").cover_size == 6

    def test_config_matrix(self):
        # every setting must land on the same optimum
        graphs = [connected_gnp(10, 0.3, 5), connected_gnp(11, 0.5, 8), cycle(8)]
        for g in graphs:
            expected = brute_force_cvc(g)[1]
            for warm, algorithm in itertools.product((False, True), ("bb", "rds")):
                report = solve(g, algorithm, warm_start=warm)
                assert report.cover_size == expected, (g, algorithm, warm)


def random_tree(n, seed):
    """A random recursive tree: each vertex v > 0 hangs from a uniform
    earlier vertex."""
    rng = Xoshiro256(seed)
    return Graph(n, [(int(rng.random() * v), v) for v in range(1, n)])


def wheel(n):
    """W_n: a hub, vertex n - 1, joined to every vertex of C_{n-1}."""
    return Graph(n, [*cycle(n - 1).edges, *((v, n - 1) for v in range(n - 1))])


def cone(g):
    """G + u: g plus a vertex u = g.n joined to every vertex of g."""
    return Graph(g.n + 1, [*g.edges, *((v, g.n) for v in range(g.n))])


class TestClosedForms:
    """Optima past the brute-force cap, from closed forms."""

    @staticmethod
    def assert_optimum(g, expected, label):
        for algorithm in ("bb", "rds"):
            report = solve(g, algorithm)
            assert report.status == "optimal", (label, algorithm)
            assert report.cover_size == expected, (label, algorithm)
            assert check_cvc(g, report.cover).valid, (label, algorithm)

    def test_random_trees(self):
        # a connected vertex cover of a tree with n >= 3 holds every inner
        # vertex, and the inner vertices are one
        for n in (3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500):
            g = random_tree(n, n)
            inner = sum(1 for v in range(n) if g.degree(v) > 1)
            self.assert_optimum(g, inner, f"tree {n}")

    def test_cycles(self):
        for n in range(3, 61):
            self.assert_optimum(cycle(n), n - 1, f"C_{n}")

    def test_complete_bipartite(self):
        # the smaller side and one vertex of the other
        for a in range(2, 9):
            for b in range(a, 9):
                g = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
                self.assert_optimum(g, a + 1, f"K_{a},{b}")

    def test_wheels(self):
        # the hub and a vertex cover of the rim C_{n-1}
        for n in range(4, 40):
            self.assert_optimum(wheel(n), n - (n - 1) // 2, f"W_{n}")

    def test_cone_adds_one_to_the_vertex_cover(self):
        # a connected cover of G + u either holds u, and then any vertex
        # cover of G plus u is connected through u, or holds all n vertices
        # of G, no fewer than VC(G) + 1
        for g in (graph("G60"), graph("G80")):
            self.assert_optimum(cone(g), solve(g, "vc-bb").cover_size + 1, g)
        # vc-bb needs a connected graph, so G(14, 0.3) draws that may be
        # disconnected take the brute-force vertex cover
        for seed in range(1, 9):
            g = gnp_random(14, 0.3, seed)
            self.assert_optimum(cone(g), brute_force_vc(g) + 1, f"G(14, 0.3)#{seed}")


# test ids name each algorithm by the wrapper function the pinned runs were
# first recorded through, so the ids stay comparable across versions
SOLVER_IDS = {"bb": "solve_cvc_bb", "rds": "russian_doll_solve", "vc-bb": "solve_vc_bb"}


def solver_id(value):
    return SOLVER_IDS.get(value) if isinstance(value, str) else None


@pytest.fixture
def tick_clock(monkeypatch):
    """search_pins.tick_clock in place of the solver's clock; returns the
    tick counter."""
    clock, ticks = search_pins.tick_clock()
    monkeypatch.setattr(bb_module, "time", clock)
    return ticks


class TestEngineBehavior:
    def test_deterministic_reports(self):
        g = connected_gnp(12, 0.4, 3)
        a, b = solve(g, "bb"), solve(g, "bb")
        assert (a.cover, a.node_count, a.cover_size) == (b.cover, b.node_count, b.cover_size)

    def test_dispatcher(self):
        g = cycle(6)
        for algorithm in ("bb", "rds", "vc-bb"):
            assert solve(g, algorithm).algorithm == algorithm
        assert solve(g).algorithm == "bb"
        assert solve(g).branch_rule == "max-degree-first"

    def test_warm_start_never_hurts_nodes(self, corpus60):
        for name, g in corpus60[:25]:
            warm = solve(g, "bb", warm_start=True)
            cold = solve(g, "bb", warm_start=False)
            assert warm.cover_size == cold.cover_size, name
            assert warm.node_count <= cold.node_count, name

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("algorithm", ["bb", "rds", "vc-bb"])
    def test_every_bound_call_bounds_alpha(self, monkeypatch, algorithm, warm):
        # at every call, reused colorings and repaired matchings included,
        # a coloring bound is at least alpha(G[U]) and a matching bound is
        # alpha(G[U]) exactly (Koenig), so no prune drops a better S
        calls = []
        for name in ("color_bound_cached", "bipartite_alpha"):
            def recorded(masks, umask, cache, name=name, bound_of=getattr(bb_module, name)):
                value, out = bound_of(masks, umask, cache)
                calls.append((name, umask, value))
                return value, out
            monkeypatch.setattr(bb_module, name, recorded)
        graphs = [connected_gnp(9, 0.35, seed) for seed in (2, 4, 9, 13)]
        # two bipartite draws whose searches repair a matching by augmenting
        graphs += [connected_bipartite(6, 6, 0.35, 8), connected_bipartite(7, 7, 0.3, 1)]
        kinds = set()
        for g in graphs:
            calls.clear()
            solve(g, algorithm, warm_start=warm)
            for name, umask, value in calls:
                alpha = induced_alpha(g, mask_to_set(umask))
                assert value >= alpha if name == "color_bound_cached" else value == alpha, (name, umask)
                kinds.add(name)
        assert kinds == {"color_bound_cached", "bipartite_alpha"}

    def test_single_vertex(self):
        # K1 takes the general path: the warm start (or the cold rds root)
        # is S = {0}, and a cold bb or vc-bb branches once on vertex 0
        nodes = {("bb", True): 1, ("bb", False): 3, ("rds", True): 1, ("rds", False): 1,
                 ("vc-bb", True): 1, ("vc-bb", False): 3}
        for (algorithm, warm), count in nodes.items():
            report = solve(Graph(1), algorithm, warm_start=warm)
            assert report.cover == frozenset() and report.cover_size == 0
            assert (report.status, report.best_bound, report.node_count) == (
                "optimal", 1, count), (algorithm, warm)

    def test_input_validation(self):
        with pytest.raises(InputError):
            solve(Graph(4, [(0, 1), (2, 3)]), "bb")
        with pytest.raises(InputError):
            solve(Graph(0), "bb")
        with pytest.raises(InputError):
            solve(cycle(5), "bb", time_limit=0)
        # NaN fails every comparison, so it would never trip the deadline
        with pytest.raises(InputError):
            solve(cycle(5), "bb", time_limit=float("nan"))
        with pytest.raises(InputError, match="needs a Graph"):
            solve("x")
        with pytest.raises(InputError, match="number of seconds"):
            solve(cycle(5), "bb", time_limit={"time_limit": 1})
        # a truthy non-bool must not switch the warm start on
        for flag in ("no", 1, None):
            with pytest.raises(InputError, match="warm_start must be a bool"):
                solve(cycle(5), "bb", warm_start=flag)

    @pytest.mark.parametrize("limit", ["5", [1], 1j, True, False])
    def test_time_limit_must_be_a_number(self, limit):
        with pytest.raises(InputError, match="number of seconds"):
            solve(cycle(5), "bb", time_limit=limit)

    def test_unknown_algorithm(self):
        with pytest.raises(InputError):
            solve(cycle(5), "nope")

    def test_time_limit_reports_honestly(self):
        g = connected_gnp(60, 0.08, 21)
        report = solve(g, "bb", time_limit=1e-6)
        assert report.status == "time_limit"
        assert check_cvc(g, report.cover).valid  # incumbent still usable
        assert report.best_bound >= g.n - report.cover_size

    @pytest.mark.parametrize("stop", [1, 30, 300, 3000])
    @pytest.mark.parametrize("algorithm", ["bb", "rds"], ids=solver_id)
    @pytest.mark.parametrize("name,optimum", [("G60", 37), ("BIP11", 34)])
    def test_time_limit_bound_is_valid(self, tick_clock, stop, algorithm, name, optimum):
        # wherever the search stops, the open bound (stable-set side) never
        # falls below n minus the optimum cover
        g = graph(name)
        report = solve(g, algorithm, time_limit=stop)
        assert report.best_bound >= g.n - optimum

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("algorithm", ["bb", "rds", "vc-bb"], ids=solver_id)
    # (connected, plain) optimum covers; BIP11's plain one is its maximum
    # matching (Koenig)
    @pytest.mark.parametrize("name,optima", [("G60", (37, 37)), ("BIP11", (34, 30))])
    def test_one_clock_read_per_node(self, tick_clock, k, algorithm, name, optima):
        # the deadline is checked before every node, include children too,
        # so a limit of k ticks visits exactly k nodes
        g = graph(name)
        report = solve(g, algorithm, time_limit=k)
        assert (report.status, report.node_count) == ("time_limit", k)
        assert report.best_bound >= g.n - optima[algorithm == "vc-bb"]

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("k", [1, 3, 300])
    @pytest.mark.parametrize("name,algorithm", HARD["ticks"], ids=solver_id)
    def test_timed_out_run_reads_the_clock_k_plus_3_times(
        self, tick_clock, name, algorithm, k, warm
    ):
        # once at the start, once per node, the read that trips and the
        # report's wall time: the entries left open after the limit read
        # no clock
        report = solve(graph(name), algorithm, time_limit=k, warm_start=warm)
        assert report.status == "time_limit"
        assert next(tick_clock) == k + 3

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("algorithm", ["bb", "rds"], ids=solver_id)
    def test_time_limit_counts_the_set_up(self, monkeypatch, algorithm, warm):
        # the limit runs from the call: when building the roots alone
        # outlasts it, the search pops nothing and still bounds the roots,
        # as a limit that trips at the first pop does
        stopped = measure("G60", algorithm, 0.5, warm).report
        now = [0.0]
        monkeypatch.setattr(bb_module, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        original = bb_module._roots

        def slow_roots(*args):
            now[0] += 10
            return original(*args)

        monkeypatch.setattr(bb_module, "_roots", slow_roots)
        report = solve(graph("G60"), algorithm, time_limit=5, warm_start=warm)
        assert (report.status, report.node_count, report.cover, report.best_bound) == (
            "time_limit", 0, stopped.cover, stopped.best_bound)

    def test_timeout_skips_roots_that_cannot_raise_the_bound(self):
        # stopped before its first node, rds closes every root unsearched;
        # a bound is at most |U|, so a root with |S| + |U| no larger than
        # the open bound or the incumbent gets no bound call, and the
        # report keeps the bound of one fresh call per root
        g, run = graph("G600"), measure("G600", "rds", 0.5)
        every_root = max(1 + color_bound_cached(g.masks, umask, None)[0]
                         for _, _, umask, _, _ in run.roots)
        assert run.report.node_count == 0
        assert run.report.best_bound == max(every_root, g.n - run.report.cover_size)
        assert run.counts["calls"] < len(run.roots)

    @pytest.mark.parametrize("algorithm", ["bb", "vc-bb"], ids=solver_id)
    def test_time_limit_keeps_the_open_include_child(self, tick_clock, algorithm):
        # a limit of 1 stops right after the first branch; the include
        # child on top of the stack is feasible and one larger, so it
        # becomes the incumbent, as it would have at its pop
        g = graph("G60")
        report = solve(g, algorithm, time_limit=1, warm_start=False)
        assert (report.status, report.node_count) == ("time_limit", 1)
        assert report.cover_size == g.n - 1

    def test_generous_limit_still_optimal(self):
        g = connected_gnp(10, 0.4, 2)
        for limit in (60.0, float("inf")):
            report = solve(g, "bb", time_limit=limit)
            assert report.status == "optimal"
            assert report.cover_size == brute_force_cvc(g)[1]

    @pytest.mark.parametrize("limit", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_limit_too_large_for_a_float_is_no_limit(self, limit):
        # a valid number of seconds that no float holds: like inf, it
        # never trips, and it is never converted to a float
        g = connected_gnp(10, 0.4, 2)
        report = solve(g, "bb", time_limit=limit)
        assert (report.status, report.cover_size) == ("optimal", brute_force_cvc(g)[1])


class TestSearchPins:
    """Each row of tests/search_pins.py, checked by one instrumented solve."""

    @pytest.mark.parametrize("key", SEARCH, ids="-".join)
    def test_search_row(self, key):
        run = measure(*key)
        assert row(run) == SEARCH[key]
        # one bound call per tested node, of the one kind the input picks
        bipartite = INSTANCES[key[0]][0] is bipartite_random
        assert run.counts.keys() & {"bipartite_alpha", "color_bound_cached"} == {
            "bipartite_alpha" if bipartite else "color_bound_cached"}

    @pytest.mark.parametrize(
        "key", TIMEOUT, ids=lambda key: "-".join([*map(str, key[:3]), "warm" if key[3] else "cold"]))
    def test_timeout_row(self, key):
        name, algorithm, _, _ = key
        run, n = measure(*key), graph(name).n
        assert row(run) == TIMEOUT[key]
        # the open bound (stable-set side) holds the incumbent and, where
        # the table solves the instance to the end, the optimum
        assert run.report.best_bound >= n - run.report.cover_size
        if (name, algorithm) in SEARCH:
            assert run.report.best_bound >= n - measure(name, algorithm).report.cover_size

    def test_printer_writes_the_tables_as_the_file_does(self):
        text = table_text({"SEARCH": SEARCH, "TIMEOUT": TIMEOUT})
        assert text in Path(search_pins.__file__).read_text()


class TestBranch:
    def test_split_semantics(self):
        g = path(5)  # 0-1-2-3-4
        umask = 0b10001  # candidates {0, 4}; branch on 4
        live = g.full_mask() & ~(1 << 4)
        # the include child keeps 0: not adjacent to 4, not a cut vertex
        # of the path minus 4
        assert include_candidates(g.masks, live, umask & ~(1 << 4), 4) == 0b1

    def test_include_filters_neighbors_and_cuts(self):
        g = cycle(6)
        live = g.full_mask() & ~1
        # neighbors 1 and 5 drop; 2..4 become cut vertices of the leftover path
        assert include_candidates(g.masks, live, live, 0) == 0


class TestIncludeCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_cut_pass(self, data):
        # G is the component of vertex 0 in a G(n, p) or bipartite draw;
        # S grows by random include steps, each after an optional exclude
        # step that thins the candidates
        n = data.draw(st.integers(1, 40), label="n")
        p = data.draw(st.floats(0.05, 0.5), label="p")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        if data.draw(st.booleans(), label="bipartite"):
            g = bipartite_random(n // 2, n - n // 2, p, seed)
        else:
            g = gnp_random(n, p, seed)
        live = grow_piece(g.masks, 1, g.full_mask())[0]
        umask = live & ~articulation_points_mask(g.masks, live)
        while umask:
            v = data.draw(st.sampled_from(list(bits_of(umask))), label="v")
            rmask = umask & ~(1 << v)
            if data.draw(st.booleans(), label="thin"):
                rmask &= data.draw(st.integers(0, rmask), label="kept")
            expected = rmask & ~g.masks[v] & ~articulation_points_mask(
                g.masks, live & ~(1 << v))
            live &= ~(1 << v)
            umask = include_candidates(g.masks, live, rmask, v)
            assert umask == expected

    def test_split_neighbours_run_the_pass(self):
        # (graph, node candidates, v, the include child's candidates)
        # including 0 in the 4-cycle leaves the path 1-2-3: 1 and 3 meet
        # only through the candidate 2, which is now a cut vertex
        g = cycle(4)
        assert include_candidates(g.masks, 0b1110, 0b1110, 0) == 0


class TestEveryConnectedGraphUpTo5:
    """The connected edge subsets of K_1 .. K_5 (conftest.upto5)."""

    def test_count(self, upto5):
        assert len(upto5) == 772

    def test_solvers_match_the_oracles(self, upto5):
        for g in upto5:
            cvc, vc = brute_force_cvc(g)[1], brute_force_vc(g)
            for algorithm, warm in itertools.product(("bb", "rds", "vc-bb"), (True, False)):
                report = solve(g, algorithm, warm_start=warm)
                cert = check_cvc(g, report.cover)
                connected = algorithm != "vc-bb"
                assert report.status == "optimal", (g.edges, algorithm, warm)
                assert report.cover_size == (cvc if connected else vc), (g.edges, algorithm, warm)
                assert (cert.valid if connected else cert.is_cover), (g.edges, algorithm, warm)

    def test_greedy_is_a_2_approximation(self, upto5):
        for g in upto5:
            cover = greedy_cvc_2approx(g)
            assert check_cvc(g, cover).valid, g.edges
            assert len(cover) <= 2 * brute_force_cvc(g)[1], g.edges

    def test_warm_start_is_the_2_approximation(self, tick_clock, upto5):
        # stopped before its first node, bb returns its warm start
        for g in upto5:
            report = solve(g, "bb", time_limit=0.5)
            assert (report.node_count, report.cover) == (0, greedy_cvc_2approx(g)), g.edges

    def test_time_limit_bound_is_valid(self, tick_clock, upto5):
        for g in upto5:
            stable = {"bb": g.n - brute_force_cvc(g)[1], "vc-bb": g.n - brute_force_vc(g)}
            stable["rds"] = stable["bb"]
            for algorithm, k, warm in itertools.product(stable, (1, 2, 3), (True, False)):
                report = solve(g, algorithm, time_limit=k, warm_start=warm)
                assert report.best_bound >= stable[algorithm], (g.edges, algorithm, k, warm)


class TestGreedyApprox:
    def test_families(self):
        assert greedy_cvc_2approx(path(6)) == frozenset({1, 2, 3, 4})
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert greedy_cvc_2approx(star) == frozenset({0})
        # a one-vertex DFS tree has no inner vertex; the empty cover is K1's
        # optimum
        assert greedy_cvc_2approx(Graph(1)) == frozenset()
        with pytest.raises(InputError):
            greedy_cvc_2approx(Graph(3, [(0, 1)]))

"""Brute-force oracles: reference values on families, internal duality."""

import itertools

import pytest

from cvckit.errors import InputError, SizeCapError
from cvckit.graph import Graph, articulation_points, gnp_random, is_connected
from cvckit.oracle import (
    brute_force_cvc,
    brute_force_vc,
    check_cvc,
    feasible_stable_sets,
    is_interesting,
    max_feasible_stable,
    max_stable_set_size,
)
from tests.conftest import connected_gnp
from tests.test_graph import complete, cycle, path


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


class TestCheckCvc:
    def test_flags(self):
        g = path(4)
        assert check_cvc(g, {1, 2}).valid
        cert = check_cvc(g, {0, 2})  # covers everything but is not connected
        assert cert.is_cover and not cert.is_connected_induced
        cert = check_cvc(g, {1})  # connected but leaves edge 2-3 uncovered
        assert not cert.is_cover and cert.is_connected_induced

    def test_empty_cover_convention(self):
        assert check_cvc(Graph(3), ()).valid
        assert not check_cvc(path(2), ()).valid

    def test_bad_vertex(self):
        with pytest.raises(InputError):
            check_cvc(path(3), {5})


class TestFamilies:
    """Closed-form values; each is provable with a two-line argument and
    re-derived here independently of any solver."""

    def test_paths(self):
        # a connected subset of a path is a run; covering both end edges
        # forces vertices 1..n-2, hence cvc = n-2 (n >= 3)
        for n in range(3, 12):
            cover, size = brute_force_cvc(path(n))
            assert size == n - 2
            assert cover == frozenset(range(1, n - 1))
            assert brute_force_vc(path(n)) == n // 2

    def test_cycles(self):
        # a proper connected subset of a cycle is a run of k vertices and
        # covers exactly k+1 edges, so k >= n-1
        for n in range(3, 12):
            _, size = brute_force_cvc(cycle(n))
            assert size == n - 1
            assert brute_force_vc(cycle(n)) == (n + 1) // 2

    def test_complete(self):
        for n in range(2, 9):
            _, size = brute_force_cvc(complete(n))
            assert size == n - 1
            assert brute_force_vc(complete(n)) == n - 1

    def test_stars(self):
        for leaves in range(2, 8):
            g = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
            assert brute_force_cvc(g)[1] == 1
            assert brute_force_vc(g) == 1

    def test_complete_bipartite(self):
        for a in range(2, 5):
            for b in range(a, 5):
                g = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
                assert brute_force_vc(g) == a
                assert brute_force_cvc(g)[1] == a + 1

    def test_petersen(self):
        g = petersen()
        assert brute_force_vc(g) == 6
        assert brute_force_cvc(g)[1] == 7

    def test_single_vertex_and_edge(self):
        assert brute_force_cvc(Graph(1)) == (frozenset(), 0)
        assert brute_force_cvc(path(2))[1] == 1


class TestInternalConsistency:
    def test_duality_with_feasible_stable_sets(self, corpus60):
        # v not in some minimum cvc  <=>  v in some maximum feasible stable set
        for name, g in corpus60[:30]:
            cover, size = brute_force_cvc(g)
            assert check_cvc(g, cover).valid, name
            assert size + max_feasible_stable(g) == g.n, name

    def test_vc_via_stability(self):
        for seed in range(10):
            g = gnp_random(9, 0.4, seed)
            assert brute_force_vc(g) + max_stable_set_size(g) == 9

    def test_oracle_minimality(self):
        # no strictly smaller subset may pass the checker
        for seed in range(8):
            g = gnp_random(7, 0.5, seed)
            if not is_connected(g):
                continue
            _, size = brute_force_cvc(g)
            for sub in itertools.combinations(range(7), size - 1):
                assert not check_cvc(g, sub).valid

    def test_deterministic_result(self):
        g = connected_gnp(10, 0.4, 17)
        assert brute_force_cvc(g) == brute_force_cvc(g)

    def test_is_interesting(self):
        assert is_interesting(cycle(4))
        assert is_interesting(path(6))
        assert is_interesting(petersen())
        assert not is_interesting(complete(5))
        assert not is_interesting(path(4))


class TestFeasibleStableSets:
    def test_matches_definition(self):
        # independent of the generator's recursion: filter all subsets
        for seed in range(6):
            g = gnp_random(7, 0.4, seed)
            got = set(feasible_stable_sets(g))
            expected = set()
            for k in range(g.n + 1):
                for combo in itertools.combinations(range(g.n), k):
                    s = frozenset(combo)
                    stable = all(not g.has_edge(u, v) for u in s for v in s if u < v)
                    rest = [v for v in range(g.n) if v not in s]
                    if stable and check_cvc(g, rest).is_connected_induced:
                        expected.add(s)
            assert got == expected, f"seed {seed}"

    def test_base_and_candidates_window(self):
        # in a cycle, deleting two non-adjacent vertices splits it, so the
        # only feasible stable sets are the empty set and singletons
        assert set(feasible_stable_sets(cycle(6))) == {frozenset()} | {
            frozenset({v}) for v in range(6)
        }
        g = path(6)
        inside = set(feasible_stable_sets(g, base=[0], candidates=[2, 3, 4, 5]))
        assert inside == {frozenset({0}), frozenset({0, 5})}
        # unstable base can never extend to a stable set
        assert list(feasible_stable_sets(g, base=[0, 1])) == []
        with pytest.raises(InputError):
            list(feasible_stable_sets(g, base=[9]))

    def test_no_cut_vertices_inside(self):
        for seed in range(10):
            g = gnp_random(8, 0.3, seed)
            if not is_connected(g):
                continue
            cuts = articulation_points(g)
            for s in feasible_stable_sets(g):
                assert not (s & cuts), f"seed {seed}: {s} meets {cuts}"

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            brute_force_cvc(Graph(25))
        with pytest.raises(SizeCapError):
            list(feasible_stable_sets(Graph(25)))

"""Pruning bounds: greedy clique cover, cached reuse, bipartite alpha."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvckit import bb as bb_module
from cvckit.bb import solve
from cvckit.bounds import (
    RECOMPUTE_FRACTION,
    CachedMatching,
    _greedy_classes,
    bipartite_alpha,
    color_bound_cached,
    is_bipartite,
)
from cvckit.graph import (
    Graph,
    bipartite_random,
    bits_of,
    gnp_random,
    grow_piece,
    set_to_mask,
)
from cvckit.oracle import brute_force_vc
from tests.conftest import connected_gnp
from tests.test_graph import complete, cycle, path


def induced_alpha(g, vertices):
    """Exact stable-set size of G[vertices] via the (independent) oracle."""
    keep = sorted(vertices)
    index = {v: i for i, v in enumerate(keep)}
    sub = Graph(
        len(keep),
        [(index[u], index[v]) for u, v in g.edges if u in index and v in index],
    )
    return sub.n - brute_force_vc(sub)


def first_fit_classes(masks, umask):
    """Reference clique cover: first-fit coloring of the complement.

    Scans vertices by increasing degree inside umask (ties by index) and
    puts each into the first class whose members are all its neighbors.
    """
    order = sorted(bits_of(umask), key=lambda v: ((masks[v] & umask).bit_count(), v))
    classes = []
    for v in order:
        for i, cm in enumerate(classes):
            if cm & ~masks[v] == 0:
                classes[i] = cm | (1 << v)
                break
        else:
            classes.append(1 << v)
    return tuple(classes)


def matching_size(masks, left, right_mask):
    """Reference maximum bipartite matching (Hopcroft-Karp: layered BFS
    phases, each followed by depth-first augmentation along the layers)."""
    inf = float("inf")
    match_l = {v: None for v in left}
    match_r = {}
    dist = {}
    result = 0

    def bfs():
        queue = deque()
        for v in left:
            if match_l[v] is None:
                dist[v] = 0
                queue.append(v)
            else:
                dist[v] = inf
        reached_free = False
        while queue:
            v = queue.popleft()
            for w in bits_of(masks[v] & right_mask):
                partner = match_r.get(w)
                if partner is None:
                    reached_free = True
                elif dist[partner] == inf:
                    dist[partner] = dist[v] + 1
                    queue.append(partner)
        return reached_free

    def dfs(v):
        for w in bits_of(masks[v] & right_mask):
            partner = match_r.get(w)
            if partner is None or (dist[partner] == dist[v] + 1 and dfs(partner)):
                match_l[v] = w
                match_r[w] = v
                return True
        dist[v] = inf
        return False

    while bfs():
        for v in left:
            if match_l[v] is None and dfs(v):
                result += 1
    return result


class TestGreedyColorBound:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_classes_match_first_fit(self, data):
        # same classes in the same order as the first-fit reference, on
        # masks past one 64-bit word that are empty, one vertex, full or random
        n = data.draw(st.integers(0, 70), label="n")
        p = data.draw(st.floats(0.05, 0.9), label="p")
        g = gnp_random(n, p, data.draw(st.integers(0, 2**32), label="seed"))
        full = g.full_mask()
        choices = [st.just(full), st.just(0), st.integers(0, full)]
        if n:
            choices.append(st.integers(0, n - 1).map(lambda v: 1 << v))
        umask = data.draw(st.one_of(choices), label="umask")
        assert _greedy_classes(g.masks, umask) == first_fit_classes(g.masks, umask)

    def test_families(self):
        # clique covers of a clique need one class; of a stable set, n
        assert len(_greedy_classes(complete(6).masks, 0b111111)) == 1
        assert len(_greedy_classes(Graph(5).masks, 0b11111)) == 5
        assert len(_greedy_classes(path(4).masks, 0b1111)) == 2
        assert len(_greedy_classes(cycle(5).masks, 0b11111)) == 3
        # classes whose candidates narrow to a single vertex, which joins
        # directly: the centre of a star joins the first leaf, each end of
        # a path its neighbour, each disjoint edge stays a pair, and the
        # last vertex of a clique joins once the others have
        star = Graph(5, [(0, v) for v in range(1, 5)])
        edges = Graph(6, [(0, 1), (2, 3), (4, 5)])
        cases = [
            (star, 0b11111, (0b00011, 0b00100, 0b01000, 0b10000)),
            (star, 0b11101, (0b00101, 0b01000, 0b10000)),
            (path(5), 0b11111, (0b00011, 0b11000, 0b00100)),
            (path(5), 0b01110, (0b00110, 0b01000)),
            (edges, 0b111111, (0b000011, 0b001100, 0b110000)),
            (edges, 0b101110, (0b000010, 0b100000, 0b001100)),
            (complete(4), 0b1111, (0b1111,)),
        ]
        for g, umask, expected in cases:
            assert _greedy_classes(g.masks, umask) == expected
            assert first_fit_classes(g.masks, umask) == expected
        for g in (Graph(0), Graph(3), path(4), star, edges, complete(4)):
            assert _greedy_classes(g.masks, 0) == ()

    @pytest.mark.parametrize("algorithm", ["vc-bb", "bb"])
    def test_search_colorings_match_first_fit(self, monkeypatch, algorithm):
        # every fresh coloring the search makes, on the sets it asks for
        seen = []
        original = bb_module.color_bound_cached

        def recorded(masks, umask, cache):
            bound, out = original(masks, umask, cache)
            if out is not cache:
                seen.append((masks, umask, out.classes))
            return bound, out

        monkeypatch.setattr(bb_module, "color_bound_cached", recorded)
        for seed in (1, 2, 4, 5):  # four distinct graphs
            solve(connected_gnp(40, 0.1, seed), algorithm)
        assert len(seen) > 300
        for masks, umask, classes in seen:
            assert classes == first_fit_classes(masks, umask)

    def test_classes_are_cliques(self):
        for seed in range(15):
            g = gnp_random(11, 0.5, seed)
            classes = _greedy_classes(g.masks, g.full_mask())
            assert sum(cm.bit_count() for cm in classes) == 11
            for cm in classes:
                members = list(bits_of(cm))
                for i, u in enumerate(members):
                    for v in members[i + 1 :]:
                        assert g.masks[u] >> v & 1, f"seed {seed}"

    def test_dominates_alpha(self):
        # any partition into cliques caps the stable set size
        for seed in range(15):
            g = gnp_random(10, 0.45, seed)
            for shift in range(4):
                verts = [v for v in range(10) if (seed + shift + v) % 3]
                got = len(_greedy_classes(g.masks, set_to_mask(verts)))
                assert got >= induced_alpha(g, verts)

    def test_deterministic(self):
        g = gnp_random(12, 0.4, 9)
        full = g.full_mask()
        assert _greedy_classes(g.masks, full) == _greedy_classes(g.masks, full)


class TestCachedColoring:
    def test_reuse_counts_intersected_classes(self):
        g = path(6)  # classes on the full path: three adjacent pairs
        full = g.full_mask()
        bound, cache = color_bound_cached(g.masks, full, None)
        assert bound == 3 and cache.base_mask == full and cache.base_size == 6
        # dropping one vertex stays above the 75% threshold: reuse
        sub = full & ~(1 << 5)
        bound2, cache2 = color_bound_cached(g.masks, sub, cache)
        assert cache2 is cache
        assert bound2 == sum(1 for cm in cache.classes if cm & sub)
        # dropping half forces a recompute rooted at the smaller set
        half = set_to_mask([0, 1, 2])
        bound3, cache3 = color_bound_cached(g.masks, half, cache)
        assert cache3 is not cache and cache3.base_mask == half
        assert bound3 == 2  # {0,1} and {2}

    def test_reused_bound_still_dominates_alpha(self):
        for seed in range(12):
            g = gnp_random(12, 0.5, seed)
            full = g.full_mask()
            _, cache = color_bound_cached(g.masks, full, None)
            umask = full
            for v in (11, 3, 7):  # peel vertices one at a time
                umask &= ~(1 << v)
                bound, cache = color_bound_cached(g.masks, umask, cache)
                assert bound >= induced_alpha(g, [u for u in range(12) if umask >> u & 1])

    def test_threshold_boundary(self):
        g = Graph(8)  # edgeless: every class is a singleton
        full = g.full_mask()
        _, cache = color_bound_cached(g.masks, full, None)
        at_75 = set_to_mask(range(6))  # 6 = 0.75 * 8 exactly: still reused
        _, cache75 = color_bound_cached(g.masks, at_75, cache)
        assert cache75 is cache
        below = set_to_mask(range(5))
        _, cache5 = color_bound_cached(g.masks, below, cache)
        assert cache5 is not cache
        assert RECOMPUTE_FRACTION == 0.75


class TestBipartite:
    def test_detection(self):
        assert is_bipartite(complete(3)) is None
        assert is_bipartite(cycle(5)) is None
        side0, side1 = is_bipartite(cycle(6))
        assert side0 == frozenset({0, 2, 4}) and side1 == frozenset({1, 3, 5})
        side0, side1 = is_bipartite(path(4))
        assert side0 == frozenset({0, 2}) and side1 == frozenset({1, 3})
        # isolated vertices and multiple components go to side 0 first
        g = Graph(4, [(2, 3)])
        assert is_bipartite(g) == (frozenset({0, 1, 2}), frozenset({3}))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 10),
        p=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**32),
        bipartite=st.booleans(),
    )
    def test_matches_brute_force(self, n, p, seed, bipartite):
        # None exactly when no 2-colouring is proper; otherwise a proper one
        # with each component's lowest vertex on side 0
        g = bipartite_random(n // 2, n - n // 2, p, seed) if bipartite else gnp_random(n, p, seed)
        proper = [
            side1
            for side1 in range(1 << n)
            if all((side1 >> u ^ side1 >> v) & 1 for u, v in g.edges)
        ]
        sides = is_bipartite(g)
        assert (sides is None) == (not proper)
        if sides is not None:
            side0, side1 = sides
            assert side0 | side1 == set(range(n)) and not side0 & side1
            assert set_to_mask(side1) in proper
            for v in range(n):
                piece = grow_piece(g.masks, 1 << v, g.full_mask())[0]
                assert (piece & -piece).bit_length() - 1 in side0

    def test_alpha_exact_on_random_bipartite(self):
        for seed in range(15):
            g = bipartite_random(5, 6, 0.4, seed)
            assert is_bipartite(g) is not None
            full = g.full_mask()
            assert bipartite_alpha(g.masks, full, None)[0] == g.n - brute_force_vc(g)
            # and on induced subsets
            umask = full & ~set_to_mask([0, 7])
            verts = [v for v in range(g.n) if umask >> v & 1]
            assert bipartite_alpha(g.masks, umask, None)[0] == induced_alpha(g, verts)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cached_matching_down_shrink_chains(self, data):
        # thread the cache down to the empty set, dropping one vertex,
        # whole matched pairs or a random mix of both sides per step, and
        # sometimes starting over; alpha must equal the reference each time
        n1 = data.draw(st.integers(0, 25), label="n1")
        n2 = data.draw(st.integers(0, 25), label="n2")
        p = data.draw(st.floats(0.05, 0.6), label="p")
        g = bipartite_random(n1, n2, p, data.draw(st.integers(0, 2**32), label="seed"))
        left_mask = (1 << n1) - 1
        umask = g.full_mask()
        cache = None
        while True:
            alpha, cache = bipartite_alpha(g.masks, umask, cache)
            nu = matching_size(g.masks, list(bits_of(umask & left_mask)), umask & ~left_mask)
            assert alpha == umask.bit_count() - nu
            assert umask & ~cache.base_mask == 0 and cache.matched & ~umask == 0
            assert cache.size * 2 == cache.matched.bit_count() == 2 * nu
            for v in bits_of(cache.matched):
                w = cache.mate[v]
                assert cache.mate[w] == v and g.masks[v] >> w & 1
            if not umask:
                return
            step = data.draw(st.sampled_from(["one", "pairs", "mix"]), label="step")
            if step == "one":
                drop = 1 << data.draw(st.sampled_from(list(bits_of(umask))), label="v")
            elif step == "pairs":
                drop = data.draw(st.integers(0, cache.matched), label="ends") & cache.matched
                drop |= set_to_mask(cache.mate[v] for v in bits_of(drop))
            else:  # a sparse mix: about a quarter of U
                drop = umask & data.draw(st.integers(0, umask), label="mix")
                drop &= data.draw(st.integers(0, umask), label="thin")
            if not drop:
                drop = umask & -umask
            umask &= ~drop
            if data.draw(st.integers(0, 9), label="restart") == 0:
                cache = None

    def test_cached_matching_drops_matched_vertices_one_at_a_time(self):
        # path a-p-q-b with pendants x1-p and q-x2, matched p-x1, q-x2
        # (maximum).  Dropping x1 and x2 frees p and q; a search from p
        # with q also free takes the edge p-q and leaves a and b unmatched,
        # while the maximum on a-p-q-b is 2
        p, q, a, b, x1, x2 = range(6)
        g = Graph(6, [(a, p), (p, q), (q, b), (p, x1), (q, x2)])
        mate = (x1, x2, 0, 0, p, q)
        cache = CachedMatching(g.full_mask(), mate, set_to_mask([p, q, x1, x2]), 2)
        assert bipartite_alpha(g.masks, set_to_mask([a, p, q, b]), cache)[0] == 2

    def test_cached_matching_bound_counts_pairs_inside(self):
        g = path(6)  # 0-1-2-3-4-5, matched 0-1, 2-3, 4-5
        alpha, cache = bipartite_alpha(g.masks, g.full_mask(), None)
        assert alpha == 3 and cache.size == 3
        # only the pair 2-3 lies inside {1, 2, 3, 4}: 4 - 1 = 3 >= alpha = 2
        assert cache.bound(set_to_mask([1, 2, 3, 4])) == 3
        assert cache.bound(0) == 0

    def test_alpha_on_bipartite_subset_of_any_graph(self):
        # an odd cycle in g is fine if the queried subset avoids it
        g5 = cycle(5)
        assert bipartite_alpha(g5.masks, set_to_mask([0, 1, 2]), None)[0] == 2
        assert bipartite_alpha(g5.masks, set_to_mask([0, 1, 3, 4]), None)[0] == 2

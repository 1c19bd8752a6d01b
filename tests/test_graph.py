"""Graph type, connectivity helpers, DIMACS I/O, generators, RNG."""

import hashlib
import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvckit import graph as graph_module
from cvckit import rng as rng_module
from cvckit.errors import DimacsError, InputError
from cvckit.graph import (
    Graph,
    articulation_points,
    articulation_points_mask,
    bfs_forest,
    bipartite_random,
    bits_of,
    first_connected,
    gnp_random,
    grow_piece,
    is_connected,
    is_connected_mask,
    mask_to_set,
    parse_dimacs,
    set_to_mask,
    spanning_tree_count,
    splitters,
    write_dimacs,
)
from cvckit.rng import Xoshiro256


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _component_count(g, skip=None, live=None):
    """Components of g[live] minus skip, by a plain set-based DFS."""
    allowed = set(range(g.n)) if live is None else set(bits_of(live))
    allowed.discard(skip)
    seen = set()
    comps = 0
    for s in allowed:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in bits_of(g.masks[v]):
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


class TestGraph:
    def test_normalization(self):
        g = Graph(4, [(2, 0), (0, 2), (1, 0), (3, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.m == 3
        assert g.masks[0] == 0b110
        assert g.masks[2] == 0b1001
        assert g.masks[2] >> 0 & 1 and not g.masks[1] >> 2 & 1

    def test_masks_mirror_adjacency(self):
        g = gnp_random(12, 0.4, seed=3)
        for v in range(g.n):
            nbrs = [w for e in g.edges if v in e for w in e if w != v]
            assert g.masks[v] == set_to_mask(nbrs)
            assert g.degree(v) == len(nbrs)

    def test_validation(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])
        with pytest.raises(InputError):
            Graph(-1)
        with pytest.raises(InputError, match="got True"):
            Graph(True)
        g = Graph(0)
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize("n", [2**62, 2**63])
    def test_vertex_count_too_large(self, n):
        # both counts are refused before anything is allocated: 2**62
        # masks exceed the largest list, 2**63 the largest index
        with pytest.raises(InputError, match=f"vertex count {n} is too large"):
            Graph(n)

    @pytest.mark.parametrize(
        "edges,match",
        [
            ([(0, 1.0)], r"edge \(0, 1\.0\) is not a pair of ints"),
            ([(0,)], r"edge \(0,\) is not a pair of ints"),
            ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of ints"),
            ([(0, "1")], r"edge \(0, '1'\) is not a pair of ints"),
            ([(5, 5)], "out of range"),
            (None, "edges must be an iterable of pairs, got None"),
            (5, "edges must be an iterable of pairs, got 5"),
        ],
        ids=["float", "one-tuple", "triple", "str", "loop-out-of-range", "none", "int"],
    )
    def test_bad_edges_raise_input_error(self, edges, match):
        with pytest.raises(InputError, match=match):
            Graph(3, edges)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])
        assert a != Graph(4, [(0, 1), (1, 2)])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edges_derived_from_masks(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        # (u, u + d mod n) with 0 < d < n is never a self-loop
        pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda t: (t[0], (t[0] + t[1]) % n)
        )
        pairs = data.draw(st.lists(pair, max_size=40), label="pairs")
        # repeat some pairs and flip some, then shuffle the whole list
        pairs += data.draw(st.lists(st.sampled_from(pairs)) if pairs else st.just([]), label="repeats")
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="flips")
        pairs = [e[::-1] if f else e for e, f in zip(pairs, flips)]
        g = Graph(n, pairs)
        expected = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))
        assert g.edges == expected and g.m == len(expected)
        h = Graph(n, data.draw(st.permutations(pairs), label="order"))
        assert h == g and hash(h) == hash(g)
        assert parse_dimacs(write_dimacs(g)) == g


class TestMasks:
    def test_bits_roundtrip(self):
        for mask in (0, 1, 0b1011010, (1 << 40) | 5):
            assert set_to_mask(bits_of(mask)) == mask
        assert mask_to_set(0b101) == frozenset({0, 2})
        assert list(bits_of(0b10110)) == [1, 2, 4]

    def test_connectivity(self):
        assert is_connected(path(6))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))
        two_parts = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert not is_connected(two_parts)
        with pytest.raises(InputError):
            is_connected(Graph(0))

    def test_grow_piece_joins_target(self):
        # the target vertices share a piece iff the grown piece covers them
        two_parts = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        masks, live = two_parts.masks, two_parts.full_mask()
        assert grow_piece(masks, 0, live, 0) == (0, 0)
        assert grow_piece(masks, 1 << 4, live, 1 << 4) == (1 << 4, 0)
        assert grow_piece(masks, 0b1, live, 0b101) == (0b111, 0b111)
        assert grow_piece(masks, 0b1, live & ~(1 << 1), 0b101) == (0b1, 0b10)
        assert grow_piece(masks, 0b1, live, 0b1001) == (0b111, 0b111)
        assert grow_piece(masks, 0b1000, live, 0b111000) == (0b111000, 0b111000)
        # with target == live it is is_connected_mask, checked here against
        # the set-based component count
        for seed in range(20):
            g = gnp_random(12, 0.2, seed)
            for live in (g.full_mask(), g.full_mask() & ~0b1010, 0, 1 << 5):
                assert is_connected_mask(g.masks, live) == (_component_count(g, live=live) <= 1)

    def test_grow_piece_stops_once_target_is_covered(self):
        g = path(6)  # 0-1-2-3-4-5
        # levels {0}, {1}, {2}: vertex 2 is reached but never expanded
        assert grow_piece(g.masks, 0b1, g.full_mask(), 0b100) == (0b111, 0b111)
        # a target held by the seed stops the BFS before it starts
        assert grow_piece(g.masks, 0b10, g.full_mask(), 0b10) == (0b10, 0)

    def test_grow_piece_returns_component_and_neighbour_union(self):
        g = path(6)
        live = g.full_mask() & ~(1 << 3)
        # reach holds the neighbour 3 outside live; a target outside the
        # component cannot stop the BFS early
        for target in (-1, 1 << 5):
            assert grow_piece(g.masks, 0b1, live, target) == (0b111, 0b1111)
        for seed in range(20):
            g = gnp_random(14, 0.15, seed)
            live = g.full_mask() & ~(0b1001 << seed % 10)  # a few vertices out
            for v in bits_of(live):
                piece, reach = grow_piece(g.masks, 1 << v, live)
                # one whole component of live
                assert _component_count(g, live=piece) == 1
                assert _component_count(g, live=live & ~piece) == _component_count(g, live=live) - 1
                # the neighbours of the piece, read off the edge list
                assert reach == set_to_mask(
                    w for e in g.edges for w, u in (e, e[::-1]) if piece >> u & 1
                )

    def test_connected_after_removal_matches_naive(self):
        for seed in range(20):
            g = gnp_random(9, 0.3, seed)
            live = g.full_mask()
            for v in range(g.n):
                naive = g.n == 1 or _component_count(g, skip=v) == 1
                assert is_connected_mask(g.masks, live & ~(1 << v)) == naive


class TestBfsForest:
    def test_by_hand(self):
        g = path(5)  # 0-1-2-3-4
        assert bfs_forest(g.masks, g.full_mask()) == ({1: 0, 2: 1, 3: 2, 4: 3}, [0])
        assert bfs_forest(g.masks, g.full_mask(), [2]) == ({1: 2, 3: 2, 0: 1, 4: 3}, [2])
        # two seeds search at once; vertex 3 left out of live splits off 4
        assert bfs_forest(g.masks, 0b10111, [2, 0]) == ({1: 2}, [2, 0, 4])
        star = Graph(5, [(0, 4), (0, 2), (0, 3), (0, 1)])
        assert bfs_forest(star.masks, star.full_mask(), [3]) == ({0: 3, 1: 0, 2: 0, 4: 0}, [3])
        assert bfs_forest(star.masks, 0) == ({}, [])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_forest_properties(self, data):
        n = data.draw(st.integers(0, 40), label="n")
        p = data.draw(st.floats(0.0, 0.5), label="p")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        if data.draw(st.booleans(), label="bipartite"):
            g = bipartite_random(n // 2, n - n // 2, p, seed)
        else:
            g = gnp_random(n, p, seed)
        live = data.draw(st.integers(0, g.full_mask()) | st.just(g.full_mask()), label="live")
        members = list(bits_of(live))
        seeds = data.draw(
            st.lists(st.sampled_from(members), unique=True, max_size=3) if members
            else st.just([]),
            label="seeds",
        )
        parent, roots = bfs_forest(g.masks, live, seeds)
        assert roots[: len(seeds)] == seeds
        # every vertex of live is a root or has a parent, never both
        assert sorted(roots + list(parent)) == members
        order = {v: i for i, v in enumerate(parent)}
        for v, u in parent.items():
            assert g.masks[v] >> u & 1 and live >> u & 1
            assert u in roots or order[u] < order[v]
        trees, depth = {}, {}
        for v in members:
            w, hops = v, 0
            while w in parent:
                w, hops = parent[w], hops + 1
            trees[w] = trees.get(w, 0) | 1 << v
            depth[v] = hops
        # the trees are the components of G[live], the seeds' counting as
        # one, and each vertex's depth is its distance from the tree's
        # root, or from the nearest seed
        groups = [set_to_mask(seeds)] if seeds else []
        groups.extend(1 << root for root in roots[len(seeds) :])
        for group in groups:
            assert grow_piece(g.masks, group, live)[0] == sum(trees[r] for r in bits_of(group))
            level, seen, frontier = 0, group, group
            while frontier:
                reach = 0
                for v in bits_of(frontier):
                    assert depth[v] == level
                    reach |= g.masks[v]
                frontier = reach & live & ~seen
                seen |= frontier
                level += 1
        for root in roots[len(seeds) :]:
            assert trees[root] & -trees[root] == 1 << root


class TestArticulation:
    def test_families(self):
        assert articulation_points(path(5)) == frozenset({1, 2, 3})
        assert articulation_points(cycle(6)) == frozenset()
        assert articulation_points(complete(4)) == frozenset()
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert articulation_points(star) == frozenset({0})
        bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert articulation_points(bowtie) == frozenset({2})

    def test_matches_deletion_definition(self):
        # a cut vertex is one whose deletion increases the component count
        for seed in range(40):
            g = gnp_random(10, 0.25, seed)
            base = _component_count(g)
            naive = frozenset(
                v
                for v in range(g.n)
                if g.degree(v) > 0 and _component_count(g, skip=v) > base
            )
            assert articulation_points(g) == naive, f"seed {seed}"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mask_matches_deletion_definition(self, data):
        # n up to 70 puts masks past one 64-bit word; live masks may be
        # empty, a single vertex, or split into several components
        n = data.draw(st.integers(0, 70), label="n")
        p = data.draw(st.sampled_from((0.03, 0.06, 0.1, 0.2, 0.4)), label="p")
        g = gnp_random(n, p, data.draw(st.integers(0, 2**32), label="seed"))
        full = g.full_mask()
        choices = [st.just(full), st.just(0), st.integers(0, full)]
        if n:
            choices.append(st.integers(0, n - 1).map(lambda v: 1 << v))
            choices.append(st.tuples(st.integers(0, full), st.integers(0, full))
                           .map(lambda ab: ab[0] & ab[1]))
        live = data.draw(st.one_of(choices), label="live")
        base = _component_count(g, live=live)
        naive = set_to_mask(
            v for v in bits_of(live) if _component_count(g, skip=v, live=live) > base
        )
        assert articulation_points_mask(g.masks, live) == naive


class TestSplitters:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_cut_pass(self, data):
        # G is the component of vertex 0 in a G(n, p) or bipartite draw; S
        # grows by random include steps, each after an optional exclude step
        # that thins the candidates.  At each step the splitters of v's
        # neighbours among the candidates W are the cut vertices of
        # G - S - v in W
        n = data.draw(st.integers(1, 40), label="n")
        p = data.draw(st.floats(0.05, 0.5), label="p")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        if data.draw(st.booleans(), label="bipartite"):
            g = bipartite_random(n // 2, n - n // 2, p, seed)
        else:
            g = gnp_random(n, p, seed)
        live = grow_piece(g.masks, 1, g.full_mask())[0]
        umask = live & ~articulation_points_mask(g.masks, live)
        # a lone vertex 0 has no neighbours to split
        while umask and live != 1:
            v = data.draw(st.sampled_from(list(bits_of(umask))), label="v")
            rmask = umask & ~(1 << v)
            if data.draw(st.booleans(), label="thin"):
                rmask &= data.draw(st.integers(0, rmask), label="kept")
            live &= ~(1 << v)
            group = rmask & ~g.masks[v]
            cut = splitters(g.masks, live, group, g.masks[v])
            assert cut == articulation_points_mask(g.masks, live) & group
            umask = group & ~cut

    def test_by_hand(self):
        # including 0 in a cycle leaves the path 1..n-1, whose inner
        # vertices all split 0's neighbours 1 and n - 1
        g = cycle(8)
        assert splitters(g.masks, 0b11111110, 0b01111100, g.masks[0]) == 0b01111100
        assert splitters(g.masks, 0b11111110, 0b00101000, g.masks[0]) == 0b00101000
        # in the whole cycle each deletion leaves a path: 0 and 4 stay
        # joined, though deleting the whole group splits them
        assert splitters(g.masks, g.full_mask(), 0b11101110, 0b10001) == 0
        # one-vertex groups: deleting 1 leaves the cycle's other side
        assert splitters(g.masks, g.full_mask(), 0b10, 0b101) == 0
        g = path(5)  # 0-1-2-3-4
        assert splitters(g.masks, g.full_mask(), 0b100, 0b10001) == 0b100
        assert splitters(g.masks, g.full_mask(), 0b1110, 0b10001) == 0b1110
        # the group may lie off every path between the targets
        assert splitters(g.masks, g.full_mask(), 0b11000, 0b111) == 0
        # a one-vertex target is always joined, an empty group never split
        assert splitters(g.masks, g.full_mask(), 0b11100, 0b1) == 0
        assert splitters(g.masks, g.full_mask(), 0, 0b10001) == 0
        # a target already split in live has every vertex of the group as
        # a splitter
        assert splitters(g.masks, 0b11011, 0b10, 0b10001) == 0b10


class TestOperations:
    def test_spanning_tree_count(self):
        assert spanning_tree_count(Graph(1)) == 1
        assert spanning_tree_count(path(6)) == 1
        assert spanning_tree_count(cycle(7)) == 7
        assert spanning_tree_count(complete(4)) == 16  # Cayley: n^(n-2)
        assert spanning_tree_count(complete(5)) == 125
        k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert spanning_tree_count(k33) == 81
        assert spanning_tree_count(Graph(3, [(0, 1)])) == 0

    def test_spanning_tree_count_is_exact(self):
        for n in range(2, 13):
            assert spanning_tree_count(complete(n)) == n ** (n - 2), n
        # past float precision: a float determinant is off in the low digits
        assert spanning_tree_count(complete(20)) == 20**18


class TestDimacs:
    def test_write_golden(self):
        g = Graph(3, [(1, 2), (0, 2)])
        assert write_dimacs(g) == "p edge 3 2\ne 1 3\ne 2 3\n"

    def test_roundtrip(self):
        for seed in range(15):
            g = gnp_random(11, 0.35, seed)
            assert parse_dimacs(write_dimacs(g)) == g

    def test_comments_and_blank_lines(self):
        g = parse_dimacs("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
        assert g == Graph(2, [(0, 1)])

    def test_duplicate_edge_warns(self):
        with pytest.warns(UserWarning, match="duplicate edge"):
            g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n")
        assert g.m == 2

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares m=5"):
            parse_dimacs("p edge 3 5\ne 1 2\n")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("e 1 2\n", "edge before problem"),
            ("p edge 2 1\np edge 2 1\n", "repeated problem"),
            ("p clique 2 1\n", "malformed problem"),
            ("p edge 2 x\n", "malformed problem"),
            ("p edge 2 1\ne 1\n", "malformed edge"),
            ("p edge 2 1\ne 1 5\n", "out of range"),
            ("p edge 2 1\ne 2 2\n", "self-loop"),
            ("p edge 2 1\nq 1 2\n", "unknown line type"),
            ("c only comments\n", "no problem line"),
            ("p edge -1 0\n", "negative counts"),
            ("p edge 2 1\ne 1 x\n", "malformed edge"),
        ],
    )
    def test_structural_errors(self, text, match):
        with pytest.raises(DimacsError, match=match):
            parse_dimacs(text)

    def test_blanks_tabs_crlf_and_comment_forms(self):
        # fields split on any whitespace, a first field starting with "c"
        # is a comment, and a whitespace-only line is skipped
        text = (
            "  c leading blanks\r\n\tp edge 4 3 \r\ncfoo glued comment\r\n \t \r\n"
            "e\t1 2\r\n   e 3 2\r\n\te 4  3\t\r\n\x0c\r\n  cx\n"
        )
        assert parse_dimacs(text) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p edge 3 1\n  e 1 2 3\n", "line 2: malformed edge line '  e 1 2 3'"),
            ("\te 1 2\n", "line 1: edge before problem line '\\te 1 2'"),
            ("p edge 2 1\r\n\r\nc x\r\ne 1 3\r\n", "line 4: vertex out of range in 'e 1 3' (n=2)"),
            ("p edge 2 1\n \t\n\te\t2 2\n", "line 3: self-loop in '\\te\\t2 2'"),
            ("p edge 2 1\n  x 1 2\n", "line 2: unknown line type '  x 1 2'"),
            ("p edge 2 1\ne1 2\n", "line 2: unknown line type 'e1 2'"),
            (" p edge 2 1\r\n\tp edge 2 1\r\n", "line 2: repeated problem line '\\tp edge 2 1'"),
            ("p edge 2 1 9\n", "line 1: malformed problem line 'p edge 2 1 9'"),
            ("p\tedge -2 1\n", "line 1: negative counts in 'p\\tedge -2 1'"),
            ("p edge 2 1\ne 1 1.5\n", "line 2: malformed edge line 'e 1 1.5'"),
            ("  c only\n\t\n", "no problem line found"),
        ],
    )
    def test_messages_name_the_raw_line(self, text, message):
        with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
            parse_dimacs(text)

    def test_duplicate_warning_names_the_raw_line(self):
        with pytest.warns(UserWarning, match=re.escape("line 3: duplicate edge line ' e 2 1' collapsed")):
            g = parse_dimacs("p edge 2 1\r\ne 1 2\r\n e 2 1\r\n")
        assert g == Graph(2, [(0, 1)])


def _gnp_reference(n, p, seed):
    """G(n, p) as one random() call per pair: the loop that
    Xoshiro256.below replaces, kept as the reference."""
    rng = Xoshiro256(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges)


def _bipartite_reference(n1, n2, p, seed):
    rng = Xoshiro256(seed)
    edges = []
    for i in range(n1):
        for j in range(n2):
            if rng.random() < p:
                edges.append((i, n1 + j))
    return Graph(n1 + n2, edges)


# edge probabilities: the ends of [0, 1] and the floats next to them, a
# few exact non-float types, and arbitrary floats
PROBABILITIES = st.one_of(
    st.sampled_from(
        [
            0.0,
            1.0,
            5e-324,
            2.0**-53,
            0.5,
            1 - 2.0**-53,
            Fraction(1, 3),
            0,
            1,
            Decimal("0.3"),
            Decimal("0.1234567890123456789012345678901"),
        ]
    ),
    st.floats(0.0, 1.0),
)


class TestGenerators:
    def test_gnp_deterministic(self):
        assert gnp_random(20, 0.3, 7) == gnp_random(20, 0.3, 7)
        assert gnp_random(20, 0.3, 7) != gnp_random(20, 0.3, 8)

    def test_gnp_extremes(self):
        assert gnp_random(8, 0.0, 1).m == 0
        assert gnp_random(8, 1.0, 1) == complete(8)
        with pytest.raises(InputError):
            gnp_random(8, 1.5, 1)
        with pytest.raises(InputError):
            gnp_random(-2, 0.5, 1)

    @pytest.mark.parametrize(
        "draw,match",
        [
            (lambda: gnp_random(10, "0.5", 1), "edge probability .* got '0.5'"),
            (lambda: gnp_random(10, 1j, 1), r"edge probability .* got 1j"),
            (lambda: gnp_random(10, 0.5, "x"), "seed must be an int, got 'x'"),
            (lambda: gnp_random(10, 0.5, 1.0), "seed must be an int, got 1.0"),
            (lambda: bipartite_random(3, 4, "0.5", 1), "edge probability .* got '0.5'"),
            (lambda: gnp_random(5, Decimal("NaN"), 1), r"edge probability .* got Decimal\('NaN'\)"),
            (lambda: bipartite_random(3, 4, Decimal("sNaN"), 1),
             r"edge probability .* got Decimal\('sNaN'\)"),
            (lambda: bipartite_random(3, 4, 0.5, "x"), "seed must be an int, got 'x'"),
            (lambda: gnp_random(True, 0.5, 1), "vertex count .* got True"),
            (lambda: bipartite_random(True, 4, 0.5, 1), "side sizes .* got True, 4"),
            (lambda: bipartite_random(3, False, 0.5, 1), "side sizes .* got 3, False"),
        ],
        ids=[
            "gnp-str-p",
            "gnp-complex-p",
            "gnp-str-seed",
            "gnp-float-seed",
            "bip-str-p",
            "gnp-decimal-nan-p",
            "bip-decimal-snan-p",
            "bip-str-seed",
            "gnp-bool-n",
            "bip-bool-n1",
            "bip-bool-n2",
        ],
    )
    def test_bad_draw_arguments_raise_input_error(self, draw, match):
        with pytest.raises(InputError, match=match):
            draw()

    def test_first_connected_scans_seeds_upward(self):
        # G(30, 0.1): the draws from seeds 1-3 are disconnected, 4 is not
        assert [is_connected(gnp_random(30, 0.1, s)) for s in range(1, 5)] == [
            False, False, False, True,
        ]
        assert first_connected(gnp_random, (30, 0.1), 1) == (gnp_random(30, 0.1, 4), 4)
        assert first_connected(gnp_random, (30, 0.1), 4, 0) == (gnp_random(30, 0.1, 4), 4)
        g, used = first_connected(bipartite_random, (10, 12, 0.3), 5)
        assert used == 7 and g == bipartite_random(10, 12, 0.3, 7)
        # one vertex counts as connected
        assert first_connected(gnp_random, (1, 0.0), 9) == (Graph(1), 9)

    @pytest.mark.parametrize(
        "draw,n",
        [
            (lambda: gnp_random(2**70, 0.0, 1), 2**70),
            (lambda: gnp_random(sys.maxsize + 1, 0.5, 1), sys.maxsize + 1),
            (lambda: bipartite_random(2**70, 1, 0.0, 1), 2**70 + 1),
            (lambda: bipartite_random(sys.maxsize, 1, 0.5, 1), sys.maxsize + 1),
        ],
        ids=["gnp-2**70", "gnp-maxsize+1", "bip-2**70+1", "bip-maxsize+1"],
    )
    def test_huge_vertex_count_draws_nothing(self, monkeypatch, draw, n):
        # Graph refuses a count past sys.maxsize before it allocates, and
        # the generators draw inside it, so the stream is never even seeded
        def no_stream(seed):
            raise AssertionError("a stream was seeded for a refused vertex count")

        monkeypatch.setattr(graph_module, "Xoshiro256", no_stream)
        with pytest.raises(InputError, match=f"^vertex count {n} is too large$"):
            draw()

    def test_first_connected_checks_params_against_the_signature(self):
        with pytest.raises(InputError, match=r"^params \(\) and a seed do not fit gnp_random: missing a required argument: 'p'$"):
            first_connected(gnp_random, (), 1)
        with pytest.raises(InputError, match=r"^params \(5, 0\.5, 2\) and a seed do not fit gnp_random: too many positional"):
            first_connected(gnp_random, (5, 0.5, 2), 1)
        with pytest.raises(InputError, match="do not fit bipartite_random: missing a required argument: 'p'$"):
            first_connected(bipartite_random, (5,), 1)
        calls = []

        def broken(n, p, seed):
            calls.append(seed)
            raise TypeError("raised inside the generator")

        # a TypeError of the generator's own is not taken for a bad signature
        with pytest.raises(TypeError, match="^raised inside the generator$"):
            first_connected(broken, (5, 0.5), 1)
        assert calls == [1]

    def test_first_connected_runs_out_of_reseeds(self):
        seeds = []

        def draw(n, p, seed):
            seeds.append(seed)
            return gnp_random(n, p, seed)

        with pytest.raises(InputError, match="no connected sample within 3 reseeds from seed 1$"):
            first_connected(draw, (5, 0.0), 1, 3)
        assert seeds == [1, 2, 3, 4]
        with pytest.raises(InputError, match="within 1000 reseeds from seed -2$"):
            first_connected(gnp_random, (5, 0), -2)

    def test_gnp_density(self):
        g = gnp_random(60, 0.25, 11)
        pairs = 60 * 59 // 2
        assert 0.18 < g.m / pairs < 0.32

    def test_bipartite_sides(self):
        g = bipartite_random(5, 7, 0.5, 3)
        assert g.n == 12
        for u, v in g.edges:
            assert u < 5 <= v
        assert bipartite_random(5, 7, 0.5, 3) == g
        full = bipartite_random(3, 4, 1.0, 0)
        assert full.m == 12

    def test_pinned_instances(self):
        # a change to any generated instance shows here first, before it
        # shows as a benchmark LP digest or a node-count pin
        pins = [
            (gnp_random(200, 0.05, 101), "7b37ff71e89d7a48ce2cf7a3ef6ae15c11158c0a3e50e128a1c22e01e715f000"),
            (gnp_random(60, 0.1, 101), "21c0a4001fa6458b84bdf5d0e500519e88970f1fdd3b6d8f4f408c9e694e044b"),
            (bipartite_random(30, 30, 0.2, 11), "5d4c6afc3eb8176e49cc3520d82b95dfaa4f445722d1c09367db23ca7e6ff5d3"),
            # recorded from the one-draw-at-a-time loop, before the lane kernel
            (gnp_random(500, 0.02, 101), "88ae81a112531e2c1ee414b3a0aa16f6fa3bb5b8d31823c3572a5cb46bb32aca"),
            (bipartite_random(200, 200, 0.05, 11), "db870e0f60280401d577705dae2065be7b470f10d7ecd508a24719de79fe65a7"),
        ]
        for g, digest in pins:
            text = "".join(f"{u} {v}\n" for u, v in g.edges)
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 40),
        p=PROBABILITIES,
        seed=st.integers(-(2**64), 2**64),
    )
    def test_gnp_matches_per_draw_loop(self, n, p, seed):
        assert gnp_random(n, p, seed) == _gnp_reference(n, p, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(0, 20),
        n2=st.integers(0, 20),
        p=PROBABILITIES,
        seed=st.integers(-(2**64), 2**64),
    )
    def test_bipartite_matches_per_draw_loop(self, n1, n2, p, seed):
        assert bipartite_random(n1, n2, p, seed) == _bipartite_reference(n1, n2, p, seed)


MASK64 = (1 << 64) - 1


def _reference_stream(seed):
    """Reimplementation of the documented stream, structured differently
    on purpose so the two can only agree by computing the same thing."""
    state = []
    x = seed & MASK64
    for _ in range(4):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        state.append(z ^ (z >> 31))
    if not any(state):
        state[0] = 1

    def rot(v, k):
        return ((v << k) | (v >> (64 - k))) & MASK64

    while True:
        s0, s1, s2, s3 = state
        yield (rot((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        state = [s0, s1, s2, rot(s3, 45)]


LANE_COUNTS = (1, 2, 3, 7, 16, 32)


def _state(rng):
    return rng._s0, rng._s1, rng._s2, rng._s3


def _lane_below(rng, count, p, lanes):
    """`rng.below(count, p)` through the lane kernel with `lanes` lanes,
    whatever the count."""
    threshold = math.ceil(Fraction(p) * 2**53) << 11
    hits, state = rng_module._below_lanes(_state(rng), count, threshold, lanes)
    rng._s0, rng._s1, rng._s2, rng._s3 = state
    return hits


class TestRng:
    def test_against_reference_stream(self):
        for seed in (0, 1, 42, 2**64 - 1, 123456789, -5):
            rng = Xoshiro256(seed)
            ref = _reference_stream(seed)
            for _ in range(500):
                assert rng.next_u64() == next(ref)

    def test_frozen_first_draws(self):
        # frozen outputs guard the stream against accidental edits
        expected = {
            0: [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0],
            1: [0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514],
            42: [0x15780B2E0C2EC716, 0x6104D9866D113A7E, 0xAE17533239E499A1],
        }
        for seed, draws in expected.items():
            rng = Xoshiro256(seed)
            assert [rng.next_u64() for _ in range(3)] == draws

    def test_floats_in_unit_interval(self):
        rng = Xoshiro256(9)
        vals = [rng.random() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in vals)
        assert abs(sum(vals) / len(vals) - 0.5) < 0.03

    @settings(max_examples=100, deadline=None)
    @given(
        count=st.integers(0, 3000),
        p=PROBABILITIES,
        seed=st.integers(-(2**64), 2**64),
    )
    def test_below_matches_random_calls(self, count, p, seed):
        fast, slow = Xoshiro256(seed), Xoshiro256(seed)
        hits = fast.below(count, p)
        assert hits == [k for k in range(count) if slow.random() < p]
        # the stream goes on where `count` calls to random() leave it
        assert fast.next_u64() == slow.next_u64()

    def test_below_at_the_threshold(self):
        # the first draw of seed 0 whose low 11 bits are zero equals its own
        # threshold when p is its float, so a `<=` test or a rounded
        # threshold counts it wrongly; random draws almost never probe this
        stream = Xoshiro256(0)
        draws = [stream.next_u64() for _ in range(20_000)]
        k = next(i for i, d in enumerate(draws) if d & 0x7FF == 0 and d >> 11)
        m = draws[k] >> 11
        with localcontext() as ctx:
            ctx.prec = 100
            # above the draw by far less than 28 digits resolve
            decimal_above = Decimal(m * 2.0**-53) + Decimal("1e-40")
        cases = [
            (m * 2.0**-53, False),
            (Fraction(2 * m - 1, 2**54), False),
            (Fraction(2 * m + 1, 2**54), True),
            (decimal_above, True),
        ]
        reference = Xoshiro256(0)
        float_k = [reference.random() for _ in range(k + 1)][k]
        # three lanes of k // 2 + 1 draws put draw k in lane 1
        lanes, chunk = 3, k // 2 + 1
        assert k // chunk == 1
        for p, hit in cases:
            assert (float_k < p) == hit
            assert (k in Xoshiro256(0).below(k + 1, p)) == hit
            assert (k in _lane_below(Xoshiro256(0), lanes * chunk, p, lanes)) == hit

    @settings(max_examples=150, deadline=None)
    @given(
        count=st.integers(0, 300),
        lanes=st.sampled_from(LANE_COUNTS),
        p=PROBABILITIES,
        seed=st.integers(-(2**64), 2**64),
    )
    def test_lanes_match_random_calls(self, count, lanes, p, seed):
        self._check_lanes(count, lanes, p, seed)

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_lanes_at_small_and_uneven_counts(self, lanes):
        # below one draw per lane, exact multiples, and one to a few over
        counts = {0, 1, lanes - 1, lanes, lanes + 1, 3 * lanes + 2, 5 * lanes - 1, 97}
        for count in sorted(counts):
            for p in (0, 1, 5e-324, 2.0**-53, 1 - 2.0**-53, Fraction(1, 3), Decimal("0.3"), 0.05):
                self._check_lanes(count, lanes, p, seed=count * 31 + lanes)

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_lanes_exact_at_every_threshold(self, lanes):
        # thresholds at and one above a draw of each lane: a garbage bit
        # that leaks into a lane's low draw bits flips one of them, while
        # the float thresholds (multiples of 2**11) almost never see it
        count = 5 * lanes + 3
        for seed in (1, 2, 3):
            stream = Xoshiro256(seed)
            start = _state(stream)
            draws = [stream.next_u64() for _ in range(count)]
            for k in range(0, count, count // lanes):
                for threshold in (draws[k], draws[k] + 1):
                    hits, end = rng_module._below_lanes(start, count, threshold, lanes)
                    assert hits == [i for i, d in enumerate(draws) if d < threshold]
                    assert end == _state(stream)

    @pytest.mark.parametrize("count", [1770, 3160, 32 * 258 + 5])
    def test_below_through_the_lanes(self, count):
        # the public path at the solver workloads' base draws and with five
        # leftover draws after 32 lanes, against random() calls
        for seed, p in ((3, 0.02), (4, Fraction(2, 3)), (5, 1), (6, 0)):
            fast, slow = Xoshiro256(seed), Xoshiro256(seed)
            assert fast.below(count, p) == [k for k in range(count) if slow.random() < p]
            assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize(
        "draw,match",
        [
            (lambda: Xoshiro256(1).below(10, 1.5), r"edge probability .* got 1\.5$"),
            (lambda: Xoshiro256(1).below(10, "x"), "edge probability .* got 'x'$"),
            (lambda: Xoshiro256(1).below(10, math.nan), "edge probability .* got nan$"),
            (lambda: Xoshiro256(1).below(-5, 0.5), "draw count .* got -5$"),
            (lambda: Xoshiro256(1).below(2.5, 0.5), r"draw count .* got 2\.5$"),
            (lambda: Xoshiro256(1).below("x", 0.5), "draw count .* got 'x'$"),
            (lambda: Xoshiro256(1).below(True, 0.5), "draw count .* got True$"),
            (lambda: Xoshiro256(1.5), r"seed must be an int, got 1\.5$"),
        ],
        ids=["p-above-1", "str-p", "nan-p", "negative-count", "float-count", "str-count",
             "bool-count", "float-seed"],
    )
    def test_bad_arguments_raise_input_error(self, draw, match):
        with pytest.raises(InputError, match=match):
            draw()

    @staticmethod
    def _check_lanes(count, lanes, p, seed):
        fast, slow = Xoshiro256(seed), Xoshiro256(seed)
        assert _lane_below(fast, count, p, lanes) == [k for k in range(count) if slow.random() < p]
        assert fast.next_u64() == slow.next_u64()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_jump_equals_single_steps(self, seed):
        for k in (0, 1, 63, 255, 256, 257, 10007):
            stepped = Xoshiro256(seed)
            start = _state(stepped)
            for _ in range(k):
                stepped.next_u64()
            jumped = rng_module._apply_poly(rng_module._jump_poly(k), start, 1)
            assert jumped == _state(stepped)

    def test_charpoly_degree(self):
        assert rng_module._CHARPOLY.bit_length() - 1 == 256

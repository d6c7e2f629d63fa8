import random

import pytest
from hypothesis import given, strategies as st

from cliquesep.geometry import SCALE, PointSite, Rect
from cliquesep.graphs import Graph, _mask
from cliquesep.oracles import (StrictOrder, TooLargeError, brute_clique_cover,
                               brute_disccover, brute_length, brute_mis,
                               brute_pierce, interval_graph, interval_order,
                               order_from_length1_cover, poset_dimension)


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(n, edges)


class TestBruteMis:
    def test_empty_graph(self):
        assert brute_mis(Graph(5))[0] == 5

    def test_complete_graph(self):
        assert brute_mis(clique(5))[0] == 1

    def test_five_cycle(self):
        size, witness = brute_mis(cycle(5))
        assert size == 2
        u, v = sorted(witness)
        assert not cycle(5).has_edge(u, v)

    def test_witness_is_independent_and_max(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 10)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            G = Graph(n, edges)
            size, witness = brute_mis(G)
            assert len(witness) == size
            for u in witness:
                assert not (G.adj[u] & witness)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            brute_mis(Graph(25))


class TestBruteCliqueCover:
    def test_one_clique(self):
        assert brute_clique_cover(clique(4)) == 1

    def test_edgeless(self):
        assert brute_clique_cover(Graph(4)) == 4

    def test_five_cycle(self):
        assert brute_clique_cover(cycle(5)) == 3

    def test_at_least_independence_number(self):
        rng = random.Random(1)
        for _ in range(15):
            n = rng.randint(1, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            G = Graph(n, edges)
            assert brute_clique_cover(G) >= brute_mis(G)[0]


class TestBrutePierce:
    def test_single_rect(self):
        assert brute_pierce([Rect(0, SCALE, 0)])[0] == 1

    def test_disjoint_rects(self):
        rects = [Rect(3 * i * SCALE, 3 * i * SCALE + SCALE, 0)
                 for i in range(4)]
        size, pts = brute_pierce(rects)
        assert size == 4
        for r in rects:
            assert any(r.contains_point(p.x, p.y) for p in pts)

    def test_common_point(self):
        rects = [Rect(0, 2 * SCALE, i * SCALE // 4) for i in range(4)]
        assert brute_pierce(rects)[0] == 1

    def test_empty(self):
        assert brute_pierce([]) == (0, [])


class TestBruteDiscCover:
    def test_single_point(self):
        assert brute_disccover([PointSite(0, 0)])[0] == 1

    def test_two_points_at_distance_one(self):
        size, discs = brute_disccover([PointSite(0, 0), PointSite(SCALE, 0)])
        assert size == 1

    def test_far_points_need_own_discs(self):
        pts = [PointSite(0, 0), PointSite(3 * SCALE, 0),
               PointSite(6 * SCALE, 0)]
        size, discs = brute_disccover(pts)
        assert size == 3
        for p in pts:
            assert any(d.covers(p) for d in discs)

    def test_empty(self):
        assert brute_disccover([]) == (0, [])


class TestBruteLength:
    def test_clique_is_zero(self):
        G = clique(4)
        assert brute_length(G, G) == 0

    def test_path_four_is_one(self):
        G = path(4)
        assert brute_length(G, G) == 1

    def test_four_cycle_is_one(self):
        G = cycle(4)
        val, parts = brute_length(G, G, witness=True)
        assert val == 1
        assert len(parts) == 2 and all(len(p) == 2 for p in parts)

    def test_witness_has_claimed_length(self):
        from cliquesep.graphs import cover_length, verify_clique_cover
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(1, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            G = Graph(n, edges)
            val, parts = brute_length(G, G, witness=True)
            cov = tuple(_mask(p) for p in parts)
            assert verify_clique_cover(G, cov)
            assert cover_length(G, cov).value <= max(val, 0)

    def test_star_needs_length_of_one(self):
        G = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert brute_length(G, G) == 1


class TestOrderFromCover:
    def test_single_clique_gives_empty_order(self):
        G = clique(3)
        chk = order_from_length1_cover(G, (0b111,))
        assert chk.ok and chk.order.relation == frozenset()

    def test_path_three(self):
        G = path(3)
        chk = order_from_length1_cover(G, (0b011, 0b100))
        assert chk.ok
        assert chk.order.relation == frozenset({(0, 2)})

    def test_rejects_long_cover(self):
        G = Graph(3, [(0, 2)])
        with pytest.raises(ValueError, match="length greater than 1"):
            order_from_length1_cover(G, (0b001, 0b010, 0b100))

    @given(graphs(max_n=6))
    def test_any_length1_self_cover_yields_an_order(self, G):
        val, parts = brute_length(G, G, witness=True)
        if val > 1:
            return
        cov = tuple(_mask(p) for p in parts)
        assert order_from_length1_cover(G, cov).ok


class TestPosetDimension:
    def test_chain_is_one(self):
        rel = frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
        assert poset_dimension(StrictOrder(4, rel)) == 1

    def test_antichain_is_two(self):
        assert poset_dimension(StrictOrder(3, frozenset())) == 2

    def test_standard_example_s3(self):
        rel = frozenset((i, 3 + j) for i in range(3) for j in range(3)
                        if i != j)
        assert poset_dimension(StrictOrder(6, rel)) == 3

    def test_rejects_invalid_order(self):
        rel = frozenset({(0, 1), (1, 2)})  # not transitive
        with pytest.raises(ValueError):
            poset_dimension(StrictOrder(3, rel))

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            poset_dimension(StrictOrder(9, frozenset()))


class TestIntervalHelpers:
    def test_graph_and_order_partition_pairs(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            ivs = [(a := rng.randint(0, 15), a + rng.randint(0, 6))
                   for _ in range(n)]
            G = interval_graph(ivs)
            order = interval_order(ivs)
            assert not order.violations()
            for i in range(n):
                for j in range(i + 1, n):
                    comparable = (i, j) in order.relation or \
                        (j, i) in order.relation
                    assert comparable != G.has_edge(i, j)

    def test_dimension_bounded_by_length_plus_two(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(2, 7)
            ivs = [(a := rng.randint(0, 15), a + rng.randint(0, 6))
                   for _ in range(n)]
            G = interval_graph(ivs)
            assert poset_dimension(interval_order(ivs)) <= \
                brute_length(G, G) + 2

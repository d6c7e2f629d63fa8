import random

import pytest
from hypothesis import given, strategies as st

from cliquesep.chordal import (NotChordalError, balanced_clique_separator,
                               clique_tree, maximal_cliques_chordal, mcs_order)
from cliquesep.graphs import (Graph, OrderedCliqueCover, RestrictionMeasure)


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def singleton_measure(G):
    parts = tuple(frozenset({v}) for v in range(G.n))
    return RestrictionMeasure(OrderedCliqueCover(parts))


@st.composite
def random_interval_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    ivs = []
    for _ in range(n):
        a = draw(st.integers(0, 30))
        b = a + draw(st.integers(0, 12))
        ivs.append((a, b))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]]
    return Graph(n, edges)


class TestMcsOrder:
    def test_trees_are_chordal(self):
        assert mcs_order(path(7)).chordal

    def test_four_cycle_is_not_chordal(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not mcs_order(c4).chordal

    def test_chorded_cycle_is_chordal(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert mcs_order(g).chordal

    @given(random_interval_graphs())
    def test_interval_graphs_are_chordal(self, G):
        assert mcs_order(G).chordal

    def test_order_is_a_permutation(self):
        ord_ = mcs_order(path(6))
        assert sorted(ord_.order) == list(range(6))

    def test_peo_property_when_chordal(self):
        G = clique(4)
        ord_ = mcs_order(G)
        pos = {v: i for i, v in enumerate(ord_.order)}
        for v in range(4):
            later = [u for u in G.adj[v] if pos[u] > pos[v]]
            for a in later:
                for b in later:
                    assert a == b or G.has_edge(a, b)


class TestMaximalCliques:
    def cliques(self, G):
        return maximal_cliques_chordal(G, mcs_order(G))

    def test_triangle(self):
        assert self.cliques(clique(3)) == [frozenset({0, 1, 2})]

    def test_path_three(self):
        assert self.cliques(path(3)) == [frozenset({0, 1}), frozenset({1, 2})]

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        got = self.cliques(g)
        assert sorted(map(sorted, got)) == [[0, 1, 2], [2, 3, 4]]

    def test_raises_on_non_chordal(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(NotChordalError):
            maximal_cliques_chordal(c4, mcs_order(c4))

    @given(random_interval_graphs())
    def test_count_and_maximality(self, G):
        got = self.cliques(G)
        assert len(got) <= max(G.n, 1)
        for c in got:
            mem = sorted(c)
            for a in range(len(mem)):
                for b in range(a + 1, len(mem)):
                    assert G.has_edge(mem[a], mem[b])
            # maximal: no vertex extends the clique
            for v in range(G.n):
                if v not in c:
                    assert not all(G.has_edge(v, u) for u in c)
        # no clique contained in another
        for i, a in enumerate(got):
            for j, b in enumerate(got):
                assert i == j or not a <= b


class TestCliqueTree:
    def test_single_clique(self):
        t = clique_tree(clique(3), [frozenset({0, 1, 2})])
        assert t.nodes == (frozenset({0, 1, 2}),) and t.edges == ()

    @given(random_interval_graphs())
    def test_running_intersection(self, G):
        cliques = maximal_cliques_chordal(G, mcs_order(G))
        t = clique_tree(G, cliques)
        assert len(t.edges) == len(t.nodes) - 1
        nbrs = {i: set() for i in range(len(t.nodes))}
        for i, j in t.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        for v in range(G.n):
            holders = [i for i, c in enumerate(t.nodes) if v in c]
            # holders must induce a connected subtree
            seen = {holders[0]}
            frontier = [holders[0]]
            while frontier:
                x = frontier.pop()
                for y in nbrs[x]:
                    if y in holders and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            assert seen == set(holders)


class TestBalancedCliqueSeparator:
    def test_path_nine_singleton_measure(self):
        G = path(9)
        found = balanced_clique_separator(G, G, singleton_measure(G))
        assert found is not None
        sizes = sorted((len(found.side_a), len(found.side_b)))
        assert len(found.clique) == 2
        assert sizes == [3, 4]
        assert found.larger_measure <= 6

    def test_star_removes_center_edge(self):
        G = Graph(7, [(0, i) for i in range(1, 7)])
        found = balanced_clique_separator(G, G, singleton_measure(G))
        assert found is not None
        assert 0 in found.clique and len(found.clique) == 2
        sizes = sorted((len(found.side_a), len(found.side_b)))
        assert sizes == [2, 3]

    def test_complete_graph_degenerate(self):
        G = clique(5)
        found = balanced_clique_separator(G, G, singleton_measure(G))
        assert found is not None
        assert found.clique == frozenset(range(5))
        assert found.side_a == found.side_b == frozenset()

    def test_sides_have_no_crossing_edges(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            ivs = [(a := rng.randint(0, 20), a + rng.randint(0, 8))
                   for _ in range(n)]
            G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]])
            mu = singleton_measure(G)
            found = balanced_clique_separator(G, G, mu)
            if found is None:
                continue
            for u in found.side_a:
                assert not (G.adj[u] & found.side_b)
            total = mu.of(range(n))
            assert 3 * mu.of(found.side_a) <= 2 * total
            assert 3 * mu.of(found.side_b) <= 2 * total

    def test_budgeted_descent_still_valid(self):
        G = path(30)
        mu = singleton_measure(G)
        total = mu.of(range(30))
        # enough budget to walk the clique tree to a balanced edge
        found = balanced_clique_separator(G, G, mu, max_evals=20)
        assert found is not None
        assert 3 * found.larger_measure <= 2 * total
        # an exhausted budget may fail, but must never return an invalid clique
        tight = balanced_clique_separator(G, G, mu, max_evals=2)
        if tight is not None:
            assert 3 * tight.larger_measure <= 2 * total

    def test_rejects_g_edge_outside_h(self):
        G = path(3)
        H = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            balanced_clique_separator(H, G, singleton_measure(G))

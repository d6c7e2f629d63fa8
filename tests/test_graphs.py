import pytest
from hypothesis import given, strategies as st

from cliquesep.graphs import (Graph, OrderedCliqueCover, RestrictionMeasure,
                              check_measure_axioms, components_within,
                              cover_length, verify_clique_cover)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(n, edges)


class TestGraph:
    def test_adjacency_symmetric(self):
        G = Graph(3, [(0, 1), (1, 2)])
        assert G.has_edge(0, 1) and G.has_edge(1, 0)
        assert not G.has_edge(0, 2)
        assert G.m == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        for edge in [(0, 2), (-1, 0)]:
            with pytest.raises(ValueError):
                Graph(2, [edge])

    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1))))))
    def test_masks_and_their_views(self, drawn):
        # edges in any order and orientation, repeats included
        n, pairs = drawn
        pairs = [(u, v) for u, v in pairs if u != v]
        G = Graph(n, pairs)
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        assert list(G.edges()) == edges
        assert G.m == len(edges)
        assert G.adj == tuple(frozenset(w for e in edges if v in e for w in e
                                        if w != v) for v in range(n))
        assert G.adj_mask == tuple(sum(1 << w for w in a) for a in G.adj)
        assert [G.degree(v) for v in range(n)] == [len(a) for a in G.adj]
        assert all(G.has_edge(u, v) == (v in G.adj[u])
                   for u in range(n) for v in range(n))

    @given(graphs())
    def test_components_partition_vertices(self, G):
        comps = components_within(G.adj, frozenset(range(G.n)))
        seen = set()
        for c in comps:
            assert not (seen & c)
            seen |= c
        assert seen == set(range(G.n))
        for u, v in G.edges():
            assert any(u in c and v in c for c in comps)

    @given(graphs())
    def test_components_within_matches_full_graph(self, G):
        # reference: merge the groups of the two ends of every edge
        group = {v: frozenset({v}) for v in range(G.n)}
        for u, v in G.edges():
            merged = group[u] | group[v]
            for w in merged:
                group[w] = merged
        full = frozenset(range(G.n))
        assert sorted(map(sorted, components_within(G.adj, full))) == \
            sorted(map(sorted, set(group.values())))


class TestCliqueCover:
    def test_verify_accepts_partition_into_cliques(self):
        G = path(3)
        cov = OrderedCliqueCover((frozenset({0, 1}), frozenset({2})))
        assert verify_clique_cover(G, cov)

    def test_verify_rejects_non_clique_part(self):
        G = path(3)
        cov = OrderedCliqueCover((frozenset({0, 2}), frozenset({1})))
        assert not verify_clique_cover(G, cov)

    def test_verify_rejects_missing_vertex(self):
        G = path(3)
        cov = OrderedCliqueCover((frozenset({0, 1}),))
        ok, why = verify_clique_cover(G, cov, explain=True)
        assert not ok and "uncovered" in why

    def test_overlapping_parts_rejected(self):
        G = clique(3)
        cov = OrderedCliqueCover((frozenset({0, 1}), frozenset({1, 2})))
        with pytest.raises(ValueError):
            cov.index_of


class TestCoverLength:
    def test_single_clique_single_part_is_zero(self):
        G = clique(4)
        cov = OrderedCliqueCover((frozenset(range(4)),))
        assert cover_length(G, cov).value == 0

    def test_path_pairs_cover_is_one(self):
        G = path(4)
        cov = OrderedCliqueCover((frozenset({0, 1}), frozenset({2, 3})))
        rep = cover_length(G, cov)
        assert rep.value == 1
        assert rep.witness_edge == (1, 2)

    def test_edgeless_graph_has_length_zero(self):
        G = Graph(3)
        cov = OrderedCliqueCover(tuple(frozenset({i}) for i in range(3)))
        assert cover_length(G, cov).value == 0

    def test_missing_vertex_raises(self):
        G = path(3)
        cov = OrderedCliqueCover((frozenset({0, 1}),))
        with pytest.raises(ValueError):
            cover_length(G, cov)

    def test_gap_counts_part_indices(self):
        G = Graph(5, [(0, 4)])
        cov = OrderedCliqueCover(tuple(frozenset({i}) for i in range(5)))
        assert cover_length(G, cov).value == 4


class TestRestrictionMeasure:
    def mu_for(self, G, parts):
        return RestrictionMeasure(OrderedCliqueCover(parts))

    def test_counts_touched_parts(self):
        G = path(4)
        mu = self.mu_for(G, (frozenset({0, 1}), frozenset({2, 3})))
        assert mu.of([]) == 0
        assert mu.of([0]) == 1
        assert mu.of([0, 1]) == 1
        assert mu.of([1, 2]) == 2
        assert mu.total == 2

    @given(graphs(max_n=8), st.integers(0, 2 ** 30))
    def test_axioms_hold_for_any_clique_partition(self, G, seed):
        # greedy partition into cliques: repeatedly grow from the lowest id
        left = set(range(G.n))
        parts = []
        while left:
            v = min(left)
            part = {v}
            for u in sorted(left - {v}):
                if all(G.has_edge(u, w) for w in part):
                    part.add(u)
            parts.append(frozenset(part))
            left -= part
        mu = self.mu_for(G, tuple(parts))
        rep = check_measure_axioms(mu, G, trials=60, seed=seed)
        assert rep.ok, rep.failure

    def test_axiom_checker_reports_counts(self):
        G = path(6)
        mu = self.mu_for(G, (frozenset({0, 1}), frozenset({2, 3}),
                             frozenset({4, 5})))
        rep = check_measure_axioms(mu, G, trials=100, seed=1)
        assert rep.ok and rep.checked >= 200

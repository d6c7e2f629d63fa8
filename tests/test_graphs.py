import pytest
from hypothesis import example, given, strategies as st

from cliquesep.graphs import (Frame, Graph, _ids, _mask,
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


class TestIds:
    @example(0)
    @example(1)
    @example(0xFF)
    @example(0x100)
    @example(0x1FF)
    @example((1 << 64) - 1)
    @example(1 << 8000)
    @given(st.one_of(st.integers(0, 9000).map(lambda b: 1 << b),
                     st.sets(st.integers(0, 8000), max_size=30).map(_mask),
                     st.integers(0, (1 << 1200) - 1)))
    def test_members_ascending(self, m):
        assert _ids(m) == [i for i in range(m.bit_length()) if m >> i & 1]


def masks(*parts):
    """An ordered clique cover as part masks, from its parts as sets."""
    return tuple(_mask(p) for p in parts)


def singletons(n):
    return tuple(1 << v for v in range(n))


def reference_verify(G, parts):
    """(ok, detail) of :func:`verify_clique_cover`, pair by pair: each part
    member by member, in order, for range and overlap, then its member pairs
    in order for adjacency, then every vertex for coverage."""
    seen = set()
    for i, part in enumerate(parts):
        members = [v for v in range(part.bit_length()) if part >> v & 1]
        for v in members:
            if v >= G.n:
                return False, f"vertex {v} out of range"
            if v in seen:
                return False, f"vertex {v} in two parts"
            seen.add(v)
        for a, u in enumerate(members):
            for w in members[a + 1:]:
                if not G.has_edge(u, w):
                    return False, f"part {i}: {u},{w} not adjacent"
    for v in range(G.n):
        if v not in seen:
            return False, f"vertex {v} uncovered"
    return True, None


class TestCliqueCover:
    def test_verify_accepts_partition_into_cliques(self):
        G = path(3)
        assert verify_clique_cover(G, masks({0, 1}, {2}))

    def test_verify_rejects_non_clique_part(self):
        G = path(3)
        assert not verify_clique_cover(G, masks({0, 2}, {1}))

    def test_verify_rejects_missing_vertex(self):
        G = path(3)
        ok, why = verify_clique_cover(G, masks({0, 1}), explain=True)
        assert not ok and "uncovered" in why

    def test_overlapping_parts_rejected(self):
        G = clique(3)
        cov = masks({0, 1}, {1, 2})
        assert verify_clique_cover(G, cov, explain=True) == \
            (False, "vertex 1 in two parts")
        with pytest.raises(ValueError, match="vertex 1 appears in two parts"):
            cover_length(G, cov)
        with pytest.raises(ValueError, match="vertex 1 appears in two parts"):
            Frame(G, [(0, 0)] * 3, cov, singletons(3))
        with pytest.raises(ValueError, match="vertex 1 appears in two parts"):
            Frame(G, [(0, 0)] * 3, singletons(3), cov)

    @given(graphs(max_n=7).flatmap(lambda G: st.tuples(st.just(G), st.one_of(
        # any masks, and parts of at most two members, which are often
        # cliques and overlap; bits at or above n in both
        st.lists(st.integers(0, (1 << (G.n + 1)) - 1)
                 | st.sets(st.integers(0, G.n + 1), max_size=2).map(_mask),
                 max_size=G.n + 2),
        # the parts of a random labelling: disjoint and covering, cliques
        # or not
        st.lists(st.integers(0, G.n), min_size=G.n, max_size=G.n).map(
            lambda label: [_mask(v for v in range(G.n) if label[v] == k)
                           for k in sorted(set(label))])))))
    # vertex 0 is in two parts and vertex 3 out of range: the overlap,
    # the lower of the two, is reported
    @example((path(3), [0b0001, 0b1001]))
    def test_verify_matches_pairwise_check(self, case):
        # overlaps, non-cliques, uncovered vertices, bits out of range and
        # valid covers all occur
        G, parts = case
        assert verify_clique_cover(G, parts, explain=True) == \
            reference_verify(G, parts)
        assert verify_clique_cover(G, parts) == reference_verify(G, parts)[0]


class TestCoverLength:
    def test_single_clique_single_part_is_zero(self):
        G = clique(4)
        assert cover_length(G, masks(range(4))).value == 0

    def test_path_pairs_cover_is_one(self):
        G = path(4)
        rep = cover_length(G, masks({0, 1}, {2, 3}))
        assert rep.value == 1
        assert rep.witness_edge == (1, 2)

    def test_edgeless_graph_has_length_zero(self):
        G = Graph(3)
        assert cover_length(G, singletons(3)).value == 0

    def test_missing_vertex_raises(self):
        G = path(3)
        with pytest.raises(ValueError, match="vertex 2 of G missing"):
            cover_length(G, masks({0, 1}))

    def test_vertex_out_of_range_raises(self):
        G = path(3)
        with pytest.raises(ValueError, match="vertex 3 out of range"):
            cover_length(G, masks({0, 1}, {2, 3}))
        with pytest.raises(ValueError, match="vertex 3 out of range"):
            Frame(G, [(0, 0)] * 3, singletons(3), masks({0, 1}, {2, 3}))

    def test_gap_counts_part_indices(self):
        G = Graph(5, [(0, 4)])
        assert cover_length(G, singletons(5)).value == 4


class TestRestrictionMeasure:
    """The measure is :meth:`Frame.mu_of` over the partition's part masks."""

    def test_counts_touched_parts(self):
        G = path(4)
        frame = Frame(G, [(0, 0)] * 4, singletons(4), masks({0, 1}, {2, 3}))
        assert frame.mu_of(0) == 0
        assert frame.mu_of(_mask([0])) == 1
        assert frame.mu_of(_mask([0, 1])) == 1
        assert frame.mu_of(_mask([1, 2])) == 2
        assert len(frame.part_mask) == 2

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
            parts.append(part)
            left -= part
        rep = check_measure_axioms(masks(*parts), G, trials=60, seed=seed)
        assert rep.ok, rep.failure

    def test_axiom_checker_reports_counts(self):
        G = path(6)
        rep = check_measure_axioms(masks({0, 1}, {2, 3}, {4, 5}), G,
                                   trials=100, seed=1)
        assert rep.ok and rep.checked >= 200

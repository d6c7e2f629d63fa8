import random

import pytest
from hypothesis import given, strategies as st

from cliquesep.chordal import clique_cut
from cliquesep.graphs import Frame, Graph, _ids, _mask, _members
from cliquesep.oracles import (NotChordalError, interval_graph,
                               maximal_cliques_chordal, mcs_order)


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def singleton_measure(G):
    return tuple(1 << v for v in range(G.n))


def measure(parts, vs):
    """The number of part masks meeting the vertex set ``vs``."""
    m = _mask(vs)
    return sum(1 for p in parts if p & m)


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


def interval_measure(ivs, draw):
    """A measure whose parts are runs of the intervals sorted by left end,
    cut wherever the run would stop being a clique (or at random)."""
    order = sorted(range(len(ivs)), key=lambda i: (ivs[i], i))
    parts = []
    for i in order:
        if parts and draw(st.booleans()):
            cur = parts[-1] + [i]
            if max(ivs[v][0] for v in cur) <= min(ivs[v][1] for v in cur):
                parts[-1] = cur
                continue
        parts.append([i])
    return tuple(_mask(p) for p in parts)


@st.composite
def interval_inputs(draw, max_n=12):
    """Small integer intervals with shared endpoints, nesting and duplicates,
    plus a measure of interval cliques."""
    n = draw(st.integers(1, max_n))
    ivs = []
    for _ in range(n):
        if ivs and draw(st.integers(0, 4)) == 0:
            ivs.append(draw(st.sampled_from(ivs)))
            continue
        a = draw(st.integers(0, 12))
        ivs.append((a, a + draw(st.integers(0, 6))))
    return ivs, interval_measure(ivs, draw)


def reference_pick(ivs, mu, F):
    """The least (larger, |K|, sorted K) over the maximal cliques K of the
    interval graph on the members of the mask F, with side a the members
    ending before K's last left end and side b those starting after its
    first right end; returns that key, K and the two sides as frozensets."""
    vs = _ids(F)
    H = interval_graph([ivs[v] for v in vs])
    best = None
    for K in maximal_cliques_chordal(H, mcs_order(H)):
        K = frozenset(vs[i] for i in K)
        last_lo = max(ivs[v][0] for v in K)
        first_hi = min(ivs[v][1] for v in K)
        a = frozenset(v for v in vs if ivs[v][1] < last_lo)
        b = frozenset(v for v in vs if ivs[v][0] > first_hi)
        key = (max(measure(mu, a), measure(mu, b)), len(K), sorted(K))
        if best is None or key < best[0]:
            best = (key, K, a, b)
    return best


def cut_everything(ivs, G, mu, F=None):
    """:func:`clique_cut` on the mask F (every vertex of G by default), with
    ``ivs[v]`` the closed interval of v: (clique, side_a, side_b, larger
    measure), the sets as frozensets and the larger measure that of the
    heavier side, or None."""
    if F is None:
        F = (1 << G.n) - 1
    found = clique_cut(Frame(G, ivs, (), mu), F)
    if found is None:
        return None
    clique, a, b = map(_members, found)
    return clique, a, b, max(measure(mu, a), measure(mu, b))


@st.composite
def interval_subsets(draw):
    """An input of :func:`interval_inputs` and a nonempty mask F of it."""
    ivs, mu = draw(interval_inputs())
    return ivs, mu, draw(st.integers(1, (1 << len(ivs)) - 1))


class TestBalancedCliqueSeparator:
    def test_path_nine_singleton_measure(self):
        ivs = [(i, i + 1) for i in range(9)]
        G = interval_graph(ivs)
        found = cut_everything(ivs, G, singleton_measure(G))
        assert found is not None
        clique, side_a, side_b, larger = found
        sizes = sorted((len(side_a), len(side_b)))
        assert len(clique) == 2
        assert sizes == [3, 4]
        assert larger <= 6

    def test_star_removes_center_edge(self):
        ivs = [(0, 100)] + [(10 * i, 10 * i + 1) for i in range(1, 7)]
        G = interval_graph(ivs)
        assert G.m == 6 and G.degree(0) == 6
        found = cut_everything(ivs, G, singleton_measure(G))
        assert found is not None
        clique, side_a, side_b, _ = found
        assert 0 in clique and len(clique) == 2
        sizes = sorted((len(side_a), len(side_b)))
        assert sizes == [2, 3]

    def test_complete_graph_degenerate(self):
        ivs = [(0, 1)] * 5
        G = interval_graph(ivs)
        found = cut_everything(ivs, G, singleton_measure(G))
        assert found is not None
        clique, side_a, side_b, _ = found
        assert clique == frozenset(range(5))
        assert side_a == side_b == frozenset()

    def test_sides_have_no_crossing_edges(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            ivs = [(a := rng.randint(0, 20), a + rng.randint(0, 8))
                   for _ in range(n)]
            G = interval_graph(ivs)
            mu = singleton_measure(G)
            found = cut_everything(ivs, G, mu)
            assert found is not None
            _, side_a, side_b, _ = found
            for u in side_a:
                assert not (G.adj[u] & side_b)
            total = measure(mu, range(n))
            assert 2 * measure(mu, side_a) <= total
            assert 2 * measure(mu, side_b) <= total

    def test_rejects_g_edge_outside_h(self):
        G = path(3)
        ivs = [(0, 1), (1, 2), (3, 4)]  # 1 and 2 do not overlap
        with pytest.raises(ValueError):
            cut_everything(ivs, G, singleton_measure(G))

    def test_rejects_measure_part_outside_a_clique(self):
        ivs = [(0, 1), (2, 3)]
        mu = (0b11,)
        with pytest.raises(ValueError):
            cut_everything(ivs, Graph(2), mu)

    @given(interval_inputs())
    def test_sweep_matches_exhaustive_scan(self, case):
        # the one-pass pick equals the least key over every maximal clique
        # the oracle lists, on all of G and on G less each one vertex
        ivs, mu = case
        G = interval_graph(ivs)
        every = (1 << len(ivs)) - 1
        for F in [every] + [every ^ 1 << v for v in range(len(ivs))]:
            if not F:
                continue
            key, K, a, b = reference_pick(ivs, mu, F)
            clique, side_a, side_b, larger = cut_everything(ivs, G, mu, F)
            assert (larger, len(clique), sorted(clique)) == key
            assert (clique, side_a, side_b) == (K, a, b)

    @given(interval_subsets())
    def test_cut_halves_every_subset(self, case):
        # never None on a nonempty F, each side carries at most half of
        # mu(F), and the cut is the left/right reference's pick
        ivs, mu, F = case
        found = cut_everything(ivs, interval_graph(ivs), mu, F)
        assert found is not None
        clique, side_a, side_b, larger = found
        assert 2 * larger <= measure(mu, _ids(F))
        key, K, a, b = reference_pick(ivs, mu, F)
        assert (larger, len(clique), sorted(clique)) == key
        assert (clique, side_a, side_b) == (K, a, b)

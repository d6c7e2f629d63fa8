import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st, target

from cliquesep import instances
from cliquesep.geometry import SCALE, PointSite, Rect
from cliquesep.graphs import Frame, Graph, _ids, _mask
from cliquesep.separator import (CHORDAL, LENGTH_WINDOW, Cut, _chordal_cut,
                                 _strips, _window_cut, check_separator,
                                 separate_mask, strip_length)
from cliquesep.solvers import PointContext, RectContext, separation_profile


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def path_intervals(n):
    """Touching unit intervals: their interval graph is path(n)."""
    return [(i, i + 1) for i in range(n)]


def singletons(n):
    return tuple(1 << v for v in range(n))


def pair_cover(pairs):
    return tuple(_mask(p) for p in pairs)


def shared_point(n):
    """Intervals that all lie at the point 0: a valid model of any graph
    and any measure, for frames built to test the length route."""
    return [(0, 0)] * n


def separate_all(G, strips, parts, intervals=None):
    """The engine on all of G; with no intervals, the length route alone."""
    every = (1 << G.n) - 1
    if intervals is None:
        frame = Frame(G, shared_point(G.n), strips, parts)
        return _window_cut(frame, every, *_strips(frame, every))
    return separate_mask(Frame(G, intervals, strips, parts), every)


def measure(parts, vs):
    """The number of parts meeting the vertex set ``vs``, counted here."""
    m = _mask(vs)
    return sum(1 for p in parts if p & m)


def reference_window(G, strips, mu, F):
    """The length route as a search over widths: from the edge-gap length l
    up to the number k of strips meeting F, the first width with a balanced
    window, and at that width the window of least (measure, larger side,
    start); the strips are sets, cut to F, and ``mu`` the measure's part
    masks."""
    vs = set(_ids(F))
    parts = [set(_ids(p)) & vs for p in strips if p & F]
    k = len(parts)
    if k == 0:
        return None
    rank = {v: i for i, p in enumerate(parts) for v in p}
    length = max((rank[v] - rank[u] for u in vs for v in G.adj[u] & vs),
                 default=0)
    total = measure(mu, vs)
    for w in range(length, k + 1):
        best = None
        for i in range(w == 0, k - w + 1):
            a, b = set().union(*parts[:i]), set().union(*parts[i + w:])
            larger = max(measure(mu, a), measure(mu, b))
            if 3 * larger > 2 * total:
                continue
            s = vs - a - b
            key = (measure(mu, s), larger, i)
            if best is None or key < best[0]:
                best = (key, s, a, b)
        if best is not None:
            _, s, a, b = best
            units = tuple(_mask(s) & p for p in mu if _mask(s) & p)
            return Cut(_mask(s), units, _mask(a), _mask(b), LENGTH_WINDOW)
    return None


def runs(items, ends):
    """The ordered cover of ``items`` cut before each index in ``ends``."""
    bounds = [0] + sorted(ends) + [len(items)]
    return tuple(_mask(items[x:y]) for x, y in zip(bounds, bounds[1:]))


@st.composite
def window_cases(draw):
    """(G, strip cover, measure, F): both covers are arbitrary ordered
    partitions of the vertices, the edges arbitrary, F nonempty."""
    n = draw(st.integers(1, 12))
    cuts = st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())
    strips = runs(draw(st.permutations(range(n))), draw(cuts))
    parts = runs(draw(st.permutations(range(n))), draw(cuts))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u < v}
    F = draw(st.integers(1, (1 << n) - 1))
    return (Graph(n, sorted(edges)), strips, parts, F)


class TestLengthWindowRoute:
    # edgeless: a gap of width 0 between two strips balances
    @example((Graph(4), singletons(4), singletons(4), 0b1111))
    # balance-limited: l = 1, but each measure part meets strips on both
    # sides of the middle, so the window must hold strips 1 and 2
    @example((Graph(4, [(0, 1)]), singletons(4),
              pair_cover([(0, 2), (1, 3)]), 0b1111))
    # full window: edgeless, but either strip alone meets both measure parts
    @example((Graph(4), pair_cover([(0, 1), (2, 3)]),
              pair_cover([(0, 2), (1, 3)]), 0b1111))
    # length-limited: the edge 0-4 makes l = 4, and the window may start at
    # strip 0, before the first strip whose followers balance
    @example((Graph(5, [(0, 4)]), singletons(5), singletons(5), 0b11111))
    # sliding: the part {0, 1, 3} meets strips 0, 1 and 3, and l = 3; the
    # window [1, 3] wins the tie with [2, 4] only if the part still counts
    # in [2, 4] once strip 1 leaves it
    @example((Graph(5, [(0, 3), (1, 2), (2, 3)]), singletons(5),
              pair_cover([(0, 1, 3), (2, 4)]), 0b11111))
    @given(window_cases())
    def test_window_matches_width_search(self, case):
        G, strips, mu, F = case
        frame = Frame(G, shared_point(G.n), strips, mu)
        assert (_window_cut(frame, F, *_strips(frame, F))
                == reference_window(G, strips, mu, F))

    def test_window_measures_are_counted_not_measured(self, monkeypatch):
        # the prefix, suffix and window measures come from one listing of
        # the parts each strip meets, not from Frame.mu_of on masks
        calls = 0
        mu_of = Frame.mu_of

        def counting(self, F):
            nonlocal calls
            calls += 1
            return mu_of(self, F)

        contexts = [RectContext(instances.generate("rects", 200, 17).items),
                    PointContext(instances.generate("points", 200, 17).items)]
        monkeypatch.setattr(Frame, "mu_of", counting)
        for ctx in contexts:
            every = (1 << len(ctx.adj_mask)) - 1
            cut = _window_cut(ctx, every, *_strips(ctx, every))
            assert cut.side_a and cut.side_b
            _window_cut(ctx, cut.side_a, *_strips(ctx, cut.side_a))
            _window_cut(ctx, cut.side_b, *_strips(ctx, cut.side_b))
        assert calls == 0
        assert contexts[0].mu_of(cut.s) and calls == 1  # the patch is live

    def test_balanced_window_of_singleton_parts(self):
        # five parts of measure one each: the middle window wins
        G = path(5)
        res = separate_all(G, singletons(5), singletons(5))
        assert res is not None
        assert res.s == _mask({2})
        assert res.side_a == _mask({0, 1})
        assert res.side_b == _mask({3, 4})
        assert res.route == LENGTH_WINDOW
        assert res.cost == 1

    def test_edgeless_graph_gets_free_separator(self):
        G = Graph(4)
        res = separate_all(G, singletons(4), singletons(4))
        assert res is not None
        assert res.s == 0 and res.cost == 0

    def test_units_are_measure_parts(self):
        G = path(6)
        mu = pair_cover([(0, 1), (2, 3), (4, 5)])
        res = separate_all(G, singletons(6), mu)
        assert res is not None and res.route == LENGTH_WINDOW
        for members in res.units:
            assert measure(mu, _ids(members)) == 1

    def test_always_succeeds_via_full_window(self):
        # a clique cannot be split, so the window is the full range
        G = Graph(3, [(0, 1), (1, 2), (0, 2)])
        res = separate_all(G, pair_cover([(0, 1, 2)]), singletons(3))
        assert res is not None
        assert res.s == _mask({0, 1, 2})
        assert res.side_a == res.side_b == 0


class TestChordalRoute:
    def test_path_clique_separator_costs_one(self):
        G = path(9)
        cov = (_mask(range(9)),)  # host ignored
        frame = Frame(G, path_intervals(9), cov, singletons(9))
        res = _chordal_cut(frame, (1 << 9) - 1)
        assert res is not None
        assert res.route == CHORDAL
        assert res.cost == 1
        assert res.units == (res.s,)
        assert check_separator(frame, res) == []  # a G-clique

    def test_units_split_by_g1_part(self):
        # a triangle straddling two g1 parts yields two units
        G = Graph(3, [(0, 1), (1, 2), (0, 2)])
        g1 = pair_cover([(0, 1), (2,)])
        # (the length route alone would cut {2} off at cost 1)
        frame = Frame(G, [(0, 1)] * 3, g1, singletons(3))
        res = _chordal_cut(frame, 0b111)
        assert res is not None
        sizes = sorted(m.bit_count() for m in res.units)
        assert sizes == [1, 2]
        assert res.cost == 2


class TestSeparate:
    def test_picks_cheaper_route(self):
        # long horizontal chains: chordal route costs 1, window route much more
        for n in (12, 1200):
            rects = [Rect(i * SCALE // 2, i * SCALE // 2 + SCALE, 0)
                     for i in range(n)]
            ctx = RectContext(rects)
            res = ctx.separate_subset(_mask(range(n)))
            assert res.route == CHORDAL, n
            assert res.cost == 1, n

    def test_empty_mask_raises(self):
        frame = Frame(path(3), path_intervals(3), singletons(3), singletons(3))
        with pytest.raises(ValueError, match="empty vertex set"):
            separate_mask(frame, 0)

    def test_strip_cover_missing_a_vertex_raises(self):
        # the measure cover covers every vertex; the strip cover leaves 0
        # out, and the frame is refused when it is built, before any cut
        with pytest.raises(ValueError,
                           match="vertex 0 of G missing from cover"):
            Frame(path(3), path_intervals(3), pair_cover([(1,), (2,)]),
                  singletons(3))

    def test_measure_cover_missing_a_vertex_raises(self):
        # the strip cover covers every vertex; the measure cover leaves 3 out
        G = path(4)
        mu = pair_cover([(0, 1), (2,)])
        for ivs in (path_intervals(4), None):
            with pytest.raises(ValueError,
                               match="vertex 3 of G missing from cover"):
                separate_all(G, singletons(4), mu, ivs)

    def test_check_separator_passes_on_valid_results(self):
        frame = Frame(path(7), path_intervals(7), singletons(7), singletons(7))
        res = separate_mask(frame, (1 << 7) - 1)
        assert check_separator(frame, res) == []

    def test_check_separator_flags_crossing_edge(self):
        frame = Frame(path(3), path_intervals(3), singletons(3), singletons(3))
        res = separate_mask(frame, 0b111)
        bad = Cut(s=0, units=(), side_a=_mask({0, 1}), side_b=_mask({2}),
                  route=res.route)
        assert any("crosses" in p for p in check_separator(frame, bad))

        # one bad result per other violation class, each a change to a valid
        # result on the path 0-1-2-3-4-5 with measure parts {0,1} {2,3} {4,5};
        # a CHORDAL unit is checked as a G-clique without points and against
        # a unit box with them
        frame = Frame(path(6), shared_point(6), singletons(6),
                      pair_cover([(0, 1), (2, 3), (4, 5)]))
        points = [PointSite(2 * i * SCALE, 0) for i in range(6)]  # 2 apart
        good = Cut(s=_mask({2, 3}), units=(_mask({2, 3}),),
                   side_a=_mask({0, 1}), side_b=_mask({4, 5}),
                   route=LENGTH_WINDOW)
        assert check_separator(frame, good) == []
        assert check_separator(frame, good, points=points) == []
        assert check_separator(frame, good._replace(route=CHORDAL)) == []
        cases = [
            (dict(side_b=_mask({4})), None, None, "do not partition F"),
            ({}, _mask(range(5)), None, "do not partition F"),
            (dict(side_a=_mask({0, 1, 2})), None, None, "overlap"),
            (dict(s=_mask({0}), side_a=0, side_b=_mask(range(1, 6)),
                  units=(_mask({0}),)),
             None, None, "side_b exceeds 2/3 of the measure"),
            (dict(units=(_mask({2, 3}), _mask({3}))), None, None,
             "units overlap"),
            (dict(s=_mask({1, 2, 3}), side_a=_mask({0}), route=CHORDAL,
                  units=(_mask({1, 3}), _mask({2}))),
             None, None, "G-CLIQUE unit not a clique"),
            (dict(s=_mask({1, 2}), side_a=_mask({0}), side_b=_mask({3, 4, 5}),
                  units=(_mask({1, 2}),)),
             None, None, "MEASURE-PART unit spans two measure parts"),
            (dict(route=CHORDAL), None, points,
             "UNIT-BOX unit exceeds a 1x1 box"),
            (dict(units=(_mask({2}),)), None, None,
             "units do not exactly cover s"),
        ]
        for change, F, pts, expected in cases:
            bad = good._replace(**change)
            problems = check_separator(frame, bad, F, pts)
            assert any(expected in p for p in problems), (expected, problems)

    def test_random_rect_instances_satisfy_contract(self):
        rng = random.Random(0)
        for trial in range(15):
            n = rng.randint(8, 50)
            rects = []
            for _ in range(n):
                x = rng.randint(0, 8000) * (SCALE // 1000)
                w = rng.randint(500, 2500) * (SCALE // 1000)
                y = rng.randint(0, 8000) * (SCALE // 1000)
                rects.append(Rect(x, x + w, y))
            ctx = RectContext(rects)
            F = _mask(range(n))
            if ctx.mu_of(F) < 2:
                continue
            res = ctx.separate_subset(F)
            assert check_separator(ctx, res, F) == []


def row_of_rects(n):
    """Rects i = [i, i + 1.5] x [0, 1]: each meets only its neighbours."""
    return [Rect(i * SCALE, i * SCALE + 3 * SCALE // 2, 0) for i in range(n)]


class TestSweepChecks:
    """The frame's sweep table checks the intervals over every vertex when
    the first cut builds it, so a frame that breaks them is refused on its
    first cut, whether the bad pair or part lies inside the mask or not."""

    def test_g_edge_between_disjoint_intervals_raises(self):
        ctx = RectContext(row_of_rects(5))
        intervals = list(ctx.intervals)
        intervals[2] = (100 * SCALE, 101 * SCALE)  # now far from 1 and 3
        for F in ({3, 4}, {1, 2, 3}):  # 2 lies outside the first F
            frame = Frame(ctx.G, intervals, ctx.strip_mask, ctx.part_mask)
            with pytest.raises(ValueError, match="joins disjoint intervals"):
                separate_mask(frame, _mask(F))

    def test_measure_part_without_a_common_point_raises(self):
        ctx = RectContext(row_of_rects(5))
        mu = pair_cover([(0, 4), (1,), (2,), (3,)])
        for F in ({1, 2, 3}, {0, 3, 4}):  # 0 and 4 lie outside the first F
            frame = Frame(ctx.G, ctx.intervals, ctx.strip_mask, mu)
            with pytest.raises(ValueError, match="not an interval clique"):
                separate_mask(frame, _mask(F))


class TestPinnedCuts:
    # sha256 of every separator profile row, and of every cut the profile
    # makes in call order, over the sweep below; each unit's label is
    # derived from the route and the kind of instance.  Recorded when the
    # chordal route's sides became the intervals before and after the
    # clique, in that order, in place of packed components
    ROWS_SHA256 = ("94eaada1b2b2f21b11f034f4a665210f"
                   "afb707aa1f5d472e3ce7d583aea86dae")
    CUTS_SHA256 = ("3df28334d58b13f2c8c50a1a2c780407"
                   "2d67e348c311542036f3906c27df3844")

    def test_profile_rows_and_cuts_are_pinned(self):
        rows_h, cuts_h = hashlib.sha256(), hashlib.sha256()

        def record(F, cut):
            if cut.route == LENGTH_WINDOW:
                label = "MEASURE-PART"
            else:
                label = "G-CLIQUE" if kind == "rects" else "UNIT-BOX"
            units = [(_ids(m), label) for m in cut.units]
            cuts_h.update(repr((_ids(cut.s), units, _ids(cut.side_a),
                                _ids(cut.side_b), cut.route,
                                cut.cost)).encode())

        for kind, context in (("rects", RectContext), ("points", PointContext)):
            for style in ("uniform", "clustered", "chain"):
                for n in (150, 600):
                    for seed in range(3):
                        items = instances.generate(kind, n, seed, style).items
                        ctx = context(items)
                        for t0 in (1, 4):
                            rows = separation_profile(ctx, t0, validator=record)
                            rows_h.update(repr(rows).encode())
        assert rows_h.hexdigest() == self.ROWS_SHA256
        assert cuts_h.hexdigest() == self.CUTS_SHA256


@st.composite
def strip_frames(draw):
    """(frame, F) with an edge-gap length l of at most k, for k up to 6:
    x-intervals for G2, a strip index per vertex for G1 (strips adjacent
    when at most k apart), G joining overlapping intervals in one strip
    always and in strips up to k apart at random, and as the measure each
    strip's intervals by left end cut greedily into cliques of G."""
    n = draw(st.integers(1, 120))
    k = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    count = rng.randint(1, max(1, n // 4))
    ivs = [(a := rng.randint(0, 3 * n), a + rng.randint(0, 12))
           for _ in range(n)]
    strip = [rng.randrange(count) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if ivs[u][0] <= ivs[v][1] and ivs[v][0] <= ivs[u][1]
             and abs(strip[u] - strip[v]) <= k
             and (strip[u] == strip[v] or rng.random() < 0.5)]
    strips, parts = [], []
    for t in range(count):
        members = sorted((v for v in range(n) if strip[v] == t),
                         key=lambda v: (ivs[v], v))
        if members:
            strips.append(_mask(members))
        part, reach = [], None
        for v in members:
            if part and ivs[v][0] <= reach:
                reach = min(reach, ivs[v][1])
                part.append(v)
            else:
                if part:
                    parts.append(_mask(part))
                part, reach = [v], ivs[v][1]
        if part:
            parts.append(_mask(part))
    frame = Frame(Graph(n, edges), ivs, strips, parts)
    return frame, draw(st.integers(1, (1 << n) - 1))


class TestLongStripEdges:
    @settings(deadline=None, max_examples=150)
    @given(strip_frames())
    def test_cut_is_valid_and_within_the_cost_bound(self, case):
        frame, F = case
        cut = separate_mask(frame, F)
        assert check_separator(frame, cut, F) == []
        length = strip_length(frame, F)
        target(float(length), label="l")
        assert cut.cost <= 8 * math.sqrt(max(1, length) * frame.mu_of(F))


QUARTER = st.integers(0, 24).map(lambda k: k * SCALE // 4)
QUARTER_WIDTH = st.integers(1, 8).map(lambda k: k * SCALE // 4)
# on the quarter lattice, or all crossing the stab line y = 1 (one strip)
LATTICE_RECTS = st.lists(st.builds(lambda x, w, y: Rect(x, x + w, y),
                                   QUARTER, QUARTER_WIDTH, QUARTER),
                         min_size=1, max_size=30)
ROW_RECTS = st.lists(st.builds(lambda x, w, y: Rect(x, x + w, y * SCALE // 4),
                               QUARTER, QUARTER_WIDTH, st.integers(1, 4)),
                     min_size=1, max_size=20)


@st.composite
def rect_frames(draw):
    """(RectContext, F) for lattice rects or rects on one stab line."""
    ctx = RectContext(draw(st.one_of(LATTICE_RECTS, ROW_RECTS)))
    return ctx, draw(st.integers(1, (1 << len(ctx.adj_mask)) - 1))


def balanced_span(frame, F):
    """first - last + 1 of the length route, from measures taken here:
    ``last`` the last strip index whose prefix carries at most 2/3 of
    mu(F), ``first`` the first whose suffix does."""
    strips = frame.strips(F)
    k, total = len(strips), frame.mu_of(F)

    def mu(pieces):
        return frame.mu_of(_mask(v for p in pieces for v in _ids(p)))

    last = max(i for i in range(k + 1) if 3 * mu(strips[:i]) <= 2 * total)
    first = min(j for j in range(k) if 3 * mu(strips[j + 1:]) <= 2 * total)
    return first - last + 1


class TestRouteShortcuts:
    """The window is as wide as max(l(F), span) however l(F) is reached,
    and a mask inside one strip never needs the window."""

    def check_width(self, frame, F):
        every = (1 << len(frame.adj_mask)) - 1
        target(float(strip_length(frame, every) - strip_length(frame, F)),
               label="l(V) - l(F)")
        width = len(frame.strips(_window_cut(frame, F, *_strips(frame, F)).s))
        assert width == max(strip_length(frame, F), balanced_span(frame, F))

    @settings(deadline=None)
    @given(rect_frames())
    def test_rect_window_width(self, case):
        self.check_width(*case)

    # l(V) = 3 from the edge 0-3, l(F) = 1: the span, 0, does not reach the
    # cap, so the gap walk runs and stops at 1
    @example((Graph(4, [(0, 3), (1, 2)]), singletons(4), singletons(4),
              0b0110))
    # l(V) = 4, l(F) = 2 and span 0: the width is l(F), below the cap
    @example((Graph(6, [(0, 4), (1, 3), (2, 3)]), singletons(6),
              singletons(6), 0b011110))
    @settings(deadline=None)
    @given(window_cases())
    def test_hand_built_window_width(self, case):
        G, strips, mu, F = case
        self.check_width(Frame(G, shared_point(G.n), strips, mu), F)

    @settings(deadline=None)
    @given(st.one_of(rect_frames(), strip_frames()), st.data())
    def test_one_strip_never_needs_the_window(self, case, data):
        frame, F = case
        strip = data.draw(st.sampled_from(frame.strips(F)))
        F = data.draw(st.integers(1, strip).map(lambda m: m & strip)
                      .filter(bool))
        chordal = _chordal_cut(frame, F)
        window = _window_cut(frame, F, *_strips(frame, F))
        assert window.cost >= chordal.cost == 1
        assert separate_mask(frame, F) == chordal

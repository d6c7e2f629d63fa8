import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cliquesep.geometry import (SCALE, Disc, PointSite, Rect, candidate_discs,
                                candidate_pierce_points,
                                greedy_cover_and_is_rects, parse_coord,
                                format_coord,
                                quarter_cell_partition,
                                rect_intersection_graph, sq_dist,
                                strip_cover_rects, unit_distance_graph,
                                vertical_strip_cover_points,
                                x_chordal_graph, y_chordal_graph_points)
from cliquesep.graphs import (Graph, _ids, _mask, cover_length,
                              verify_clique_cover)
from cliquesep import geometry, instances, oracles
from cliquesep.oracles import interval_graph, mcs_order, pierce_grid
from cliquesep.solvers import CoverContext

from candidate_reference import (all_discs, brute_discs, first_of_each_mask,
                                 surd_covers)


def random_rects(rng, n, box=None):
    box = box or max(2.0, math.sqrt(n))
    out = []
    for _ in range(n):
        x_lo = rng.randint(0, int(box * 1000)) * (SCALE // 1000)
        w = rng.randint(500, 3000) * (SCALE // 1000)
        y_lo = rng.randint(0, int(box * 1000)) * (SCALE // 1000)
        out.append(Rect(x_lo, x_lo + w, y_lo))
    return out


def random_points(rng, n, box=None):
    box = box or max(2.0, math.sqrt(n))
    return [PointSite(rng.randint(0, int(box * 1000)) * (SCALE // 1000),
                      rng.randint(0, int(box * 1000)) * (SCALE // 1000))
            for _ in range(n)]


def grid_cell(v, width):
    """Index of v between the point grid's lines at k*width + 1/2 tick."""
    return math.floor((v - Fraction(1, 2)) / width)


def pairwise_graph(n, adjacent):
    """Brute-force graph on 0..n-1 with an edge wherever adjacent(i, j)."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if adjacent(i, j)])


class TestCoords:
    @given(st.integers(-10 ** 9, 10 ** 9))
    def test_round_trip(self, v):
        assert parse_coord(format_coord(v)) == v

    def test_parse_examples(self):
        assert parse_coord("1.5") == 3 * SCALE // 2
        assert parse_coord("-0.25") == -SCALE // 4
        assert parse_coord("2") == 2 * SCALE
        assert parse_coord(".5") == SCALE // 2

    def test_too_many_digits_rejected(self):
        with pytest.raises(ValueError):
            parse_coord("0.1234567")

    def test_garbage_rejected(self):
        # int accepts any Unicode decimal digit and str.isdigit superscripts
        # too: Arabic-Indic "1.5" and "3", "1.5" with an Arabic-Indic 5, and
        # a superscript 2
        for bad in ("", "abc", "1.2.3", "--1", "\u0661.\u0665", "\u0663",
                    "\u00b2", "1.\u0665"):
            with pytest.raises(ValueError, match="malformed coordinate"):
                parse_coord(bad)


class TestRect:
    def test_height_is_one_unit(self):
        r = Rect(0, SCALE, 3 * SCALE // 2)
        assert r.y_hi - r.y_lo == SCALE

    def test_boundary_contact_counts(self):
        a = Rect(0, SCALE, 0)
        b = Rect(SCALE, 2 * SCALE, SCALE)  # touches at the corner
        assert a.intersects(b) and b.intersects(a)

    def test_disjoint(self):
        a = Rect(0, SCALE, 0)
        assert not a.intersects(Rect(SCALE + 1, 2 * SCALE, 0))
        assert not a.intersects(Rect(0, SCALE, SCALE + 1))

    def test_stab_line(self):
        assert Rect(0, SCALE, 0).stab_line == 0
        assert Rect(0, SCALE, 1).stab_line == 1
        assert Rect(0, SCALE, SCALE).stab_line == 1
        assert Rect(0, SCALE, -SCALE // 2).stab_line == 0

    def test_stab_line_crosses_rect(self):
        rng = random.Random(0)
        for r in random_rects(rng, 50):
            line = r.stab_line * SCALE
            assert r.y_lo <= line <= r.y_hi


class TestIntersectionGraphs:
    def test_rect_graph_is_conjunction_of_projections(self):
        rng = random.Random(1)
        for trial in range(10):
            rects = random_rects(rng, 40)
            G = rect_intersection_graph(rects)
            G2 = interval_graph(x_chordal_graph(rects))
            e = set(G.edges())
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    assert ((i, j) in e) == rects[i].intersects(rects[j])
                    y_overlap = (rects[i].y_lo <= rects[j].y_hi
                                 and rects[j].y_lo <= rects[i].y_hi)
                    assert ((i, j) in e) == (y_overlap and G2.has_edge(i, j))

    def test_x_graph_is_chordal(self):
        rng = random.Random(2)
        for trial in range(10):
            G2 = interval_graph(x_chordal_graph(random_rects(rng, 30)))
            assert mcs_order(G2).chordal

    def test_unit_distance_graph_exact(self):
        pts = [PointSite(0, 0), PointSite(SCALE, 0), PointSite(SCALE + 1, 0),
               PointSite(-3 * SCALE // 5, -4 * SCALE // 5)]
        G = unit_distance_graph(pts)
        assert G.has_edge(0, 1)       # distance exactly one
        assert not G.has_edge(0, 2)   # one tick beyond
        assert G.has_edge(1, 2)
        assert G.has_edge(0, 3)       # a 3-4-5 diagonal, negative coordinates
        assert list(G.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_unit_distance_graph_brute_match(self):
        rng = random.Random(3)
        pts = random_points(rng, 40)
        G = unit_distance_graph(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert G.has_edge(i, j) == (sq_dist(pts[i], pts[j]) <= SCALE * SCALE)

    def test_point_g2_is_chordal_and_superset(self):
        rng = random.Random(4)
        pts = random_points(rng, 35)
        G = unit_distance_graph(pts)
        G2 = interval_graph(y_chordal_graph_points(pts))
        assert mcs_order(G2).chordal
        assert set(G.edges()) <= set(G2.edges())


# quarter-unit lattices with a tick either way: y_lo on an integer line,
# vertical gaps of exactly SCALE and SCALE + 1, negative coordinates
LATTICE_RECT = st.tuples(st.integers(-8, 8), st.integers(1, 6),
                         st.integers(-8, 8), st.sampled_from([-1, 0, 0, 1])).map(
    lambda t: Rect(t[0] * SCALE // 4, (t[0] + t[1]) * SCALE // 4,
                   t[2] * SCALE // 4 + t[3]))
# quarter and fifth lattices give distances of exactly one unit along an
# axis and as 3-4-5 diagonals; the tick moves a pair one tick beyond
LATTICE_POINT = st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                          st.sampled_from([4, 5]), st.sampled_from([-1, 0, 0, 1])).map(
    lambda t: PointSite(t[0] * SCALE // t[2] + t[3], t[1] * SCALE // t[2]))


# stab lines 0 and 1 only (y_lo in (-SCALE, SCALE]): every rectangle of a
# line meets the same-line sweep's open set, which grows large
TWO_LINE_RECT = st.tuples(st.integers(-8, 8), st.integers(1, 6), st.integers(-3, 4),
                          st.sampled_from([-1, 0, 0, 1])).map(
    lambda t: Rect(t[0] * SCALE // 4, (t[0] + t[1]) * SCALE // 4,
                   min(t[2] * SCALE // 4 + t[3], SCALE)))


def assert_same_graph(G, ref):
    assert G.n == ref.n
    assert G.adj_mask == ref.adj_mask
    assert list(G.edges()) == list(ref.edges()) == sorted(ref.edges())
    assert G.m == ref.m == len(list(ref.edges()))


class TestBuildersBitForBit:
    """The sweeps against the pair-by-pair oracles, mask for mask."""

    @given(st.lists(LATTICE_RECT, min_size=1, max_size=24), st.data())
    def test_rect_intersection_graph(self, rects, data):
        rects += data.draw(st.lists(st.sampled_from(rects), max_size=4))
        assert_same_graph(rect_intersection_graph(rects), oracles.rect_graph(rects))

    @given(st.lists(LATTICE_POINT, min_size=1, max_size=24), st.data())
    def test_unit_distance_graph(self, pts, data):
        pts += data.draw(st.lists(st.sampled_from(pts), max_size=4))
        assert_same_graph(unit_distance_graph(pts), oracles.point_graph(pts))

    @given(st.lists(TWO_LINE_RECT, min_size=1, max_size=60))
    # a chain touching at x_hi == x_lo
    @example([Rect(k * SCALE, (k + 1) * SCALE, 0) for k in range(6)])
    # nested intervals
    @example([Rect(-k * SCALE, k * SCALE, SCALE // 2) for k in range(1, 6)])
    # equal left edges
    @example([Rect(0, k * SCALE // 2, k % 2) for k in range(1, 7)])
    # across lines 0 and 1, y_lo apart by exactly SCALE and by SCALE + 1
    @example([Rect(0, SCALE, 0), Rect(0, SCALE, SCALE),
              Rect(0, SCALE, -1), Rect(SCALE, 2 * SCALE, SCALE)])
    def test_rect_graph_on_two_stab_lines(self, rects):
        assert_same_graph(rect_intersection_graph(rects), oracles.rect_graph(rects))

    def test_rect_boundaries(self):
        # touching corners, a gap of SCALE + 1 ticks, a negative corner, and
        # an identical copy
        rects = [Rect(0, SCALE, 0), Rect(SCALE, 2 * SCALE, SCALE),
                 Rect(0, SCALE, SCALE + 1), Rect(-SCALE, 0, -SCALE),
                 Rect(0, SCALE, 0)]
        G = rect_intersection_graph(rects)
        assert list(G.edges()) == [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4),
                                   (3, 4)]


class TestStripCovers:
    def test_rect_strip_cover_valid_and_short(self):
        rng = random.Random(5)
        for trial in range(10):
            rects = random_rects(rng, 100)
            cov = strip_cover_rects(rects)
            # G1: vertical extents overlap
            G1 = pairwise_graph(len(rects), lambda i, j:
                                abs(rects[i].y_lo - rects[j].y_lo) <= SCALE)
            assert verify_clique_cover(G1, cov)
            G = rect_intersection_graph(rects)
            assert cover_length(G, cov).value <= 1

    def test_point_strip_cover_valid_and_short(self):
        rng = random.Random(6)
        for trial in range(10):
            pts = random_points(rng, 60)
            cov = vertical_strip_cover_points(pts)
            strip = [grid_cell(p.x, SCALE) for p in pts]
            # G1: strip indices differ by at most one
            G1 = pairwise_graph(len(pts),
                                lambda i, j: abs(strip[i] - strip[j]) <= 1)
            assert verify_clique_cover(G1, cov)
            G = unit_distance_graph(pts)
            assert cover_length(G, cov).value <= 1
            assert all(abs(strip[u] - strip[v]) <= 1 for u, v in G.edges())

    def test_half_tick_grid(self):
        # whole and half units, and one tick either side, negatives included
        coords = sorted({k * SCALE // 2 + e for k in range(-5, 6)
                         for e in (-1, 0, 1)})
        pts = [PointSite(x, y) for x in coords for y in coords[::3]]
        cov = vertical_strip_cover_points(pts)
        strips = sorted({grid_cell(p.x, SCALE) for p in pts})
        assert cov == tuple(
            _mask(i for i, p in enumerate(pts) if grid_cell(p.x, SCALE) == s)
            for s in strips)
        assert cover_length(unit_distance_graph(pts), cov).value <= 1
        q = Fraction(SCALE, 2)
        cells: dict = {}
        for i, p in enumerate(pts):
            cells.setdefault((grid_cell(p.x, q), grid_cell(p.y, q)), set()).add(i)
        assert quarter_cell_partition(pts) == [
            (key, _mask(ids)) for key, ids in sorted(cells.items())]


class TestGreedyCoverRects:
    def test_cover_parts_share_a_common_point(self):
        rng = random.Random(8)
        for trial in range(10):
            rects = random_rects(rng, 60)
            cov, witness = greedy_cover_and_is_rects(rects)
            assert verify_clique_cover(rect_intersection_graph(rects), cov)
            for part in cov:  # the common box's corner lies in every member
                members = [rects[i] for i in _ids(part)]
                x = min(r.x_hi for r in members)
                y = min(r.y_hi for r in members)
                assert all(r.contains_point(x, y) for r in members)

    def test_witness_is_independent_and_half_of_cover(self):
        rng = random.Random(9)
        for trial in range(10):
            rects = random_rects(rng, 60)
            cov, witness = greedy_cover_and_is_rects(rects)
            ids = sorted(witness)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    assert not rects[ids[a]].intersects(rects[ids[b]])
            assert 2 * len(witness) >= len(cov)

    @given(st.lists(LATTICE_RECT, min_size=1, max_size=24))
    def test_sweep_order_and_parts(self, rects):
        # per stab line in (x_hi, id) order, a part ends where a rectangle
        # starts right of the first right edge of the part
        parts, witness = [], []
        for line in sorted({r.stab_line for r in rects}):
            ids = [i for i, r in enumerate(rects) if r.stab_line == line]
            cut = None
            for i in sorted(ids, key=lambda i: (rects[i].x_hi, i)):
                if cut is None or rects[i].x_lo > cut:
                    parts.append(1 << i)
                    cut = rects[i].x_hi
                    witness.append((line, i))
                else:
                    parts[-1] |= 1 << i
        odd = frozenset(i for line, i in witness if line % 2)
        even = frozenset(i for line, i in witness if not line % 2)
        assert greedy_cover_and_is_rects(rects) == (
            tuple(parts), odd if len(odd) > len(even) else even)
        assert strip_cover_rects(rects) == tuple(
            _mask(i for i, r in enumerate(rects) if r.stab_line == line)
            for line in sorted({r.stab_line for r in rects}))

    def test_single_rect(self):
        cov, witness = greedy_cover_and_is_rects([Rect(0, SCALE, 0)])
        assert cov == (1,) and witness == frozenset({0})


class TestCandidateDiscs:
    def test_two_points_at_distance_one_share_one_disc(self):
        pts = [PointSite(0, 0), PointSite(SCALE, 0)]
        G = unit_distance_graph(pts)
        cands, _ = candidate_discs(pts, G)
        both = [d for d in cands if d.covers(pts[0]) and d.covers(pts[1])]
        assert both  # the coincident pair-disc covers both
        mid = [d for d in both if d.r == 0 and d.ax == Fraction(SCALE, 2)]
        assert mid

    def test_size_bound_and_coverage(self):
        rng = random.Random(10)
        for trial in range(10):
            pts = random_points(rng, 25)
            G = unit_distance_graph(pts)
            cands, _ = candidate_discs(pts, G)
            assert len(cands) <= 2 * G.m + G.n
            # every point-centered candidate covers its point; every pair disc
            # covers both endpoints of its edge
            for i, p in enumerate(pts):
                assert any(d.covers(p) for d in cands)
            for u, v in G.edges():
                assert any(d.covers(pts[u]) and d.covers(pts[v]) for d in cands)

    def test_far_pair_has_no_shared_disc(self):
        pts = [PointSite(0, 0), PointSite(2 * SCALE, 0)]
        G = unit_distance_graph(pts)
        for d in candidate_discs(pts, G)[0]:
            assert not (d.covers(pts[0]) and d.covers(pts[1]))

    def test_surd_cover_matches_float(self):
        rng = random.Random(11)
        pts = random_points(rng, 15)
        G = unit_distance_graph(pts)
        for d in candidate_discs(pts, G)[0]:
            cx, cy = d.center_float()
            for p in pts:
                exact = d.covers(p)
                approx = (p.x - cx) ** 2 + (p.y - cy) ** 2
                margin = (SCALE / 2) ** 2
                if abs(approx - margin) > 1e-3 * margin:
                    assert exact == (approx <= margin)


# offsets from the origin: zero, and far out in ticks and in units
FAR = st.sampled_from([0, 10 ** 12, -10 ** 12, 10 ** 12 * SCALE,
                       -10 ** 12 * SCALE])
NEAR = st.integers(-2 * SCALE, 2 * SCALE)
# pair offsets at distance exactly one, just under one and zero; with a
# square k, so the centers are lattice points; and anywhere
PAIR_STEP = st.one_of(
    st.sampled_from([(SCALE, 0), (0, -SCALE), (600000, 800000),
                     (-800000, 600000), (SCALE - 1, 0), (0, 1 - SCALE),
                     (599999, 800000), (0, 0), (400000, 200000),
                     (500000, -500000), (600000, 0), (0, 800000)]),
    st.tuples(st.integers(-SCALE, SCALE), st.integers(-SCALE, SCALE)))
# offsets at exactly half a unit, and one tick either side
HALF_STEPS = [(dx * s, dy * t) for dx, dy in [(SCALE // 2, 0), (0, SCALE // 2),
                                              (300000, 400000)]
              for s in (1, -1) for t in (1, -1)]


# any rational, of either sign; r = 0 often
RATIONAL = st.fractions()
ROOT = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0))


def reference_ints(d: Disc) -> tuple:
    """``Disc._ints`` in Fraction arithmetic: each lowest common
    denominator times its fractions."""
    a = math.lcm(d.ax.denominator, d.ay.denominator)
    b = math.lcm(d.bx.denominator, d.by.denominator)
    u, v = int(d.bx * b), int(d.by * b)
    rn, rd = d.r.numerator, d.r.denominator
    k = a * a * (SCALE * SCALE * b * b * rd - 4 * rn * (u * u + v * v))
    return (a, int(d.ax * a), int(d.ay * a), 4 * b * b * rd, k,
            -8 * a * b * u, -8 * a * b * v, rn * rd)


def near_center(d: Disc) -> tuple[int, int]:
    """The lattice point nearest the disc's center (the center itself when
    it is a lattice point: a square r has an exact float root)."""
    s = Fraction(math.sqrt(d.r))
    return round(d.ax + d.bx * s), round(d.ay + d.by * s)


def probes(base, offsets):
    """Points at the given offsets from base, and one tick off each."""
    out = []
    for dx, dy in offsets:
        for ex, ey in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            out.append(PointSite(base[0] + dx + ex, base[1] + dy + ey))
    return out


class TestDiscCovers:
    """The integer coverage test against the Fraction surd formula."""

    @given(FAR, NEAR, NEAR, PAIR_STEP, st.lists(st.tuples(NEAR, NEAR), max_size=8))
    def test_pair_discs(self, far, x, y, step, extra):
        p = PointSite(far + x, far - y)
        q = PointSite(p.x + step[0], p.y + step[1])
        pts = [p, q]
        for d, _ in brute_discs(pts).values():
            for r in pts + probes(near_center(d), extra + HALF_STEPS):
                assert d.covers(r) == surd_covers(d, r)

    @given(FAR, NEAR, NEAR, PAIR_STEP, st.lists(st.tuples(NEAR, NEAR), max_size=8))
    def test_key_constants(self, far, x, y, step, extra):
        # the builder's constants and coverage decisions come from the
        # integer key alone; p and q lie on their pair discs' circles
        p = PointSite(far + x, far - y)
        q = PointSite(p.x + step[0], p.y + step[1])
        pts = [p, q, p]
        for d, _ in brute_discs(pts).values():
            key = (int(2 * d.ax), int(2 * d.ay), int(d.bx), int(d.by))
            ints = geometry._key_ints(*key)
            assert ints == d._ints
            for r in pts + probes(near_center(d), extra + HALF_STEPS):
                assert geometry._covers(ints, r.x, r.y) == surd_covers(d, r)

    @given(FAR, NEAR, NEAR, st.sampled_from([1, 2, 3, 7, 10 ** 6]),
           st.lists(st.tuples(NEAR, NEAR), max_size=8))
    def test_rational_centers(self, far, x, y, den, extra):
        d = Disc.rational(Fraction(far * den + x, den), far + y)
        base = (int(d.ax), int(d.ay))
        for r in probes(base, extra + HALF_STEPS):
            assert d.covers(r) == surd_covers(d, r)
        # exactly half a unit from an integer center
        c = Disc.rational(far + x, far + y)
        for dx, dy in HALF_STEPS:
            assert c.covers(PointSite(far + x + dx, far + y + dy))
            assert not c.covers(PointSite(far + x + dx + (1 if dx > 0 else -1),
                                          far + y + dy))

    @given(FAR, st.lists(st.tuples(NEAR, NEAR), min_size=1, max_size=12))
    def test_greedy_half_tick_centers(self, far, offsets):
        # the disc centred in each nonempty quarter cell: its centre is
        # ((2q + 1)*SCALE + 2) / 4 per axis, half a tick off the lattice
        pts = [PointSite(far + x, far + y) for x, y in offsets]
        discs = [Disc.rational(Fraction((2 * qx + 1) * SCALE + 2, 4),
                               Fraction((2 * qy + 1) * SCALE + 2, 4))
                 for (qx, qy), _ in quarter_cell_partition(pts)]
        for d in discs:
            assert d.ax.denominator == 2 and d.ay.denominator == 2
            for r in pts + probes((int(d.ax), int(d.ay)), HALF_STEPS):
                assert d.covers(r) == surd_covers(d, r)

    @given(FAR, st.fractions(-3 * SCALE, 3 * SCALE, max_denominator=12),
           st.fractions(-3 * SCALE, 3 * SCALE, max_denominator=12),
           st.fractions(-SCALE, SCALE, max_denominator=5),
           st.fractions(-SCALE, SCALE, max_denominator=5),
           st.fractions(0, 2, max_denominator=50),
           st.lists(st.tuples(NEAR, NEAR), min_size=1, max_size=8))
    def test_any_surd_center(self, far, ax, ay, bx, by, r, offsets):
        d = Disc(far + ax, far + ay, bx, by, r)
        for x, y in offsets:
            p = PointSite(far + x, far + y)
            assert d.covers(p) == surd_covers(d, p)

    @example(Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0),
             0)
    @given(RATIONAL, RATIONAL, RATIONAL, RATIONAL, ROOT, FAR)
    def test_ints_match_fraction_formula(self, ax, ay, bx, by, r, far):
        d = Disc(far + ax, ay - far, bx, by, r)
        assert d._ints == reference_ints(d)

    def test_duplicate_points(self):
        p = PointSite(10 ** 12, -10 ** 12)
        pts = [p, p, PointSite(p.x + SCALE, p.y)]
        discs, masks = candidate_discs(pts, unit_distance_graph(pts))
        for d, mask in zip(discs, masks):
            assert mask == sum(1 << i for i, q in enumerate(pts)
                               if surd_covers(d, q))
        assert 0b111 in masks  # the midpoint disc


class TestCandidateMasks:
    """Both builders against brute force: same candidates in the same
    order, and every mask equal to a scan over all items."""

    # coarse lattices make shared edges, touching corners, duplicates,
    # collinear points and unit distances common
    RECT = st.tuples(st.integers(0, 8), st.integers(1, 5), st.integers(0, 8),
                     st.integers(0, 2))
    # lattices of either sign, also moved far out (FAR), where a sign or a
    # large magnitude would break an integer key order that differed from
    # the Fraction one
    POINT = st.one_of(
        st.tuples(st.integers(-12, 12), st.integers(-12, 12), FAR).map(
            lambda t: PointSite(t[0] * SCALE // 4 + t[2],
                                t[1] * SCALE // 4 - t[2])),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30), FAR).map(
            lambda t: PointSite(t[0] * SCALE // 10 + t[2],
                                t[1] * SCALE // 10 - t[2])),
        st.tuples(st.integers(-3 * SCALE, 3 * SCALE),
                  st.integers(-3 * SCALE, 3 * SCALE)).map(
            lambda t: PointSite(*t)))

    @staticmethod
    def rect_of(t):
        x, w, y, jitter = t
        # mostly half-unit lattice; a jitter of 2 gives a one-tick width
        x_lo = x * SCALE // 2 + jitter
        x_hi = x_lo + 1 if jitter == 2 else x_lo + w * SCALE // 2
        return Rect(x_lo, x_hi, y * SCALE // 2 - jitter)

    @given(st.lists(RECT, min_size=1, max_size=14), st.data())
    def test_pierce_grid(self, raw, data):
        rects = [self.rect_of(t) for t in raw]
        rects += data.draw(st.lists(st.sampled_from(rects), max_size=3))
        xs = sorted({r.x_hi for r in rects})
        ys = sorted({r.y_hi for r in rects})
        grid = [(PointSite(x, y),
                 sum(1 << i for i, r in enumerate(rects)
                     if r.contains_point(x, y)))
                for x in xs for y in ys]
        grid = [(p, m) for p, m in grid if m]
        points, masks = pierce_grid(rects)
        assert points == [p for p, _ in grid]
        assert masks == [m for _, m in grid]

    @given(st.lists(RECT, min_size=1, max_size=14), st.data())
    def test_pierce_runs_match_deduplicated_grid(self, raw, data):
        rects = [self.rect_of(t) for t in raw]
        rects += data.draw(st.lists(st.sampled_from(rects), max_size=3))
        points, masks = candidate_pierce_points(rects)
        first = first_of_each_mask(*pierce_grid(rects))
        assert points == list(first.values())
        assert masks == list(first)

    @given(st.lists(POINT, min_size=1, max_size=12), st.data())
    def test_discs(self, pts, data):
        pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))
        discs, masks = candidate_discs(pts, unit_distance_graph(pts))
        first = first_of_each_mask(*all_discs(pts))
        assert [d.key() for d in discs] == [d.key() for d in first.values()]
        assert masks == list(first)

    def test_cover_context_tests_only_neighbourhoods(self, monkeypatch):
        rng = random.Random(16)
        pts = random_points(rng, 120)
        pts += pts[:5]  # duplicates
        pts += [PointSite(i * SCALE // 2, 0) for i in range(6)]  # collinear
        calls = 0
        covers = geometry._covers

        def counting(ints, x, y):
            nonlocal calls
            calls += 1
            return covers(ints, x, y)

        monkeypatch.setattr(geometry, "_covers", counting)
        ctx = CoverContext(pts)
        monkeypatch.undo()
        deg = [len(a) for a in ctx.G.adj]
        # the builder tests the neighbourhood of a least-degree generator
        # of every candidate key, and keeps one disc per distinct mask
        brute = brute_discs(pts)
        bound = sum(min(deg[g] for g in gens) + 1 for _, gens in brute.values())
        assert calls <= bound < len(pts) * len(brute) // 10

    def test_cover_context_builds_one_disc_per_mask(self, monkeypatch):
        pts = list(instances.generate("points", 150, 1, "uniform").items)
        pts += pts[:5]  # duplicates
        built = 0
        post_init = Disc.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(Disc, "__post_init__", counting)
        ctx = CoverContext(pts)
        monkeypatch.undo()
        assert built <= len(set(ctx.disc_points)) < len(brute_discs(pts))


class TestGreedyDiscCover:
    """The greedy cover takes one candidate disc per nonempty quarter cell."""

    def test_covers_all_points(self):
        # a quarter cell has diameter below one unit, so some candidate disc
        # covers its whole part: the one the PTAS pays for a window unit
        rng = random.Random(12)
        for trial in range(10):
            pts = random_points(rng, 30)
            ctx = CoverContext(pts)
            for _, part in quarter_cell_partition(pts):
                d = ctx.candidates[ctx.candidate_covering(part)]
                assert all(d.covers(pts[i]) for i in _ids(part))

    def test_quarter_partition_covers_indices(self):
        rng = random.Random(14)
        pts = random_points(rng, 30)
        seen = 0
        for _, group in quarter_cell_partition(pts):
            assert not (seen & group)
            seen |= group
        assert seen == (1 << len(pts)) - 1


class TestPierceCandidates:
    def test_every_rect_contains_a_candidate(self):
        rng = random.Random(15)
        for trial in range(10):
            rects = random_rects(rng, 25)
            cands, _ = candidate_pierce_points(rects)
            for r in rects:
                assert any(r.contains_point(p.x, p.y) for p in cands)

    def test_corner_point_optimality_preserved(self):
        # two overlapping rects: a single candidate pierces both
        rects = [Rect(0, 2 * SCALE, 0), Rect(SCALE, 3 * SCALE, SCALE // 2)]
        cands, _ = candidate_pierce_points(rects)
        assert any(all(r.contains_point(p.x, p.y) for r in rects)
                   for p in cands)

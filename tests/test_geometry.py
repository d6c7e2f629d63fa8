import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliquesep.geometry import (SCALE, BoundaryPointError, Disc, GridFrame,
                                PointSite, Rect, candidate_discs,
                                candidate_pierce_points,
                                greedy_cover_and_is_rects, greedy_disc_cover,
                                helly_point, parse_coord, format_coord,
                                quarter_cell_partition,
                                rect_intersection_graph, sq_dist,
                                strip_cover_rects, unit_distance_graph,
                                interval_graph, vertical_strip_cover_points,
                                x_chordal_graph, y_chordal_graph_points)
from cliquesep.graphs import Graph, cover_length, verify_clique_cover
from cliquesep.chordal import mcs_order


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
        for bad in ("", "abc", "1.2.3", "--1"):
            with pytest.raises(ValueError):
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
        pts = [PointSite(0, 0), PointSite(SCALE, 0), PointSite(SCALE + 1, 0)]
        G = unit_distance_graph(pts)
        assert G.has_edge(0, 1)       # distance exactly one
        assert not G.has_edge(0, 2)   # one tick beyond
        assert G.has_edge(1, 2)

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
            frame = GridFrame.for_points(pts)
            cov = vertical_strip_cover_points(pts, frame)
            strip = [frame.strip_index(p.x) for p in pts]
            # G1: strip indices differ by at most one
            G1 = pairwise_graph(len(pts),
                                lambda i, j: abs(strip[i] - strip[j]) <= 1)
            assert verify_clique_cover(G1, cov)
            G = unit_distance_graph(pts)
            assert cover_length(G, cov).value <= 1
            assert all(abs(strip[u] - strip[v]) <= 1 for u, v in G.edges())

    def test_boundary_point_rejected(self):
        pts = [PointSite(0, 0)]
        frame = GridFrame(Fraction(0), Fraction(0))
        with pytest.raises(BoundaryPointError):
            vertical_strip_cover_points(pts, frame)

    def test_frame_offset_avoids_integer_points(self):
        rng = random.Random(7)
        pts = random_points(rng, 30)
        frame = GridFrame.for_points(pts)
        assert frame.valid_for(pts)


class TestGreedyCoverRects:
    def test_cover_parts_share_a_common_point(self):
        rng = random.Random(8)
        for trial in range(10):
            rects = random_rects(rng, 60)
            cov, witness = greedy_cover_and_is_rects(rects)
            assert verify_clique_cover(rect_intersection_graph(rects), cov)
            for part in cov.parts:
                helly_point([rects[i] for i in part])  # raises if not a clique

    def test_witness_is_independent_and_half_of_cover(self):
        rng = random.Random(9)
        for trial in range(10):
            rects = random_rects(rng, 60)
            cov, witness = greedy_cover_and_is_rects(rects)
            ids = sorted(witness)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    assert not rects[ids[a]].intersects(rects[ids[b]])
            assert 2 * len(witness) >= len(cov.parts)

    def test_single_rect(self):
        cov, witness = greedy_cover_and_is_rects([Rect(0, SCALE, 0)])
        assert len(cov.parts) == 1 and witness == frozenset({0})


class TestCandidateDiscs:
    def test_two_points_at_distance_one_share_one_disc(self):
        pts = [PointSite(0, 0), PointSite(SCALE, 0)]
        G = unit_distance_graph(pts)
        cands = candidate_discs(pts, G)
        both = [d for d in cands if d.covers(pts[0]) and d.covers(pts[1])]
        assert both  # the coincident pair-disc covers both
        mid = [d for d in both if d.r == 0 and d.ax == Fraction(SCALE, 2)]
        assert mid

    def test_size_bound_and_coverage(self):
        rng = random.Random(10)
        for trial in range(10):
            pts = random_points(rng, 25)
            G = unit_distance_graph(pts)
            cands = candidate_discs(pts, G)
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
        for d in candidate_discs(pts, G):
            assert not (d.covers(pts[0]) and d.covers(pts[1]))

    def test_surd_cover_matches_float(self):
        rng = random.Random(11)
        pts = random_points(rng, 15)
        G = unit_distance_graph(pts)
        for d in candidate_discs(pts, G):
            cx, cy = d.center_float()
            for p in pts:
                exact = d.covers(p)
                approx = (p.x - cx) ** 2 + (p.y - cy) ** 2
                margin = (SCALE / 2) ** 2
                if abs(approx - margin) > 1e-3 * margin:
                    assert exact == (approx <= margin)


class TestGreedyDiscCover:
    def test_covers_all_points(self):
        rng = random.Random(12)
        for trial in range(10):
            pts = random_points(rng, 30)
            frame = GridFrame.for_points(pts)
            discs = greedy_disc_cover(pts, frame)
            for p in pts:
                assert any(d.covers(p) for d in discs)

    def test_one_disc_per_nonempty_quarter(self):
        rng = random.Random(13)
        pts = random_points(rng, 30)
        frame = GridFrame.for_points(pts)
        assert len(greedy_disc_cover(pts, frame)) == \
            len(quarter_cell_partition(pts, frame))

    def test_quarter_partition_covers_indices(self):
        rng = random.Random(14)
        pts = random_points(rng, 30)
        frame = GridFrame.for_points(pts)
        seen = set()
        for _, group in quarter_cell_partition(pts, frame):
            assert not (seen & group)
            seen |= group
        assert seen == set(range(len(pts)))


class TestPierceCandidates:
    def test_every_rect_contains_a_candidate(self):
        rng = random.Random(15)
        for trial in range(10):
            rects = random_rects(rng, 25)
            cands = candidate_pierce_points(rects)
            for r in rects:
                assert any(r.contains_point(p.x, p.y) for p in cands)

    def test_corner_point_optimality_preserved(self):
        # two overlapping rects: a single candidate pierces both
        rects = [Rect(0, 2 * SCALE, 0), Rect(SCALE, 3 * SCALE, SCALE // 2)]
        cands = candidate_pierce_points(rects)
        assert any(all(r.contains_point(p.x, p.y) for r in rects)
                   for p in cands)

    def test_helly_point_on_clique(self):
        rects = [Rect(0, 2 * SCALE, 0), Rect(SCALE, 3 * SCALE, SCALE // 2),
                 Rect(SCALE // 2, 4 * SCALE, SCALE // 4)]
        p = helly_point(rects)
        assert all(r.contains_point(p.x, p.y) for r in rects)

    def test_helly_point_rejects_non_clique(self):
        with pytest.raises(ValueError):
            helly_point([Rect(0, SCALE, 0), Rect(3 * SCALE, 4 * SCALE, 0)])

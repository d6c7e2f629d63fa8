import pytest
from hypothesis import given, strategies as st

from cliquesep import instances
from cliquesep.geometry import SCALE, PointSite, Rect
from cliquesep.instances import (FormatError, Instance, generate, parse,
                                 serialize)


coords = st.integers(-10 ** 8, 10 ** 8)


@st.composite
def rect_instances(draw):
    items = []
    for _ in range(draw(st.integers(0, 12))):
        x_lo = draw(coords)
        w = draw(st.integers(1, 3 * SCALE))
        items.append(Rect(x_lo, x_lo + w, draw(coords)))
    return Instance("rects", tuple(items), {"seed": draw(st.integers(0, 99))})


@st.composite
def point_instances(draw):
    items = [PointSite(draw(coords), draw(coords))
             for _ in range(draw(st.integers(0, 12)))]
    return Instance("points", tuple(items), {})


class TestRoundTrip:
    @given(rect_instances())
    def test_rects(self, inst):
        assert parse(serialize(inst)) == inst

    @given(point_instances())
    def test_points(self, inst):
        assert parse(serialize(inst)) == inst

    def test_comments_and_blanks_ignored(self):
        text = ("cliquesep-instance v1\n\nkind points\n"
                "# a comment\npoint 0.5 1.5  # trailing\n")
        inst = parse(text)
        assert inst.items == (PointSite(SCALE // 2, 3 * SCALE // 2),)


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse("kind rects\n")

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse("cliquesep-instance v1\nkind discs\n")

    def test_bad_record(self):
        with pytest.raises(FormatError):
            parse("cliquesep-instance v1\nkind rects\nrect 0 1\n")

    def test_bad_coordinate(self):
        with pytest.raises(FormatError):
            parse("cliquesep-instance v1\nkind points\npoint 0.1234567 0\n")

    def test_inverted_rect(self):
        # inverted and zero-width rectangles get the same message
        for line in ("rect 2 1 0", "rect 1 1 0"):
            with pytest.raises(FormatError, match="rect needs x_lo < x_hi"):
                parse(f"cliquesep-instance v1\nkind rects\n{line}\n")

    def test_bad_meta(self):
        with pytest.raises(FormatError):
            parse("cliquesep-instance v1\nkind rects\nmeta [1,2\n")


class TestGenerators:
    def test_deterministic(self):
        a = generate("rects", 20, 7)
        b = generate("rects", 20, 7)
        assert a == b and serialize(a) == serialize(b)

    def test_seeds_differ(self):
        assert generate("rects", 20, 7) != generate("rects", 20, 8)

    def test_sizes(self):
        for kind in ("rects", "points"):
            for style in ("uniform", "clustered", "chain"):
                inst = generate(kind, 9, 3, style)
                assert inst.n == 9 and inst.kind == kind

    def test_rect_chain_is_a_path(self):
        from cliquesep.geometry import rect_intersection_graph
        inst = generate("rects", 9, 0, "chain")
        G = rect_intersection_graph(list(inst.items))
        degs = sorted(G.degree(v) for v in range(9))
        assert sorted(G.edges()) == [(i, i + 1) for i in range(8)]
        assert degs == [1, 1] + [2] * 7

    def test_points_are_distinct(self):
        inst = generate("points", 50, 9, "clustered")
        assert len(set(inst.items)) == 50

    def test_negative_n_rejected(self):
        for kind in ("rects", "points"):
            with pytest.raises(ValueError, match="n must be non-negative"):
                generate(kind, -5, 0)
            assert generate(kind, 0, 0).n == 0

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            generate("rects", 5, 0, "spiral")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Instance("rects", (PointSite(0, 0),))

    def test_save_load(self, tmp_path):
        inst = generate("points", 12, 4)
        p = tmp_path / "x.inst"
        instances.save(inst, p)
        assert instances.load(p) == inst

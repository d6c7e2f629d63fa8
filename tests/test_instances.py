import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cliquesep import instances
from cliquesep.geometry import SCALE, PointSite, Rect, parse_coord
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

    def test_meta_value_with_a_hash(self):
        inst = Instance("rects", (Rect(0, SCALE, 0),), {"note": "run #3"})
        assert parse(serialize(inst)) == inst

    def test_meta_line_with_a_trailing_comment(self):
        text = ('cliquesep-instance v1\nkind points\n'
                'meta {"a": "#1", "b": 2}  # a comment {"c": 3}\npoint 1 2\n')
        inst = parse(text)
        assert inst.meta == {"a": "#1", "b": 2}
        assert inst.items == (PointSite(SCALE, 2 * SCALE),)

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
        # json.loads's messages: trailing data, a bad value, not an object
        for meta, message in [
                ('{"a": 1} x', "bad meta json: Extra data: line 1 column 10 (char 9)"),
                ('{"a": 1}\u3000x', "bad meta json: Extra data: line 1 column 9 (char 8)"),
                ('\u3000{}', "bad meta json: Expecting value: line 1 column 1 (char 0)"),
                ('[1] # c', "meta must be a json object")]:
            with pytest.raises(FormatError) as err:
                parse(f"cliquesep-instance v1\nkind rects\nmeta {meta}\n")
            assert str(err.value) == message

    def test_load_rejects_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "bad.inst"
        p.write_bytes(b"cliquesep-instance v1\nkind rects\nrect 0 1 \xff\n")
        with pytest.raises(FormatError, match=r"bad.inst: byte 42 is not UTF-8"):
            instances.load(p)


def reference_items(kind, body):
    """The items of body lines token by token: each line cut at ``#`` and
    stripped, ``str.split`` into fields, ``parse_coord`` for each
    coordinate; the messages are the parser's."""
    items = []
    for ln in body.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        fields = ln.split()
        try:
            if kind == "rects":
                if fields[0] != "rect" or len(fields) != 4:
                    raise FormatError(f"expected 'rect x_lo x_hi y_lo': {ln!r}")
                x_lo, x_hi, y_lo = (parse_coord(f) for f in fields[1:])
                if x_hi <= x_lo:
                    raise FormatError(f"rect needs x_lo < x_hi: {ln!r}")
                items.append(Rect(x_lo, x_hi, y_lo))
            else:
                if fields[0] != "point" or len(fields) != 3:
                    raise FormatError(f"expected 'point x y': {ln!r}")
                items.append(PointSite(parse_coord(fields[1]), parse_coord(fields[2])))
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"bad coordinate in {ln!r}: {exc}") from exc
    return tuple(items)


# every character str.split splits on, line breaks of str.splitlines included
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# digits, the sign and point, characters int() or str.isdigit take that the
# format does not (an exponent, an underscore, an Arabic-Indic one and a
# superscript two), and a comment mark
TOKENS = ["0", "1", "9", "00", ".", "+", "-", "e", "_", "\u0661", "\u00b2", "#"]
# whitespace, mostly plain spaces so that most lines stay one line
SPACE = st.sampled_from([" "] * 20 + SPACES)
GAP = st.lists(SPACE, max_size=2).map("".join)
NONEMPTY_GAP = st.lists(SPACE, min_size=1, max_size=2).map("".join)
# now and then a character int() takes inside digits ("_", "\u0661")
DIGITS = st.lists(st.sampled_from(["0", "1", "9", "00"] * 5 + ["_", "\u0661", "\u00b2"]),
                  max_size=4).map("".join)
# mostly well formed: a sign, whole digits, a point and up to 8 fractional
# digits, so a few have too many
COORD = st.tuples(st.sampled_from(["", "", "+", "-"]), DIGITS,
                  st.sampled_from(["", "."]), DIGITS).map("".join)
JUNK = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4).map("".join)


@st.composite
def item_lines(draw):
    """A kind and a body line: mostly the kind's keyword and as many
    coordinates as it takes, joined by runs of whitespace (line breaks
    included)."""
    kind = draw(st.sampled_from(["rects", "points"]))
    keyword, count = ("rect", 3) if kind == "rects" else ("point", 2)
    if draw(st.integers(0, 7)) == 0:
        keyword = draw(st.sampled_from(["rect", "point", "re", "rect1"]))
    if draw(st.integers(0, 7)) == 0:
        count = draw(st.integers(1, 4))
    line = draw(GAP) + keyword
    for _ in range(count):
        line += draw(NONEMPTY_GAP) + draw(COORD if draw(st.integers(0, 7)) else JUNK)
    return kind, line + draw(GAP)


class TestLineGrammar:
    """The compiled line patterns against the token-by-token reference."""

    @settings(max_examples=500)
    @given(item_lines())
    @example(("rects", "rect 1. -.5 +0.000001 # c"))
    @example(("rects", "\u3000rect\t2 3\u20282 3 4"))
    @example(("points", "point 00 -0"))
    @example(("points", "point 1.1234567 0"))
    @example(("points", "point 1.2.3 0"))
    @example(("points", "point 1_0 0"))
    @example(("rects", "rect 0 \u0661 0"))
    def test_same_items_or_message(self, case):
        kind, line = case
        text = f"cliquesep-instance v1\nkind {kind}\n{line}\n"
        try:
            want = reference_items(kind, line)
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                parse(text)
            assert str(err.value) == str(exc)
            return
        assert parse(text).items == want
        # a valid line never needs the per-token path
        for ln in line.splitlines():
            if ln.split("#", 1)[0].strip():
                assert instances._LINE[kind].fullmatch(ln)

    def test_more_digits_than_one_int_conversion_takes(self):
        # the pattern matches, the whole digits and six fractional ones are
        # too many for one int() call, and the per-token path decides
        limit = sys.get_int_max_str_digits()
        for whole in ("7" * (limit - 2), "7" * (limit + 1)):
            line = f"point {whole}.5 0"
            assert instances._LINE["points"].fullmatch(line)
            text = f"cliquesep-instance v1\nkind points\n{line}\n"
            try:
                want = reference_items("points", line)
            except FormatError as exc:
                with pytest.raises(FormatError) as err:
                    parse(text)
                assert str(err.value) == str(exc)
            else:
                assert parse(text).items == want


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

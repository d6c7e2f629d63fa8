"""Instance container, seeded generators, and the line-oriented file format.

Coordinates are scaled integers end to end, so parse/serialize round-trips
exactly.  The text format is::

    cliquesep-instance v1
    kind rects            # or: kind points
    meta {"generator": "uniform", "seed": 7}
    rect 0.25 1.75 3.5    # x_lo x_hi y_lo (heights are always 1)
    point 2.125 0.4       # x y

Blank lines and ``#`` comments are ignored; the meta line's JSON is read
as written, so a ``#`` inside one of its strings is kept.  Tokens are
separated by any run of whitespace (``str.split``'s), and a coordinate is an
optional sign, ASCII digits and at most 6 fractional digits after a point
(``1``, ``-.5``, ``+2.``).  Each item line is read with one compiled pattern;
a line it does not match is read token by token with
:func:`~cliquesep.geometry.parse_coord`, which names the error.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

from .geometry import SCALE, PointSite, Rect, format_coord, parse_coord

KIND_RECTS = "rects"
KIND_POINTS = "points"

_HEADER = "cliquesep-instance v1"


@dataclass(frozen=True)
class Instance:
    kind: str
    items: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (KIND_RECTS, KIND_POINTS):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        want = Rect if self.kind == KIND_RECTS else PointSite
        for it in self.items:
            if not isinstance(it, want):
                raise ValueError(f"{self.kind} instance holds a {type(it).__name__}")

    @property
    def n(self) -> int:
        return len(self.items)


class FormatError(ValueError):
    pass


def serialize(inst: Instance) -> str:
    lines = [_HEADER, f"kind {inst.kind}"]
    if inst.meta:
        lines.append("meta " + json.dumps(inst.meta, sort_keys=True))
    for it in inst.items:
        if inst.kind == KIND_RECTS:
            lines.append("rect %s %s %s" % (format_coord(it.x_lo),
                                            format_coord(it.x_hi),
                                            format_coord(it.y_lo)))
        else:
            lines.append("point %s %s" % (format_coord(it.x), format_coord(it.y)))
    return "\n".join(lines) + "\n"


# One rect or point line of ASCII-digit coordinates, as ``str.split`` and
# ``parse_coord`` read it: in a str pattern ``\s`` matches exactly the
# characters ``str.split`` splits on.  Each coordinate is two groups, the
# sign and whole digits, and the (at most 6) fractional digits; the
# lookahead asks for at least one digit.
_COORD = r"([+-]?(?=\.?[0-9])[0-9]*)(?:\.([0-9]{0,6}))?"
_LINE = {KIND_RECTS: re.compile(rf"\s*rect\s+{_COORD}\s+{_COORD}\s+{_COORD}\s*(?:#.*)?",
                                re.DOTALL),
         KIND_POINTS: re.compile(rf"\s*point\s+{_COORD}\s+{_COORD}\s*(?:#.*)?",
                                 re.DOTALL)}
_JSON = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"


def parse(text: str) -> Instance:
    lines = text.splitlines()
    pos = 0

    def significant():
        """The next line that is not blank once its comment is cut, cut and
        stripped, or None at the end."""
        nonlocal pos
        while pos < len(lines):
            ln = lines[pos].split("#", 1)[0].strip()
            pos += 1
            if ln:
                return ln
        return None

    if significant() != _HEADER:
        raise FormatError(f"missing header line {_HEADER!r}")
    ln = significant()
    if ln is None or not ln.startswith("kind "):
        raise FormatError("missing kind line")
    kind = ln[5:].strip()
    if kind not in (KIND_RECTS, KIND_POINTS):
        raise FormatError(f"unknown kind {kind!r}")
    meta: dict = {}
    body = pos
    ln = significant()
    if ln is not None and ln.startswith("meta "):
        meta = _meta(lines[pos - 1].lstrip()[5:])
        body = pos
    return Instance(kind, _items(kind, lines[body:]), meta)


def _meta(text: str) -> dict:
    """The JSON object at the start of ``text``, a meta line after its
    keyword, read as written so that a ``#`` inside a JSON string stays;
    only whitespace or a ``#`` comment may follow it."""
    try:
        meta, end = _JSON.raw_decode(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        tail = text[end:]
        if tail.split("#", 1)[0].strip():  # json.loads's error for the rest
            raise json.JSONDecodeError(
                "Extra data", text, len(text) - len(tail.lstrip(_JSON_SPACE)))
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad meta json: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError("meta must be a json object")
    return meta


def _items(kind: str, lines: list[str]) -> tuple:
    """The items of the body lines.  A line the kind's pattern matches is
    converted from the pattern's groups.  Any other line, and one whose
    conversion fails, is cut at ``#`` and stripped: it is skipped when that
    leaves it blank and goes through :func:`_item` otherwise."""
    match = _LINE[kind].fullmatch
    rects = kind == KIND_RECTS
    items = []
    append = items.append
    for ln in lines:
        m = match(ln)
        if m is not None:
            try:
                if rects:
                    a, b, c, d, e, f = m.groups("")
                    z = int(e + f.ljust(6, "0"))
                else:
                    a, b, c, d = m.groups("")
                x, y = int(a + b.ljust(6, "0")), int(c + d.ljust(6, "0"))
            except ValueError:  # more digits than one int() call converts
                pass
            else:
                if not rects:
                    append(PointSite(x, y))
                    continue
                if x < y:
                    append(Rect(x, y, z))
                    continue
        ln = ln.split("#", 1)[0].strip()
        if ln:
            append(_item(kind, ln))
    return tuple(items)


def _item(kind: str, ln: str):
    """The item of one comment-free, stripped line, token by token with
    :func:`~cliquesep.geometry.parse_coord`, or the FormatError naming what
    is wrong with it."""
    fields = ln.split()
    try:
        if kind == KIND_RECTS:
            if fields[0] != "rect" or len(fields) != 4:
                raise FormatError(f"expected 'rect x_lo x_hi y_lo': {ln!r}")
            x_lo, x_hi, y_lo = (parse_coord(f) for f in fields[1:])
            if x_hi <= x_lo:
                raise FormatError(f"rect needs x_lo < x_hi: {ln!r}")
            return Rect(x_lo, x_hi, y_lo)
        if fields[0] != "point" or len(fields) != 3:
            raise FormatError(f"expected 'point x y': {ln!r}")
        return PointSite(parse_coord(fields[1]), parse_coord(fields[2]))
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"bad coordinate in {ln!r}: {exc}") from exc


def load(path) -> Instance:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    return parse(text)


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(inst))


# ---------------------------------------------------------------------------
# generators (seeded, deterministic)


def _tick(rng: random.Random, lo: float, hi: float) -> int:
    """A coordinate in [lo, hi] with at most 3 fractional digits."""
    lo_t, hi_t = math.ceil(lo * 1000), math.floor(hi * 1000)
    return rng.randint(lo_t, hi_t) * (SCALE // 1000)


def generate_rects(n: int, seed: int, style: str = "uniform") -> Instance:
    """Unit-height rectangles of width in [0.5, 3] inside a ~sqrt(n) box."""
    rng = random.Random(seed)
    box = max(2.0, math.sqrt(n))
    rects = []
    if style == "uniform":
        for _ in range(n):
            x_lo = _tick(rng, 0, box)
            width = _tick(rng, 0.5, 3.0)
            rects.append(Rect(x_lo, x_lo + width, _tick(rng, 0, box)))
    elif style == "clustered":
        k = max(1, round(math.sqrt(n) / 2))
        centers = [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(k)]
        for _ in range(n):
            cx, cy = centers[rng.randrange(k)]
            x_lo = _tick(rng, cx, cx + 1.5)
            width = _tick(rng, 0.5, 2.0)
            rects.append(Rect(x_lo, x_lo + width, _tick(rng, cy, cy + 1.5)))
    elif style == "chain":
        # an overlapping row whose intersection graph is a path: each
        # rectangle meets only its neighbors (step 0.6 of the unit width)
        for i in range(n):
            x_lo = i * (3 * SCALE // 5)
            rects.append(Rect(x_lo, x_lo + SCALE, 0))
    else:
        raise ValueError(f"unknown rect style {style!r}")
    meta = {"generator": style, "seed": seed, "n": n}
    return Instance(KIND_RECTS, tuple(rects), meta)


def generate_points(n: int, seed: int, style: str = "uniform") -> Instance:
    """Point sites inside a ~sqrt(n) box."""
    rng = random.Random(seed)
    box = max(2.0, math.sqrt(n))
    pts: list[PointSite] = []
    seen: set[tuple[int, int]] = set()

    def add(x: int, y: int):
        if (x, y) not in seen:
            seen.add((x, y))
            pts.append(PointSite(x, y))

    if style == "uniform":
        while len(pts) < n:
            add(_tick(rng, 0, box), _tick(rng, 0, box))
    elif style == "clustered":
        k = max(1, round(math.sqrt(n) / 2))
        centers = [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(k)]
        while len(pts) < n:
            cx, cy = centers[rng.randrange(k)]
            add(_tick(rng, cx, cx + 1.2), _tick(rng, cy, cy + 1.2))
    elif style == "chain":
        # a jittered diagonal staircase of nearby points
        x = y = 0
        while len(pts) < n:
            add(x, y)
            x += rng.randint(300, 700) * (SCALE // 1000)
            y += rng.randint(0, 600) * (SCALE // 1000)
    else:
        raise ValueError(f"unknown point style {style!r}")
    meta = {"generator": style, "seed": seed, "n": n}
    return Instance(KIND_POINTS, tuple(pts), meta)


def generate(kind: str, n: int, seed: int, style: str = "uniform") -> Instance:
    if n < 0:
        raise ValueError("n must be non-negative")
    if kind == KIND_RECTS:
        return generate_rects(n, seed, style)
    if kind == KIND_POINTS:
        return generate_points(n, seed, style)
    raise ValueError(f"unknown instance kind {kind!r}")

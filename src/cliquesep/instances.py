"""Instance container, seeded generators, and the line-oriented file format.

Coordinates are scaled integers end to end, so parse/serialize round-trips
exactly.  The text format is::

    cliquesep-instance v1
    kind rects            # or: kind points
    meta {"generator": "uniform", "seed": 7}
    rect 0.25 1.75 3.5    # x_lo x_hi y_lo (heights are always 1)
    point 2.125 0.4       # x y

Blank lines and ``#`` comments are ignored.
"""
from __future__ import annotations

import json
import math
import random
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


def parse(text: str) -> Instance:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != _HEADER:
        raise FormatError(f"missing header line {_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("kind "):
        raise FormatError("missing kind line")
    kind = lines[1][5:].strip()
    if kind not in (KIND_RECTS, KIND_POINTS):
        raise FormatError(f"unknown kind {kind!r}")
    meta: dict = {}
    body = lines[2:]
    if body and body[0].startswith("meta "):
        try:
            meta = json.loads(body[0][5:])
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad meta json: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError("meta must be a json object")
        body = body[1:]
    items = []
    for ln in body:
        fields = ln.split()
        try:
            if kind == KIND_RECTS:
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
    return Instance(kind, tuple(items), meta)


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


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

"""Geometric types and builders with exact arithmetic.

Coordinates are scaled integers: one geometric unit equals ``SCALE`` ticks, so
decimal inputs with at most six fractional digits are represented exactly and
rectangle intersection, distance at most one and disc coverage reduce to
integer comparisons.  Disc centers arising from two-point constructions are
quadratic surds a + b*sqrt(r) with rational a, b, r; a disc clears their
denominators once, so testing a point against it is exact and uses integers
only.

The candidate builders are output sensitive: a candidate disc is tested only
against the unit-distance neighbourhood of a point that generated it, on
integer constants read off its integer key, and only the first disc of each
distinct covered set is built; the piercing grid is swept one right edge at
a time, keeping the ends of the top-edge runs of the rectangles that span
it from one column to the next.

All sets are closed: boundary contact counts as intersection/coverage, and a
point pair at distance exactly one unit is adjacent.

The point grid is fixed half a tick off the integer coordinates: unit
strips start at ``k*SCALE + 1/2`` and quarter cells at ``k*SCALE/2 + 1/2``,
so no integer coordinate lies on a grid line.  Cells are half-open, so every
point falls in exactly one of them, and cell indices are integer floor
divisions.

For each instance the separator engine needs the intersection graph G, the
intervals of a chordal supergraph G2 (an interval graph), the ordered
strip cover of a second supergraph G1, and the clique partition behind the
measure.  Neither supergraph is built: the intervals and the strip cover are
all of them that the engine reads.  G is built once per instance, as the int
neighbour masks a :class:`~cliquesep.graphs.Graph` stores: the sweeps set
the bits of each pair they find, with no edge list or per-vertex set in
between.  The covers come out as ordered tuples of part masks, bit i for
item i, which is the form the engine's frame holds them in.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from .graphs import Graph, _ids

SCALE = 10 ** 6  # ticks per geometric unit


def parse_coord(text: str) -> int:
    """Exact decimal string of ASCII digits -> scaled integer.  At most 6
    fractional digits."""
    text = text.strip()
    neg = text.startswith("-")
    if neg or text.startswith("+"):
        body = text[1:]
    else:
        body = text
    if "." in body:
        whole, frac = body.split(".", 1)
    else:
        whole, frac = body, ""
    if len(frac) > 6:
        raise ValueError(f"coordinate {text!r} has more than 6 fractional digits")
    digits = whole + frac
    # str.isdigit and int also take non-ASCII digits such as "١" and "²"
    if not digits or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed coordinate {text!r}")
    value = int(whole or "0") * SCALE + int((frac + "000000")[:6])
    return -value if neg else value


def format_coord(value: int) -> str:
    """Scaled integer -> canonical decimal string (round-trips exactly)."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, frac = divmod(value, SCALE)
    text = f"{whole}.{frac:06d}".rstrip("0").rstrip(".")
    return sign + text


@dataclass(frozen=True, order=True)
class Rect:
    """Closed axis-parallel rectangle of height exactly one unit."""

    x_lo: int
    x_hi: int
    y_lo: int

    def __post_init__(self):
        if self.x_lo >= self.x_hi:
            raise ValueError("rectangle needs x_lo < x_hi")

    @property
    def y_hi(self) -> int:
        return self.y_lo + SCALE

    @property
    def stab_line(self) -> int:
        """Lowest integer horizontal line (in units) crossing the rectangle."""
        return -((-self.y_lo) // SCALE)

    def intersects(self, other: "Rect") -> bool:
        return (self.x_lo <= other.x_hi and other.x_lo <= self.x_hi
                and abs(self.y_lo - other.y_lo) <= SCALE)

    def contains_point(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi


@dataclass(frozen=True, order=True)
class PointSite:
    x: int
    y: int


def sq_dist(p: PointSite, q: PointSite) -> int:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


@dataclass(frozen=True)
class Disc:
    """Closed disc of unit diameter with center (ax + bx*sqrt(r), ay + by*sqrt(r)).

    Rational-centered discs have bx = by = 0 and r = 0.  The fields stay
    rational; :meth:`covers` reads integer constants derived from them once,
    when the disc is built, unless the builder hands them over as ``_ints``
    (:func:`candidate_discs` derives them from its integer key).
    """

    ax: Fraction
    ay: Fraction
    bx: Fraction
    by: Fraction
    r: Fraction
    _ints: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._ints is not None:
            return
        # With ax = x0/a, ay = y0/a, bx = u/b, by = v/b and r = rn/rd in
        # lowest terms, multiplying |p - center|^2 <= S^2/4 by 4*a^2*b^2*rd
        # turns it into  i*sqrt(m) <= k - c*(X^2 + Y^2)  for the integers
        # X = a*p.x - x0, Y = a*p.y - y0, i = ix*X + iy*Y and m = rn*rd.
        # Every product is of numerators and denominators, so no Fraction
        # arithmetic runs.
        ax, ay, bx, by = self.ax, self.ay, self.bx, self.by
        a = math.lcm(ax.denominator, ay.denominator)
        b = math.lcm(bx.denominator, by.denominator)
        u = bx.numerator * (b // bx.denominator)
        v = by.numerator * (b // by.denominator)
        rn, rd = self.r.numerator, self.r.denominator
        k = a * a * (SCALE * SCALE * b * b * rd - 4 * rn * (u * u + v * v))
        object.__setattr__(self, "_ints", (
            a, ax.numerator * (a // ax.denominator),
            ay.numerator * (a // ay.denominator), 4 * b * b * rd, k,
            -8 * a * b * u, -8 * a * b * v, rn * rd))

    @classmethod
    def rational(cls, cx, cy) -> "Disc":
        return cls(Fraction(cx), Fraction(cy), Fraction(0), Fraction(0), Fraction(0))

    def key(self):
        return (self.ax, self.ay, self.bx, self.by, self.r)

    def covers(self, p: PointSite) -> bool:
        """Exact test |p - center|^2 <= (SCALE/2)^2, in integers."""
        return _covers(self._ints, p.x, p.y)

    def center_float(self) -> tuple[float, float]:
        s = math.sqrt(float(self.r))
        return (float(self.ax) + float(self.bx) * s,
                float(self.ay) + float(self.by) * s)


def _covers(ints: tuple, x: int, y: int) -> bool:
    """Whether the disc with integer constants ``ints`` (``Disc._ints``)
    covers the point (x, y): the one coverage test of the library."""
    a, x0, y0, c, k, ix, iy, m = ints
    X = a * x - x0
    Y = a * y - y0
    d = k - c * (X * X + Y * Y)
    i = ix * X + iy * Y
    # decide i*sqrt(m) <= d
    if i == 0 or m == 0:
        return d >= 0
    if i > 0:
        return d >= 0 and i * i * m <= d * d
    return d >= 0 or i * i * m >= d * d


def _key_ints(sx: int, sy: int, bx: int, by: int) -> tuple:
    """``Disc._ints`` of the candidate disc with integer key
    ``(sx, sy, bx, by)`` (see :func:`candidate_discs`), from the key alone.

    Its center is (sx/2, sy/2) + (bx, by)*sqrt(r), with r = 0 when
    bx = by = 0 and otherwise r = (S^2 - |b|^2) / (4|b|^2), S = SCALE.  So
    the common denominator of the rational part is 2 when sx or sy is odd
    and 1 otherwise, that of (bx, by) is 1, and r is put in lowest terms
    with one gcd.
    """
    a = 2 if (sx | sy) & 1 else 1
    x0, y0 = sx * a >> 1, sy * a >> 1
    norm = bx * bx + by * by
    if not norm:
        return (a, x0, y0, 4, a * a * SCALE * SCALE, 0, 0, 0)
    num, den = SCALE * SCALE - norm, 4 * norm
    g = math.gcd(num, den)
    rn, rd = num // g, den // g
    return (a, x0, y0, 4 * rd, a * a * (SCALE * SCALE * rd - 4 * rn * norm),
            -8 * a * bx, -8 * a * by, rn * rd)


# ---------------------------------------------------------------------------
# intersection-graph builders


def rect_intersection_graph(rects: Sequence[Rect]) -> Graph:
    """Edge iff closed rectangles intersect.

    Only rectangles on the same or adjacent stab lines can meet.  Two on the
    same line always overlap vertically, so x decides alone: a sweep by left
    edge keeps the open rectangles in a heap of right edges, and a rectangle
    meets the open set when it starts (its earlier neighbours) and the ones
    started while it was open when it closes (its later neighbours), with no
    work per pair.  A sweep over each pair of adjacent lines tests the pairs
    it meets one by one.
    """
    x_lo = [r.x_lo for r in rects]
    x_hi = [r.x_hi for r in rects]
    y_lo = [r.y_lo for r in rects]
    line_of = [-((-y) // SCALE) for y in y_lo]
    by_line: dict[int, list[int]] = {}
    for i, line in enumerate(line_of):
        by_line.setdefault(line, []).append(i)
    adj = [0] * len(rects)
    for line, ids in by_line.items():
        # Same line L: both y_lo lie in ((L-1)*SCALE, L*SCALE].  ``started``
        # holds every rectangle started so far; a heap entry keeps the
        # value it had when its rectangle opened, so on closing
        # ``started ^ then`` is the rectangles started since.
        heap: list[tuple[int, int, int]] = []
        open_ = started = 0
        for i in sorted(ids, key=x_lo.__getitem__):
            x = x_lo[i]
            while heap and heap[0][0] < x:
                _, j, then = heappop(heap)
                adj[j] |= started ^ then
                open_ ^= 1 << j
            bit = 1 << i
            adj[i] |= open_
            open_ |= bit
            started |= bit
            heappush(heap, (x_hi[i], i, started))
        for _, j, then in heap:
            adj[j] |= started ^ then
        # Lines L and L+1: x must overlap and y_lo differ by at most SCALE.
        above = by_line.get(line + 1)
        if above is None:
            continue
        act: list[list[int]] = [[], []]  # active on line L, on line L+1
        for i in sorted(ids + above, key=x_lo.__getitem__):
            x, y, bit, mask = x_lo[i], y_lo[i], 1 << i, 0
            lo, hi = y - SCALE, y + SCALE
            side = line_of[i] - line
            keep = []
            for j in act[1 - side]:
                if x_hi[j] >= x:
                    keep.append(j)
                    if lo <= y_lo[j] <= hi:
                        adj[j] |= bit
                        mask |= 1 << j
            act[1 - side] = keep
            adj[i] |= mask
            act[side].append(i)
    return Graph.from_masks(adj)


def unit_distance_graph(points: Sequence[PointSite]) -> Graph:
    """Edge iff squared Euclidean distance <= SCALE^2, exactly.

    Points are bucketed by unit cell; each cell is compared with itself and
    with the four neighbouring cells after it, so every close pair is tested
    once and sets both neighbour-mask bits.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    cell: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        cell.setdefault((x // SCALE, y // SCALE), []).append(i)
    limit = SCALE * SCALE
    adj = [0] * len(xs)
    for (cx, cy), ids in cell.items():
        pool = ids + [j for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1))
                      for j in cell.get((cx + dx, cy + dy), ())]
        for k, i in enumerate(ids):
            x, y, bit, mask = xs[i], ys[i], 1 << i, 0
            for j in pool[k + 1:]:
                dx, dy = xs[j] - x, ys[j] - y
                if dx * dx + dy * dy <= limit:
                    adj[j] |= bit
                    mask |= 1 << j
            adj[i] |= mask
    return Graph.from_masks(adj)


def x_chordal_graph(rects: Sequence[Rect]) -> list[tuple[int, int]]:
    """The intervals of G2 for rectangles, their horizontal extents: two
    rectangles are adjacent in G2 iff their extents overlap."""
    return [(r.x_lo, r.x_hi) for r in rects]


def strip_cover_rects(rects: Sequence[Rect]) -> tuple[int, ...]:
    """The ordered strip cover (G1) of rectangles, by stab line, as part
    masks (bit i for rectangle i).

    Part i collects the rectangles whose lowest stabbing integer line is the
    i-th occupied line.  Each part is a clique of G1, where rectangles are
    adjacent iff their vertical extents overlap; G1 itself is never built.
    Intersecting rectangles land at most one part apart.
    """
    by_line: dict[int, int] = {}
    for i, r in enumerate(rects):
        line = -((-r.y_lo) // SCALE)  # r.stab_line
        by_line[line] = by_line.get(line, 0) | 1 << i
    return tuple(by_line[line] for line in sorted(by_line))


def vertical_strip_cover_points(points: Sequence[PointSite]) -> tuple[int, ...]:
    """The ordered strip cover (G1) of points, by vertical unit strip, as
    part masks (bit i for point i).

    Strip s holds the x with ``s*SCALE + 1/2 <= x < (s+1)*SCALE + 1/2``, that
    is ``(2x - 1) // (2*SCALE) == s``; parts are the nonempty strips, left to
    right.  Each is a clique of G1, where points are adjacent iff their strip
    indices differ by at most one; G1 itself is never built.  Points within
    one unit land at most one part apart.
    """
    by_strip: dict[int, int] = {}
    for i, p in enumerate(points):
        s = (2 * p.x - 1) // (2 * SCALE)
        by_strip[s] = by_strip.get(s, 0) | 1 << i
    return tuple(by_strip[s] for s in sorted(by_strip))


def y_chordal_graph_points(points: Sequence[PointSite]) -> list[tuple[int, int]]:
    """The intervals of G2 for points, y -/+ 1/2 unit: two points are
    adjacent in G2 iff |dy| <= 1 unit (a unit-interval graph)."""
    return [(p.y - SCALE // 2, p.y + SCALE - SCALE // 2) for p in points]


# ---------------------------------------------------------------------------
# clique covers and candidate solution sets


def greedy_cover_and_is_rects(rects: Sequence[Rect]):
    """Sweep clique cover of the intersection graph plus an independent witness.

    Per stab line, rectangles are cut into cliques at the first right edge of
    the running common x-intersection; the cutting rectangle of each clique is
    its witness.  Witnesses from the larger of the odd/even line classes are
    pairwise disjoint, so |witness| >= |cover| / 2 and |cover| <= 2*alpha(G).

    Returns (cover, witness) where cover is a tuple of part masks (bit i
    for rectangle i), each a clique of the intersection graph, and witness
    is a frozenset of rect indices.
    """
    x_lo = [r.x_lo for r in rects]
    x_hi = [r.x_hi for r in rects]
    by_line: dict[int, list[int]] = {}
    for i, r in enumerate(rects):
        by_line.setdefault(-((-r.y_lo) // SCALE), []).append(i)  # r.stab_line
    parts: list[int] = []
    witnesses: list[tuple[int, int]] = []  # (line, rect id)
    for line in sorted(by_line):
        # ids ascend within a line and the sort is stable: (x_hi, id) order
        cut = None
        for i in sorted(by_line[line], key=x_hi.__getitem__):
            if cut is None or x_lo[i] > cut:
                parts.append(1 << i)
                cut = x_hi[i]
                witnesses.append((line, i))
            else:
                parts[-1] |= 1 << i
    odd = frozenset(i for line, i in witnesses if line % 2)
    even = frozenset(i for line, i in witnesses if not line % 2)
    witness = odd if len(odd) > len(even) else even
    return tuple(parts), witness


def candidate_discs(points: Sequence[PointSite],
                    G: Graph) -> tuple[list[Disc], list[int]]:
    """Unit-diameter discs through each adjacent point pair, plus one disc
    centered at every point: the first of each distinct set of points
    covered, at most 2|E| + n of them.

    For an edge pq, with u = q - p, the two centers are the intersections
    of the radius-1/2 circles about p and q: (p + q)/2 +/- (-u_y, u_x)*sqrt(r)
    with r = (1 - |u|^2) / (4|u|^2); they coincide when the distance is
    exactly one, and r = 0.  Duplicate points add no pair discs: the disc
    centered on a point already covers its copies.

    The candidates are deduplicated and sorted on the integer key
    ``(px + qx, py + qy, bx, by)``, ``(2x, 2y, 0, 0)`` for a point's own
    disc.  This is :meth:`Disc.key` order: the first two entries are twice
    ax and ay, and r is 0 exactly when bx = by = 0 and is otherwise fixed
    by bx^2 + by^2.  Each key's integer cover constants come from the key
    itself (:func:`_key_ints`), so no ``Fraction`` is built, hashed or
    compared to decide what a candidate covers.  A disc centered on or
    passing through a point u lies within one unit of u, so it can cover
    only points of u's closed neighbourhood in G; each mask tests just that
    neighbourhood, for the generator of least degree.

    Returns, in key order, the first disc of each distinct mask and the
    masks (bit w for point w).  Only those discs are built, with the
    constants already derived handed over.  Discs with equal masks cover
    the same points, so a covering search never needs the later ones.
    """
    seen: dict[tuple[int, int, int, int], int] = {}  # key -> generator
    adj = G.adj_mask
    deg = [a.bit_count() for a in adj]

    def add(key: tuple[int, int, int, int], u: int):
        old = seen.get(key)
        if old is None or deg[u] < deg[old]:
            seen[key] = u

    for i, p in enumerate(points):
        add((2 * p.x, 2 * p.y, 0, 0), i)
    square = SCALE * SCALE
    for u, v in G.edges():
        p, q = points[u], points[v]
        ux = q.x - p.x
        uy = q.y - p.y
        d2 = ux * ux + uy * uy
        if d2 == 0:
            continue
        gen = u if deg[u] <= deg[v] else v
        sx, sy = p.x + q.x, p.y + q.y
        if d2 == square:
            add((sx, sy, 0, 0), gen)
        else:
            add((sx, sy, -uy, ux), gen)
            add((sx, sy, uy, -ux), gen)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    near: dict[int, list[int]] = {}  # generator -> its closed neighbourhood
    discs, masks, kept = [], [], set()
    # discs that follow each other in key order with the same midpoint, or
    # the same |u|^2, share those Fraction objects, as a pair's two do, and
    # every rational-centred disc shares one zero
    zero = Fraction(0)
    centre = norm = None
    for (sx, sy, bx, by), u in sorted(seen.items()):
        ints = _key_ints(sx, sy, bx, by)
        nbrs = near.get(u)
        if nbrs is None:
            nbrs = near[u] = _ids(adj[u] | 1 << u)
        mask = 0
        for w in nbrs:
            if _covers(ints, xs[w], ys[w]):
                mask |= 1 << w
        if mask in kept:
            continue
        kept.add(mask)
        if centre != (sx, sy):
            centre = sx, sy
            ax, ay = Fraction(sx, 2), Fraction(sy, 2)
        if norm != bx * bx + by * by:
            norm = bx * bx + by * by
            r = Fraction(square - norm, 4 * norm) if norm else zero
        b = (Fraction(bx), Fraction(by)) if norm else (zero, zero)
        discs.append(Disc(ax, ay, *b, r, ints))
        masks.append(mask)
    return discs, masks


def quarter_cell_partition(points: Sequence[PointSite]):
    """Nonempty quarter cells with their point-index groups as masks (bit i
    for point i), in key order.

    The quarter cell of (x, y) is ``((2x - 1) // SCALE, (2y - 1) // SCALE)``:
    half-unit cells on the half-tick grid.
    """
    groups: dict[tuple[int, int], int] = {}
    for i, p in enumerate(points):
        key = ((2 * p.x - 1) // SCALE, (2 * p.y - 1) // SCALE)
        groups[key] = groups.get(key, 0) | 1 << i
    return sorted(groups.items())


def candidate_pierce_points(
        rects: Sequence[Rect]) -> tuple[list[PointSite], list[int]]:
    """One corner-grid point (right edge x top edge) per distinct hit set.

    Any piercing point slides right to the nearest right edge among the
    rectangles it pierces and then up to the nearest top edge, so some
    minimum piercing set lives on this grid.

    Returns the first point of each distinct set of rectangles hit, x-major
    then by y, and the sets as masks (bit i for rectangle i):
    :func:`cliquesep.oracles.pierce_grid` deduplicated.  Each rectangle
    covers a run of the sorted top edges, and toggling its bit at both ends
    of its run gives the hit set along every run of a column.  A sweep over
    the right edges keeps those toggles from one column to the next: a
    rectangle is toggled in when the sweep reaches its left edge and out
    once it has passed its right edge.  The set is constant along a run, so
    only its lowest top edge can be a first point: the work grows with the
    spanning rectangles, not with the covered grid points.
    """
    ys = sorted({r.y_hi for r in rects})
    by_lo = sorted(range(len(rects)), key=lambda i: rects[i].x_lo)
    by_hi: dict[int, list[int]] = {}
    for i, r in enumerate(rects):
        by_hi.setdefault(r.x_hi, []).append(i)
    toggles: dict[int, int] = {}  # run end -> bits toggled there

    def toggle(i: int):
        r, bit = rects[i], 1 << i
        for k in (bisect_left(ys, r.y_lo), bisect_right(ys, r.y_hi)):
            t = toggles.get(k, 0) ^ bit
            if t:
                toggles[k] = t
            else:
                del toggles[k]

    first: dict[int, PointSite] = {}
    nxt = 0
    for x in sorted(by_hi):
        while nxt < len(by_lo) and rects[by_lo[nxt]].x_lo <= x:
            toggle(by_lo[nxt])
            nxt += 1
        mask = 0
        # each bit toggles twice, so only the last key, the one that may be
        # len(ys), leaves the mask empty
        for k in sorted(toggles):
            mask ^= toggles[k]
            if mask and mask not in first:
                first[mask] = PointSite(x, ys[k])
        for i in by_hi[x]:
            toggle(i)
    return list(first.values()), list(first)

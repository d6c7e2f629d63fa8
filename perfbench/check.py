"""The benchmark's own yardstick: certified bounds and feasibility scans.

Nothing here calls library code, so a library change cannot move a bound or
pass an infeasible answer.  Rectangles are (x_lo, x_hi, y_lo) with height
SCALE, points are (x, y), all in integer ticks; sets are closed.

Bounds, per instance:

* Rectangles.  On each stab line (the lowest integer line a rectangle
  crosses) every rectangle meets the line, so the line's x-intervals form an
  interval graph whose minimum clique partition equals its maximum disjoint
  set; a left-to-right sweep gives both.  The sum over lines is an upper bound
  on the independent set (one pick per clique) and on the minimum piercing
  (one point per clique, on the line).  Lines two apart cannot interact, so
  the larger of the even-line and odd-line sums is a set of pairwise-disjoint
  rectangles: a lower bound on both problems.
* Points.  Points pairwise more than one unit apart need a disc each (lower
  bound).  Each non-empty half-unit cell has diameter below one and so fits
  in one unit-diameter disc (upper bound).
"""
from __future__ import annotations

from fractions import Fraction

from suite import SCALE


def stab_line(y_lo: int) -> int:
    return -((-y_lo) // SCALE)


def rect_bounds(rects) -> tuple[int, int]:
    """(lower, upper): disjoint-rectangle count and per-line clique partition."""
    by_line: dict[int, list[tuple[int, int]]] = {}
    for x_lo, x_hi, y_lo in rects:
        by_line.setdefault(stab_line(y_lo), []).append((x_hi, x_lo))
    per_line = {}
    for line, spans in by_line.items():
        spans.sort()
        cliques, cut = 0, None
        for x_hi, x_lo in spans:
            if cut is None or x_lo > cut:
                cliques, cut = cliques + 1, x_hi
        per_line[line] = cliques
    upper = sum(per_line.values())
    even = sum(c for line, c in per_line.items() if line % 2 == 0)
    return max(even, upper - even), upper


def point_bounds(points) -> tuple[int, int]:
    """(lower, upper): greedy scatter set and non-empty half-unit cells."""
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    limit = SCALE * SCALE
    scatter = 0
    for x, y in sorted(points):
        cx, cy = x // SCALE, y // SCALE
        near = (q for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for q in cells.get((cx + dx, cy + dy), ()))
        if all((x - qx) ** 2 + (y - qy) ** 2 > limit for qx, qy in near):
            cells.setdefault((cx, cy), []).append((x, y))
            scatter += 1
    half = SCALE // 2
    quarters = {(x // half, y // half) for x, y in points}
    return scatter, len(quarters)


def edge_count(kind: str, items) -> int:
    """|E(G)| of the intersection or unit-distance graph, by grid buckets."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, it in enumerate(items):
        key = (it[0] // SCALE, it[-1] // SCALE)
        buckets.setdefault(key, []).append(i)
    # a rectangle meets others whose x_lo lies within its width to the left
    reach = 1 + max((it[1] - it[0]) // SCALE for it in items) if kind == "rects" else 1
    edges = 0
    for i, it in enumerate(items):
        bx, by = it[0] // SCALE, it[-1] // SCALE
        for dx in range(-reach, reach + 1):
            for dy in (-1, 0, 1):
                for j in buckets.get((bx + dx, by + dy), ()):
                    if j > i and _adjacent(kind, it, items[j]):
                        edges += 1
    return edges


def _adjacent(kind, a, b) -> bool:
    if kind == "rects":
        return a[0] <= b[1] and b[0] <= a[1] and abs(a[2] - b[2]) <= SCALE
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= SCALE * SCALE


def independent(rects, chosen) -> bool:
    """Chosen ids are distinct, in range, and pairwise disjoint."""
    ids = list(chosen)
    if len(set(ids)) != len(ids) or any(not 0 <= i < len(rects) for i in ids):
        return False
    picked = sorted(rects[i] for i in ids)
    active: list[tuple[int, int, int]] = []
    for r in picked:
        active = [a for a in active if a[1] >= r[0]]
        if any(abs(a[2] - r[2]) <= SCALE for a in active):
            return False
        active.append(r)
    return True


def pierces(rects, points) -> bool:
    """Every rectangle contains one of the (x, y) points."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    for x, y in points:
        by_row.setdefault(y // SCALE, []).append((x, y))
    for x_lo, x_hi, y_lo in rects:
        row = y_lo // SCALE
        if not any(x_lo <= x <= x_hi and y_lo <= y <= y_lo + SCALE
                   for r in (row, row + 1, row + 2)
                   for x, y in by_row.get(r, ())):
            return False
    return True


def disc_covers(center, point) -> bool:
    """Exact |point - center|^2 <= (SCALE/2)^2 for a center ax + bx*sqrt(r),
    ay + by*sqrt(r) with rational parts; the square is A + B*sqrt(r)."""
    ax, ay, bx, by, r = center
    dx, dy = point[0] - ax, point[1] - ay
    a = dx * dx + dy * dy + (bx * bx + by * by) * r
    b = -2 * (dx * bx + dy * by)
    slack = Fraction(SCALE * SCALE, 4) - a   # need b*sqrt(r) <= slack
    if b == 0 or r == 0:
        return slack >= 0
    if b > 0:
        return slack >= 0 and b * b * r <= slack * slack
    return slack >= 0 or b * b * r >= slack * slack


def covers_all(points, centers) -> bool:
    """Every point lies in one of the unit-diameter discs."""
    buckets: dict[tuple[int, int], list] = {}
    for c in centers:
        root = float(c[4]) ** 0.5
        fx, fy = float(c[0]) + float(c[2]) * root, float(c[1]) + float(c[3]) * root
        buckets.setdefault((int(fx // SCALE), int(fy // SCALE)), []).append(c)
    for p in points:
        px, py = p[0] // SCALE, p[1] // SCALE
        if not any(disc_covers(c, p) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                   for c in buckets.get((px + dx, py + dy), ())):
            return False
    return True

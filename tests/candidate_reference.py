"""Brute-force references for the candidate builders, shared by the tests.

The disc references work in ``Fraction`` surd arithmetic over every pair of
input points, independently of the integer keys and constants that
:func:`cliquesep.geometry.candidate_discs` uses.
"""
from fractions import Fraction

from cliquesep.geometry import SCALE, Disc, PointSite, sq_dist


def surd_covers(d: Disc, p: PointSite) -> bool:
    """Reference coverage test in Fraction surd arithmetic."""
    dxa = Fraction(p.x) - d.ax
    dya = Fraction(p.y) - d.ay
    dxb = -d.bx
    dyb = -d.by
    rat = dxa * dxa + dya * dya + (dxb * dxb + dyb * dyb) * d.r
    irr = 2 * (dxa * dxb + dya * dyb)
    # decide rat + irr*sqrt(r) <= SCALE^2/4
    bound = Fraction(SCALE * SCALE, 4)
    gap = bound - rat
    if irr == 0 or d.r == 0:
        return gap >= 0
    if irr > 0:
        return gap >= 0 and irr * irr * d.r <= gap * gap
    return gap >= 0 or irr * irr * d.r >= gap * gap


def brute_discs(points):
    """Candidate discs by key, each with the points generating it: one
    centered at every point, and the one or two through every pair at
    distance in (0, 1], from all pairs rather than the graph's edges."""
    out: dict[tuple, tuple[Disc, set]] = {}

    def add(d, gens):
        out.setdefault(d.key(), (d, set()))[1].update(gens)

    for i, p in enumerate(points):
        add(Disc.rational(p.x, p.y), {i})
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            q = points[j]
            d2 = sq_dist(p, q)
            if not 0 < d2 <= SCALE * SCALE:
                continue
            mx, my = Fraction(p.x + q.x, 2), Fraction(p.y + q.y, 2)
            k = Fraction(SCALE * SCALE - d2, 4 * d2)
            for sign in (1, -1):
                bx = Fraction(sign * (p.y - q.y)) if k else Fraction(0)
                by = Fraction(sign * (q.x - p.x)) if k else Fraction(0)
                add(Disc(mx, my, bx, by, k), {i, j})
    return out


def all_discs(points) -> tuple[list[Disc], list[int]]:
    """Every candidate disc in key order, equal masks and all, with the
    mask of the points it covers by :func:`surd_covers`."""
    discs = [d for _, (d, _) in sorted(brute_discs(points).items())]
    return discs, [sum(1 << i for i, p in enumerate(points) if surd_covers(d, p))
                   for d in discs]


def first_of_each_mask(cands, masks) -> dict:
    """Mask -> the first candidate with that mask, in candidate order."""
    first = {}
    for c, mask in zip(cands, masks):
        first.setdefault(mask, c)
    return first

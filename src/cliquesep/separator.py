"""Two-route balanced separator engine.

Given a graph G, an ordered clique cover with small edge-gap length (the
strip cover, which is all the engine knows of the supergraph G1: G1 is never
built), the intervals of a chordal supergraph G2 (an interval graph, which is
never built either), and a restriction measure, produce a vertex separator
whose removal leaves two sides of measure at most 2/3 of the whole, together
with a cover of the separator by certified units.  The chordal route removes
a maximal clique of G2, found by sweeping its intervals; the length route
removes a window of consecutive cover parts.  The cheaper valid candidate
wins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import chordal
from .geometry import SCALE
from .graphs import Graph, OrderedCliqueCover, RestrictionMeasure, cover_length

G_CLIQUE = "G-CLIQUE"
UNIT_BOX = "UNIT-BOX"
MEASURE_PART = "MEASURE-PART"

CHORDAL = "CHORDAL"
LENGTH_WINDOW = "LENGTH-WINDOW"


@dataclass(frozen=True)
class CoverUnit:
    members: frozenset[int]
    certificate: str


@dataclass(frozen=True)
class SeparatorResult:
    s: frozenset[int]
    units: tuple[CoverUnit, ...]
    side_a: frozenset[int]
    side_b: frozenset[int]
    route: str
    cost: int


class NoSeparatorFound(RuntimeError):
    """Neither route produced a balanced candidate; carries a diagnostic dump."""

    def __init__(self, diagnostic: dict):
        super().__init__("no balanced separator found")
        self.diagnostic = diagnostic


Certifier = Callable[[frozenset, int], CoverUnit]


def clique_certifier(members: frozenset, part_index: int) -> CoverUnit:
    return CoverUnit(members, G_CLIQUE)


def unit_box_certifier(members: frozenset, part_index: int) -> CoverUnit:
    return CoverUnit(members, UNIT_BOX)


def chordal_route(G: Graph, intervals: Sequence[tuple[int, int]],
                  g1_cover: OrderedCliqueCover, mu: RestrictionMeasure,
                  certifier: Certifier = clique_certifier) -> Optional[SeparatorResult]:
    """Balanced maximal-clique separator of G2, given by one interval per
    vertex, covered by one unit per g1-cover part the clique touches."""
    found = chordal.balanced_clique_separator(intervals, G, mu)
    if found is None:
        return None
    idx = g1_cover.index_of
    groups: dict[int, set[int]] = {}
    for v in found.clique:
        groups.setdefault(idx[v], set()).add(v)
    units = tuple(certifier(frozenset(groups[i]), i) for i in sorted(groups))
    return SeparatorResult(found.clique, units, found.side_a, found.side_b,
                           CHORDAL, len(units))


def length_window_route(G: Graph, g1_cover: OrderedCliqueCover,
                        mu: RestrictionMeasure) -> Optional[SeparatorResult]:
    """Remove a window of consecutive g1-cover parts.

    Edges of G span at most l part indices, so the parts before and after a
    window of l parts cannot interact.  Among balanced windows the one of
    minimum measure wins; if no window of width l balances, the width grows
    until the (always balanced) full-range window is reached.
    """
    parts = g1_cover.parts
    k = len(parts)
    if k == 0:
        return None
    length = cover_length(G, g1_cover).value
    all_vs = frozenset().union(*parts)
    total = mu.of(all_vs)
    prefix = []
    acc: set[int] = set()
    for p in parts:
        acc |= p
        prefix.append(frozenset(acc))

    def side_sets(i, j):
        """Vertices in parts < i and parts > j."""
        a = prefix[i - 1] if i > 0 else frozenset()
        b = all_vs - prefix[j]
        return a, b

    def side_measures(a, b):
        wa, wb = mu.of(a), mu.of(b)
        if 3 * wa <= 2 * total and 3 * wb <= 2 * total:
            return max(wa, wb)
        return None

    widths = []
    if length == 0:
        widths.append(0)
    widths.extend(range(max(length, 1), k + 1))
    for w in widths:
        # ties among equal-cost windows go to the better-balanced, then
        # leftmost one
        best = None
        if w == 0:
            # an edgeless gap between consecutive parts: empty separator
            for i in range(1, k):
                a, b = side_sets(i, i - 1)
                larger = side_measures(a, b)
                if larger is None:
                    continue
                key = (0, larger, i)
                if best is None or key < best[0]:
                    best = (key, frozenset(), a, b)
        else:
            for i in range(0, k - w + 1):
                s = frozenset().union(*parts[i:i + w])
                a, b = side_sets(i, i + w - 1)
                larger = side_measures(a, b)
                if larger is None:
                    continue
                key = (mu.of(s), larger, i)
                if best is None or key < best[0]:
                    best = (key, s, a, b)
        if best is None:
            continue
        (cost, _larger, _i), s, a, b = best
        units = _measure_part_units(mu, s)
        return SeparatorResult(s, units, a, b, LENGTH_WINDOW, cost)
    return None


def _measure_part_units(mu: RestrictionMeasure, s: frozenset) -> tuple[CoverUnit, ...]:
    groups: dict[int, set[int]] = {}
    part_of = mu.part_of
    for v in s:
        groups.setdefault(part_of[v], set()).add(v)
    return tuple(CoverUnit(frozenset(groups[i]), MEASURE_PART)
                 for i in sorted(groups))


def separate(G: Graph, g1_cover: OrderedCliqueCover,
             intervals: Optional[Sequence[tuple[int, int]]],
             mu: RestrictionMeasure,
             certifier: Certifier = clique_certifier) -> SeparatorResult:
    """Best of both routes by unit count; CHORDAL wins ties.

    ``intervals`` (the interval model of G2, one per vertex) may be None to
    skip the chordal route (the length route alone always succeeds for a
    nonempty cover, falling back to the full-range window).
    """
    candidates = []
    if intervals is not None:
        cand = chordal_route(G, intervals, g1_cover, mu, certifier)
        if cand is not None:
            candidates.append(cand)
    cand = length_window_route(G, g1_cover, mu)
    if cand is not None:
        candidates.append(cand)
    if not candidates:
        raise NoSeparatorFound(_diagnostic(G, g1_cover, mu))
    best = min(candidates, key=lambda r: (r.cost, 0 if r.route == CHORDAL else 1))
    return best


def _diagnostic(G, g1_cover, mu):
    return {
        "n": G.n,
        "edges": sorted(G.edges()),
        "g1_parts": [sorted(p) for p in g1_cover.parts],
        "measure_parts": [sorted(p) for p in mu.cover.parts],
    }


def check_separator(G: Graph, mu: RestrictionMeasure, res: SeparatorResult,
                    F: Optional[frozenset] = None,
                    points: Optional[Sequence] = None) -> list[str]:
    """Contract violations of a SeparatorResult for the subproblem on F (all
    of G by default), empty when valid.

    Checks the three-way partition of F, the edge cut, the 2/3 balance, that
    the units exactly cover the separator and that each unit's certificate
    holds: G-CLIQUE units are cliques of G, MEASURE-PART units lie in one
    part of ``mu``, and UNIT-BOX units fit a unit box of ``points`` (items
    with ``x``/``y``, indexed like G).
    """
    problems = []
    if F is None:
        F = frozenset(range(G.n))
    if res.s | res.side_a | res.side_b != F:
        problems.append("s, side_a, side_b do not partition F")
    if (res.s & res.side_a) or (res.s & res.side_b) or (res.side_a & res.side_b):
        problems.append("s, side_a, side_b overlap")
    crossing = next(((u, v) for u in sorted(res.side_a)
                     for v in sorted(G.adj[u] & res.side_b)), None)
    if crossing is not None:
        problems.append(f"edge {crossing} crosses the sides")
    total = mu.of(F)
    for name, side in (("side_a", res.side_a), ("side_b", res.side_b)):
        if 3 * mu.of(side) > 2 * total:
            problems.append(f"{name} exceeds 2/3 of the measure")
    covered: set[int] = set()
    for unit in res.units:
        if covered & unit.members:
            problems.append("units overlap")
        covered |= unit.members
        mem = sorted(unit.members)
        if unit.certificate == G_CLIQUE:
            for a in range(len(mem)):
                for b in range(a + 1, len(mem)):
                    if not G.has_edge(mem[a], mem[b]):
                        problems.append(f"G-CLIQUE unit not a clique: {mem}")
        elif unit.certificate == MEASURE_PART:
            if len({mu.part_of[v] for v in mem}) > 1:
                problems.append("MEASURE-PART unit spans two measure parts")
        elif unit.certificate == UNIT_BOX:
            if points is None:
                problems.append("UNIT-BOX unit but no coordinates to check it")
            elif mem:
                xs = [points[v].x for v in mem]
                ys = [points[v].y for v in mem]
                if max(xs) - min(xs) > SCALE or max(ys) - min(ys) > SCALE:
                    problems.append(f"UNIT-BOX unit exceeds a 1x1 box: {mem}")
        else:
            problems.append(f"unknown certificate {unit.certificate!r}")
    if covered != res.s:
        problems.append("units do not exactly cover s")
    if res.cost != len(res.units):
        problems.append("cost does not match the unit count")
    return problems

"""Measure-balanced maximal-clique separators of interval graphs.

The separator engine's chordal supergraph G2 is an interval graph, and
:func:`balanced_clique_separator` works on its intervals alone: one sweep of
the endpoints lists the maximal cliques left to right (a clique path), and
the components left after removing one are runs of intervals on either side
of it.  G2 is never built.  The tests check the sweep against
:func:`cliquesep.oracles.maximal_cliques_chordal` on G2 built by
:func:`cliquesep.oracles.interval_graph`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, RestrictionMeasure


@dataclass(frozen=True)
class CliqueSeparator:
    clique: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]
    larger_measure: int


def _pack_components(comps: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """Greedy largest-first packing of components into two sides.

    ``comps`` holds one (measure weight, smallest id, size) per component.
    The weights are additive because every measure part (a clique of G,
    hence of the interval graph) meets at most one component.  Returns the
    larger side's weight and each component's side, 0 or 1.
    """
    order = sorted(range(len(comps)), key=lambda i: (-comps[i][0], comps[i][1]))
    side = [0] * len(comps)
    w = [0, 0]
    size = [0, 0]
    for i in order:
        # lighter bin first, ties by vertex count, then bin 0
        t = 1 if (w[1], size[1]) < (w[0], size[0]) else 0
        side[i] = t
        w[t] += comps[i][0]
        size[t] += comps[i][2]
    return max(w), side


def _prefix_components(intervals: Sequence[tuple[int, int]], part_of) -> list:
    """The components of every prefix of the intervals in right-end order.

    ``tops[k]`` is the stack of components of the first k intervals, as
    linked nodes (reach, measure weight, smallest id, size, node below) with
    reach the largest right end.  Nodes are never changed, so every prefix
    keeps its stack.  An interval whose right end is the largest so far
    overlaps a component iff its left end is at most the component's reach,
    and the components it overlaps are the top ones.
    """
    order = sorted(range(len(intervals)), key=lambda i: (intervals[i][1], i))
    seen: set[int] = set()
    top = None
    tops = [top]
    for i in order:
        lo, hi = intervals[i]
        weight = int(part_of[i] not in seen)
        seen.add(part_of[i])
        first, size = i, 1
        while top is not None and top[0] >= lo:
            _, w, f, s, top = top
            weight += w
            first = min(first, f)
            size += s
        top = (hi, weight, first, size, top)
        tops.append(top)
    return tops


def _components(intervals: Sequence[tuple[int, int]], ids) -> list[list[int]]:
    """Components of the interval graph on ``ids``: runs in left-end order."""
    comps: list[list[int]] = []
    reach = None
    for i in sorted(ids, key=lambda i: intervals[i]):
        lo, hi = intervals[i]
        if comps and lo <= reach:
            comps[-1].append(i)
            reach = max(reach, hi)
        else:
            comps.append([i])
            reach = hi
    return comps


def _clique_path(intervals: Sequence[tuple[int, int]]):
    """The maximal cliques of the interval graph, left to right.

    One sort of the endpoints, starts before ends at equal coordinates: the
    intervals open when a right end follows a run of left ends form a
    maximal clique.  Yields (clique, ends, starts) with the number of
    intervals that end before the clique and the number that start at or
    before it.  The clique is the sweep's live set: copy it to keep it.
    """
    events = sorted([(lo, 0, i) for i, (lo, _) in enumerate(intervals)]
                    + [(hi, 1, i) for i, (_, hi) in enumerate(intervals)])
    active: set[int] = set()
    starts = ends = 0
    after_start = False
    for _, is_end, i in events:
        if not is_end:
            active.add(i)
            starts += 1
            after_start = True
            continue
        if after_start:
            after_start = False
            yield active, ends, starts
        active.discard(i)
        ends += 1


def balanced_clique_separator(intervals: Sequence[tuple[int, int]], G: Graph,
                              mu: RestrictionMeasure) -> Optional[CliqueSeparator]:
    """Best 2/3-measure-balanced maximal clique of an interval graph, or None.

    ``intervals[v]`` is the closed interval (lo, hi) of vertex v of G; every
    edge of G must join overlapping intervals, and every measure part must
    be a clique of the interval graph.  Every maximal clique is evaluated:
    remove it, pack the components of the remainder into two sides
    largest-first, and keep the clique whose larger side is smallest, ties
    to the smaller clique, then the smaller sorted member list.  A clique
    qualifies only when both sides have measure at most 2/3 of the whole
    (exact rational comparison 3*mu(side) <= 2*mu(V)).

    The cliques come from :func:`_clique_path`.  What is left of the clique
    at x are the intervals ending before x, a prefix in right-end order, and
    those starting after x, a suffix in left-end order; one stack pass each
    way gives the components of every prefix and suffix.
    """
    n = len(intervals)
    if n != G.n:
        raise ValueError("need one interval per vertex of G")
    for u, v in G.edges():
        if max(intervals[u][0], intervals[v][0]) > min(intervals[u][1], intervals[v][1]):
            raise ValueError(f"G edge ({u},{v}) joins disjoint intervals")
    for part in mu.cover.parts:
        if part and max(intervals[v][0] for v in part) > min(intervals[v][1] for v in part):
            raise ValueError(f"measure part {sorted(part)} is not an interval clique")
    if n == 0:
        return None
    part_of = mu.part_of
    total = mu.of(range(n))
    before = _prefix_components(intervals, part_of)
    after = _prefix_components([(-hi, -lo) for lo, hi in intervals], part_of)

    best = None  # (larger, |K|, K)
    for clique, ends, starts in _clique_path(intervals):
        comps = []
        for top in (before[ends], after[n - starts]):
            while top is not None:
                comps.append(top[1:4])
                top = top[4]
        larger, _ = _pack_components(comps)
        if 3 * larger <= 2 * total:
            key = (larger, len(clique))
            if best is None or key < best[:2] or \
                    (key == best[:2] and sorted(clique) < sorted(best[2])):
                best = (larger, len(clique), frozenset(clique))
    if best is None:
        return None

    larger, _, clique = best
    comps = _components(intervals, (v for v in range(n) if v not in clique))
    _, side = _pack_components([(len({part_of[v] for v in c}), min(c), len(c))
                                for c in comps])
    a = frozenset(v for c, t in zip(comps, side) if t == 0 for v in c)
    b = frozenset(v for c, t in zip(comps, side) if t == 1 for v in c)
    return CliqueSeparator(clique, a, b, larger)

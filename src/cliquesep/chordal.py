"""Measure-balanced maximal-clique separators of interval graphs.

The separator engine's chordal supergraph G2 is an interval graph, and
:func:`clique_cut` works on its intervals alone: one sweep of the endpoints
of a subproblem's members lists the maximal cliques left to right (a clique
path), and the components left after removing one are runs of intervals on
either side of it: one stack of components per side, built once per call,
gives them for every clique and the sides of the winner.  G2 is never
built.  The subproblem is a vertex mask F over a
:class:`~cliquesep.graphs.Frame`, in global ids; every order and tie-break
of the sweep is by coordinate and then by id, so it picks the same clique
as a sweep of G[F] relabelled to 0..|F|-1 would.  The same sweep
checks its input: a G-edge or a measure part inside F whose intervals share
no point raises ``ValueError``.  The tests check the sweep against
:func:`cliquesep.oracles.maximal_cliques_chordal` on G2 built by
:func:`cliquesep.oracles.interval_graph`.
"""
from __future__ import annotations

from typing import Optional

from .graphs import Frame, _ids, _mask


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


def _prefix_components(spans, part_of) -> tuple[list[int], list]:
    """The components of every prefix of ``spans`` in right-end order.

    ``spans`` holds one (right end, id, left end) per interval.  Returns
    the ids in that order and ``tops``: ``tops[k]`` is the stack of
    components of the first k intervals, as linked nodes (reach, measure
    weight, smallest id, size, node below, start) with reach the largest
    right end; a component's members are ``order[start:start + size]``.
    Nodes are never changed, so every prefix keeps its stack.  An interval
    whose right end is the largest so far overlaps a component iff its left
    end is at most the component's reach, and the components it overlaps
    are the top ones, which hold the latest runs of the order.
    """
    seen: set[int] = set()
    top = None
    tops = [top]
    order = []
    for k, (hi, i, lo) in enumerate(sorted(spans)):
        order.append(i)
        weight = int(part_of[i] not in seen)
        seen.add(part_of[i])
        first, size, start = i, 1, k
        while top is not None and top[0] >= lo:
            _, w, f, s, top, start = top
            weight += w
            first = min(first, f)
            size += s
        top = (hi, weight, first, size, top, start)
        tops.append(top)
    return order, tops


def _clique_path(frame: Frame, ids: list[int]):
    """The maximal cliques of the interval graph on ``ids``, left to right.

    One sort of the endpoints, starts before ends at equal coordinates: the
    intervals open when a right end follows a run of left ends form a
    maximal clique.  Yields (clique mask, ends, starts) with the number of
    intervals that end before the clique and the number that start at or
    before it; the clique has starts - ends members.

    Each interval is checked as it starts against the mask of those already
    ended, which lie wholly to its left: a G-neighbour or a member of its
    measure part among them raises ``ValueError``.  Every pair of disjoint
    intervals meets this test once, when the later one starts.
    """
    intervals, adj = frame.intervals, frame.adj_mask
    part_of, part_mask = frame.part_of, frame.part_mask
    events = sorted([(intervals[i][0], 0, i) for i in ids]
                    + [(intervals[i][1], 1, i) for i in ids])
    active = ended = 0
    starts = ends = 0
    after_start = False
    for _, is_end, i in events:
        if not is_end:
            if adj[i] & ended:
                u = _ids(adj[i] & ended)[0]
                raise ValueError(f"G edge ({u},{i}) joins disjoint intervals")
            if part_mask[part_of[i]] & ended:
                raise ValueError(f"measure part {part_of[i]} is not an "
                                 "interval clique")
            active |= 1 << i
            starts += 1
            after_start = True
            continue
        if after_start:
            after_start = False
            yield active, ends, starts
        active ^= 1 << i
        ended |= 1 << i
        ends += 1


def clique_cut(frame: Frame, F: int) -> Optional[tuple[int, int, int]]:
    """Best 2/3-measure-balanced maximal clique of the interval graph on the
    mask F, or None when F is empty or no clique balances.

    Returns (clique, side_a, side_b) as masks.  Every edge of G inside F
    must join overlapping intervals, and every measure part must be an
    interval clique inside F; :func:`_clique_path` checks both.  Every
    maximal clique is evaluated: remove it, pack the components of the
    remainder into two sides largest-first, and keep the clique whose
    larger side is smallest, ties to the smaller clique, then the smaller
    sorted member list.  A clique qualifies only when both sides
    have measure at most 2/3 of F's (exact rational comparison
    3*mu(side) <= 2*mu(F)).  A clique is not packed when a lower bound on
    its larger side (the heaviest component, or half the remaining weight
    rounded up) already rules it out; an equal bound is packed, so ties
    break as before.

    What is left of the clique at x are the intervals ending before x, a
    prefix in right-end order, and those starting after x, a suffix in
    left-end order; one stack pass each way gives the components of every
    prefix and suffix, and the winner's sides are the components it packed.
    """
    ids = _ids(F)
    if not ids:
        return None
    intervals, part_of = frame.intervals, frame.part_of
    n = len(ids)
    total = frame.mu_of(F)
    by_end, before = _prefix_components(
        [(intervals[i][1], i, intervals[i][0]) for i in ids], part_of)
    by_start, after = _prefix_components(
        [(-intervals[i][0], i, -intervals[i][1]) for i in ids], part_of)

    best = None  # (larger, |K|, K, ends, starts, side of each component)
    for clique, ends, starts in _clique_path(frame, ids):
        comps = []
        heaviest = rest = 0
        for top in (before[ends], after[n - starts]):
            while top is not None:
                comps.append(top[1:4])
                heaviest = max(heaviest, top[1])
                rest += top[1]
                top = top[4]
        # the larger side holds the heaviest component and half the rest
        low = max(heaviest, (rest + 1) // 2)
        if 3 * low > 2 * total or (best is not None and low > best[0]):
            continue
        larger, side = _pack_components(comps)
        if 3 * larger <= 2 * total:
            key = (larger, starts - ends)
            # of two equal-size cliques, the one holding the lowest id that
            # is not in both has the smaller sorted member list
            if best is None or key < best[:2] or (
                    key == best[:2] and clique & (d := clique ^ best[2]) & -d):
                best = (larger, starts - ends, clique, ends, starts, side)
    if best is None:
        return None

    _, _, clique, ends, starts, side = best
    sides = [0, 0]
    t = iter(side)  # the components in the order they were packed
    for order, top in ((by_end, before[ends]), (by_start, after[n - starts])):
        while top is not None:
            sides[next(t)] |= _mask(order[top[5]:top[5] + top[3]])
            top = top[4]
    return clique, sides[0], sides[1]


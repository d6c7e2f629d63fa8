"""Measure-balanced maximal-clique separators of interval graphs.

The separator engine's chordal supergraph G2 is an interval graph, and
:func:`clique_cut` works on its intervals alone: one sweep of the endpoints
of a subproblem's members lists the maximal cliques left to right (a clique
path).  What a clique leaves are the intervals that ended before it and
those that start after it, which share no point and so no edge; these are
its two sides, with no components to find or pack.  G2 is never built.  The
subproblem is a vertex mask F over a :class:`~cliquesep.graphs.Frame`, in
global ids; every order and tie-break of the sweep is by coordinate and then
by id, so it picks the same clique as a sweep of G[F] relabelled to
0..|F|-1 would.  The same sweep checks its input: a G-edge or a measure part
inside F whose intervals share no point raises ``ValueError``.  The tests
check the sweep against :func:`cliquesep.oracles.maximal_cliques_chordal` on
G2 built by :func:`cliquesep.oracles.interval_graph`.
"""
from __future__ import annotations

from typing import Optional

from .graphs import Frame, _ids, _mask, _running_counts


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
    """The maximal clique of the interval graph on the mask F whose larger
    side has the least measure, or None when F is empty.

    Returns (clique, side_a, side_b) as masks.  Every edge of G inside F
    must join overlapping intervals, and every measure part must be an
    interval clique inside F; :func:`_clique_path` checks both.  A clique's
    side_a is the intervals that ended before it, a prefix in right-end
    order, and its side_b those that start after it, a suffix in left-end
    order; their measures are running counts of the distinct parts met from
    either end.  The clique whose larger side is smallest wins, ties to the
    smaller clique, then the smaller sorted member list.

    The winner's sides both have measure at most half of F's.  A measure
    part is an interval clique, so it lies inside one maximal clique K_j:
    its members are open at K_j, so none ended before a clique up to K_j
    and none starts after a clique from K_j on.  So no part meets both the
    prefix before clique i + 1 and the suffix after clique i, and those two
    measures add up to at most mu(F).  Take the first clique i whose
    successor's prefix has measure above mu(F)/2 (or the last clique, whose
    suffix is empty, if none has): its own prefix is at most mu(F)/2, and
    its suffix at most mu(F) less the successor's prefix, below mu(F)/2.
    """
    ids = _ids(F)
    if not ids:
        return None
    intervals, part_of = frame.intervals, frame.part_of
    n = len(ids)
    by_end = sorted(ids, key=lambda i: (intervals[i][1], i))
    by_start = sorted(ids, key=lambda i: (intervals[i][0], i))
    before = _running_counts((part_of[i],) for i in by_end)
    after = _running_counts((part_of[i],) for i in reversed(by_start))

    best = None  # (larger, |K|, K, ends, starts)
    for clique, ends, starts in _clique_path(frame, ids):
        key = (max(before[ends], after[n - starts]), starts - ends)
        # of two equal-size cliques, the one holding the lowest id that
        # is not in both has the smaller sorted member list
        if best is None or key < best[:2] or (
                key == best[:2] and clique & (d := clique ^ best[2]) & -d):
            best = (*key, clique, ends, starts)
    _, _, clique, ends, starts = best
    return clique, _mask(by_end[:ends]), _mask(by_start[starts:])

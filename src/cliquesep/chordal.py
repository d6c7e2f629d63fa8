"""Measure-balanced maximal-clique separators of interval graphs.

The separator engine's chordal supergraph G2 is an interval graph, and
:func:`clique_cut` works on its intervals alone: one sweep of the endpoints
of a subproblem's members lists the maximal cliques left to right (a clique
path) and picks one as it goes.  What a clique leaves are the intervals
that ended before it and those that start after it, which share no point
and so no edge; these are its two sides, with no components to find or
pack.  G2 is never built.  The subproblem is a vertex mask F over a
:class:`~cliquesep.graphs.Frame`, in global ids.  The sweep reads F's
endpoints as their positions in the frame's sweep table
(:meth:`~cliquesep.graphs.Frame.sweep`), the order of all endpoints by
coordinate and then by id, so it picks the same clique as a sweep of G[F]
relabelled to 0..|F|-1 would.  The same sweep checks its input: a G-edge or
a measure part inside F whose intervals share no point raises
``ValueError``.  The tests check the sweep against
:func:`cliquesep.oracles.maximal_cliques_chordal` on G2 built by
:func:`cliquesep.oracles.interval_graph`.
"""
from __future__ import annotations

from typing import Optional

from .graphs import Frame, _ids


def clique_cut(frame: Frame, F: int) -> Optional[tuple[int, int, int]]:
    """The maximal clique of the interval graph on the mask F whose larger
    side has the least measure, or None when F is empty.

    Returns (clique, side_a, side_b) as masks.  One pass over F's endpoints
    in sweep order, left ends before right ends at equal coordinates: the
    intervals open when a right end follows a run of left ends form a
    maximal clique.  A clique's side_a is the intervals that ended before
    it, the mask of ended intervals at that point, and its side_b those
    that start after it, the rest of F.  Side a's measure is counted as the
    right ends pass, and side b's is read off running counts of the
    distinct parts met from the last left end back.  The clique whose
    larger side is smallest wins, ties to the smaller clique, then the
    smaller sorted member list.

    Every edge of G inside F must join overlapping intervals, and every
    measure part must be an interval clique inside F.  Each interval is
    checked as it starts against the mask of those already ended, which lie
    wholly to its left: a G-neighbour or a member of its measure part among
    them raises ``ValueError``.  Every pair of disjoint intervals meets this
    test once, when the later one starts.

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
    pos_lo, pos_hi, item = frame.sweep()
    adj, part_of, part_mask = frame.adj_mask, frame.part_of, frame.part_mask
    by_start = sorted(ids, key=pos_lo.__getitem__)
    # after[t]: the parts met by the last t intervals to start, counted
    # here, as _running_counts would need a 1-tuple per interval
    seen: set = set()
    after = [0]
    for i in reversed(by_start):
        seen.add(part_of[i])
        after.append(len(seen))
    n = len(ids)
    ended_parts: set = set()  # the parts met by the intervals ended so far
    active = ended = starts = ends = 0
    opened = False
    best = best_ended = best_size = 0
    best_larger = n + 1  # more than any measure inside F
    for p in sorted([pos_lo[i] for i in by_start] + [pos_hi[i] for i in ids]):
        i = item[p]
        if i >= 0:
            if adj[i] & ended:
                u = _ids(adj[i] & ended)[0]
                raise ValueError(f"G edge ({u},{i}) joins disjoint intervals")
            if part_mask[part_of[i]] & ended:
                raise ValueError(f"measure part {part_of[i]} is not an "
                                 "interval clique")
            active |= 1 << i
            starts += 1
            opened = True
            continue
        i = ~i
        if opened:  # a right end after a run of left ends: a maximal clique
            opened = False
            larger = len(ended_parts)
            if larger < after[n - starts]:
                larger = after[n - starts]
            size = starts - ends
            # of two equal-size cliques, the one holding the lowest id that
            # is not in both has the smaller sorted member list
            if larger < best_larger or larger == best_larger and (
                    size < best_size or size == best_size
                    and active & (d := active ^ best) & -d):
                best, best_ended = active, ended
                best_larger, best_size = larger, size
        active ^= 1 << i
        ended |= 1 << i
        ends += 1
        ended_parts.add(part_of[i])
    return best, best_ended, F & ~(best | best_ended)

"""Two-route balanced separator engine.

Given a graph G, an ordered clique cover with small edge-gap length (the
strip cover, which is all the engine knows of the supergraph G1: G1 is never
built), the intervals of a chordal supergraph G2 (an interval graph, which is
never built either), and a restriction measure, produce a vertex separator
whose removal leaves two sides of measure at most 2/3 of the whole, together
with a cover of the separator by units.  The chordal route removes a maximal
clique of G2, found by sweeping its intervals: its sides are the intervals
that end before the clique and those that start after it, and the best
clique leaves at most half of the measure on each.  It covers the clique by
one unit per strip it meets: a clique of G for rectangles, a set inside a
unit box for points.  The length route removes a window of consecutive cover
parts and covers it by one unit per measure part it meets.  A unit is a
plain mask; the route that found it says which kind it is.  The cheaper
valid candidate wins.

The engine, :func:`separate_mask`, runs on a :class:`~cliquesep.graphs.Frame`
(a solver context is one), and a subproblem is a vertex mask F over it in
global ids: the strip and measure parts that meet F, the sides and the
units are read off the frame's masks, so no subgraph, relabelled cover or id
map is built per call.  To separate a whole graph, build its frame from G,
the intervals and the two covers' part masks, and pass it every vertex.  A
:class:`Cut` of masks is the one separator type: the engine returns it, and
:func:`check_separator` checks it against a frame and a mask F.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import chordal
from .geometry import SCALE
from .graphs import Frame, _ids, _running_counts

CHORDAL = "CHORDAL"
LENGTH_WINDOW = "LENGTH-WINDOW"


class Cut(NamedTuple):
    """A separator: ``s``, the sides and each unit covering ``s`` are
    masks.  A CHORDAL unit is one strip's share of a clique of G2, a
    LENGTH-WINDOW unit one measure part's share of the window."""

    s: int
    units: tuple[int, ...]
    side_a: int
    side_b: int
    route: str

    @property
    def cost(self) -> int:
        """The number of units covering the separator."""
        return len(self.units)


class NoSeparatorFound(RuntimeError):
    """Neither route produced a balanced candidate; carries a diagnostic dump."""

    def __init__(self, diagnostic: dict):
        super().__init__("no balanced separator found")
        self.diagnostic = diagnostic


def _chordal_cut(frame: Frame, F: int) -> Cut:
    """Balanced maximal-clique separator of G2[F] for a nonempty mask F,
    covered by one unit per strip the clique meets."""
    clique, a, b = chordal.clique_cut(frame, F)
    return Cut(clique, tuple(frame.strips(clique)), a, b, CHORDAL)


def _strips(frame: Frame, F: int) -> tuple[list[int], list[int]]:
    """The strips that meet F, in order, cut to F, and for each the members
    of F in the strips after it.  Raises ``ValueError`` when some but not
    all of F lies outside the strip cover."""
    stray = F & frame.unstripped
    if stray and stray != F:
        raise ValueError(f"vertex {_ids(stray)[0]} of G missing from cover")
    parts = frame.strips(F)
    after = []
    rest = F
    for p in parts:
        rest ^= p
        after.append(rest)
    return parts, after


def _length(frame: Frame, parts: list[int], after: list[int],
            cap: int) -> int:
    """The largest gap between the strip indices of an edge's ends, in a
    list of strips from :func:`_strips`, or ``cap`` if that is smaller.

    The neighbours of each strip but the last (nothing lies after it) reach
    forward through ``after``: they meet ``after[i]`` exactly when they meet
    a strip past i, so a strip's gap is tested only beyond the largest one
    found so far, and the walk stops once the gap reaches ``cap``.
    """
    adj = frame.adj_mask
    length = 0
    for j, part in enumerate(parts):
        i = j + length
        if i >= len(parts) - 1:
            break  # no strip lies far enough on for a longer gap
        reach = 0
        for v in _ids(part):
            reach |= adj[v]
        while reach & after[i]:
            i += 1
        if i - j > length:
            length = i - j
            if length >= cap:
                return cap
    return length


def strip_length(frame: Frame, F: int) -> int:
    """The edge-gap length of the strip cover restricted to G[F]: the
    largest gap between the indices, among the strips that meet F, of the
    ends of an edge inside F; 0 when F is edgeless.  Exact: no gap reaches
    the number of strips."""
    parts, after = _strips(frame, F)
    return _length(frame, parts, after, len(parts))


def _whole_length(frame: Frame) -> int:
    """l(V), the edge-gap length of the frame's whole strip cover, computed
    on the first call and kept on the frame.

    It bounds l(F) for every F inside the cover: restricted to F, the
    strips that meet F are re-indexed in the same order, so an edge's gap
    can only shrink, and fewer edges are left.
    """
    if frame._whole_length is None:
        every = (1 << len(frame.adj_mask)) - 1
        frame._whole_length = strip_length(frame, every & ~frame.unstripped)
    return frame._whole_length


def _window_cut(frame: Frame, F: int, parts: list[int],
                after: list[int]) -> Optional[Cut]:
    """Remove a window of consecutive strips that meet F.

    Edges of G[F] span at most l of those strips, so the strips before and
    after a window of l strips cannot interact.  The measure before a window
    only grows as it moves right and the measure after it only shrinks, so
    the window from strip i to strip j balances exactly when i <= ``last``
    and j >= ``first``; the width is the least one of at least l with a
    balanced window, and among those windows the one of minimum measure
    wins, ties going to the better-balanced, then leftmost one.

    The measure parts each strip meets are listed once.  The measures
    before and after each strip are running counts of the distinct parts
    met so far, from either end, and a window's measure is a count of the
    parts its strips meet, kept as the window slides right.  ``parts`` and
    ``after`` are :func:`_strips` of F.
    """
    k = len(parts)
    if k == 0:
        return None
    part_of, part_mask = frame.part_of, frame.part_mask
    meets = []  # the measure parts each strip meets
    for strip in parts:
        ids = []
        while strip:
            p = part_of[(strip & -strip).bit_length() - 1]
            strip &= ~part_mask[p]
            ids.append(p)
        meets.append(ids)
    mu_before = _running_counts(meets)  # the parts met before strip i
    # the parts met after strip j
    mu_after = _running_counts(reversed(meets))[k - 1::-1]
    total = mu_before[k]
    # both exist: nothing lies before strip 0 or after strip k - 1
    last = max(i for i in range(k + 1) if 3 * mu_before[i] <= 2 * total)
    first = min(j for j in range(k) if 3 * mu_after[j] <= 2 * total)
    # the balanced span is already as wide as any l(F) can be, l(V), or
    # the gap walk stops there
    span, cap = first - last + 1, _whole_length(frame)
    w = span if span >= cap else max(_length(frame, parts, after, cap), span)
    # a window of width 0 is an edgeless gap between strips i - 1 and i, an
    # empty separator (the gaps before strip 0 and after strip k - 1 leave
    # all of F on one side and never balance)
    lo, hi = max(0, first - w + 1), min(last, k - w)
    inside: dict[int, int] = {}  # part -> the window's strips meeting it

    def slide(t: int, step: int):
        for p in meets[t]:
            inside[p] = inside.get(p, 0) + step
            if not inside[p]:
                del inside[p]

    for t in range(lo, lo + w):
        slide(t, 1)
    keys = []
    for i in range(lo, hi + 1):
        if i > lo:  # strip i - 1 leaves, strip i + w - 1 joins (at w = 0
            # they are one strip, and the two slides cancel)
            slide(i - 1, -1)
            slide(i + w - 1, 1)
        keys.append((len(inside), max(mu_before[i], mu_after[i + w - 1]), i))
    i = min(keys)[2]
    a, b = (F ^ after[i - 1] if i else 0), after[i + w - 1]
    s = F ^ a ^ b
    # one unit per measure part meeting s: the window's count of them
    return Cut(s, tuple(frame.parts(s)), a, b, LENGTH_WINDOW)


def separate_mask(frame: Frame, F: int) -> Cut:
    """Best of both routes on the mask F by unit count; CHORDAL wins ties.

    The strips that meet F are listed first: a strip cover that misses
    part of F raises ``ValueError``, and one that misses all of F raises
    :class:`NoSeparatorFound`, before the chordal route would split a
    clique by strips.  The length route then always succeeds, since the
    window of all those strips leaves both sides empty.  The chordal route
    is skipped when the frame has no intervals, and otherwise always
    succeeds on a nonempty F; it runs next, and its sweep checks F.

    When F meets a single strip, the chordal cut is returned without the
    window being built.  Its clique lies in that strip, so it is one unit.
    The window is all of F at a cost of mu(F) >= 1: nothing lies before or
    after the one strip, which carries all of mu(F) >= 1, so ``last`` =
    ``first`` = 0, the span is 1, l(F) = 0, and the only window of width 1
    is the strip.  So the chordal cut costs no more, and wins the tie.
    """
    parts, after = _strips(frame, F)
    if not parts:
        raise NoSeparatorFound(_diagnostic(frame, F))
    if frame.intervals is None:
        return _window_cut(frame, F, parts, after)
    cut = _chordal_cut(frame, F)
    if len(parts) == 1:
        return cut
    window = _window_cut(frame, F, parts, after)
    return cut if cut.cost <= window.cost else window


def _diagnostic(frame: Frame, F: int) -> dict:
    adj = frame.adj_mask
    return {
        "n": F.bit_count(),
        "vertices": _ids(F),
        "edges": [(u, v) for u in _ids(F) for v in _ids(adj[u] & F) if u < v],
        "g1_parts": [_ids(p) for p in frame.strips(F)],
        "measure_parts": [_ids(p) for p in frame.parts(F)],
    }


# ---------------------------------------------------------------------------
# the contract checker


def check_separator(frame: Frame, cut: Cut, F: Optional[int] = None,
                    points: Optional[Sequence] = None) -> list[str]:
    """Contract violations of a :class:`Cut` for the subproblem on the mask
    F (every vertex of the frame by default), empty when valid.

    Checks the three-way partition of F, the edge cut, the 2/3 balance, that
    the units exactly cover the separator and that each unit is what its
    route makes: a LENGTH-WINDOW unit lies in one measure part (a
    MEASURE-PART unit), and a CHORDAL unit is a clique of G (G-CLIQUE) or,
    when ``points`` (items with ``x``/``y``, indexed like G) are given, fits
    a unit box of them (UNIT-BOX).
    """
    problems = []
    adj = frame.adj_mask
    if F is None:
        F = (1 << len(adj)) - 1
    s, side_a, side_b = cut.s, cut.side_a, cut.side_b
    if s | side_a | side_b != F:
        problems.append("s, side_a, side_b do not partition F")
    if s & side_a or s & side_b or side_a & side_b:
        problems.append("s, side_a, side_b overlap")
    crossing = next(((u, v) for u in _ids(side_a)
                     for v in _ids(adj[u] & side_b)), None)
    if crossing is not None:
        problems.append(f"edge {crossing} crosses the sides")
    total = frame.mu_of(F)
    for name, side in (("side_a", side_a), ("side_b", side_b)):
        if 3 * frame.mu_of(side) > 2 * total:
            problems.append(f"{name} exceeds 2/3 of the measure")
    covered = 0
    for members in cut.units:
        if covered & members:
            problems.append("units overlap")
        covered |= members
        mem = _ids(members)
        if cut.route == LENGTH_WINDOW:
            if frame.mu_of(members) > 1:
                problems.append("MEASURE-PART unit spans two measure parts")
        elif points is None:
            if any(members & ~adj[v] != 1 << v for v in mem):
                problems.append(f"G-CLIQUE unit not a clique: {mem}")
        elif mem:
            xs = [points[v].x for v in mem]
            ys = [points[v].y for v in mem]
            if max(xs) - min(xs) > SCALE or max(ys) - min(ys) > SCALE:
                problems.append(f"UNIT-BOX unit exceeds a 1x1 box: {mem}")
    if covered != s:
        problems.append("units do not exactly cover s")
    return problems

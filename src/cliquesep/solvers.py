"""Separator-driven exact and PTAS solvers.

Every solver, and the separator profile, runs on one recursion skeleton
(:func:`_divide`): split into connected components, solve a component exactly
when its restriction measure is small, and otherwise divide it through a
balanced separator.  The problems differ only in their leaf and in how they
combine a separator with the solutions of what it leaves behind.  The exact
minimizers (piercing and disc cover) run a separator-guided branch-and-bound
with certified pruning, and their PTAS pays for each separator unit with a
covering candidate; the maximizer (independent set) enumerates independent
selections inside the separator and solves the two sides of each apart.
A solver context holds the one-time structures of an instance and is the
:class:`~cliquesep.graphs.Frame` the separator engine reads, built in its
constructor from the geometry builders' covers, which are part masks
already.

Every solver separates each node of one separator tree once: a subproblem
strictly inside a node reuses the node's separator restricted to it.  That
is sound because a separator of F leaves no edge between ``side_a & F'`` and
``side_b & F'`` for any F' inside F; only the 2/3 balance can be lost, and
neither exactness nor the PTAS charging needs it (see :func:`_divide` and
:func:`_cover_ptas`).  Every public solver re-verifies feasibility of its
answer with a geometry-only scan before returning, and raises
:class:`InfeasibleSolution` when the scan fails.

Every vertex set of a solve is an int bitmask, bit v for item v, from the
candidate builders until the answer is packed into its solution: the sets
of :func:`_divide`, the independent-set search, the candidate masks of the
covering contexts, the covering branch-and-bound, its lower bounds and the
retirement of a separator.  So is every set of the separator engine:
:meth:`_BaseContext.separate_subset` hands it the context and a tree node's
mask and gets a :class:`~cliquesep.separator.Cut` of masks back, the one
separator type of the library, whose units are plain masks; the validator
of :func:`separation_profile` gets the same masks.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from .geometry import (SCALE, Disc, PointSite, Rect,
                       candidate_discs, candidate_pierce_points,
                       greedy_cover_and_is_rects, quarter_cell_partition,
                       rect_intersection_graph, strip_cover_rects,
                       unit_distance_graph, vertical_strip_cover_points,
                       x_chordal_graph, y_chordal_graph_points)
from .graphs import Frame, _ids, _mask
from .separator import LENGTH_WINDOW, Cut, separate_mask, strip_length

TraceHook = Callable[[int, int, str, int], None]


@dataclass(frozen=True)
class SolveConfig:
    """Knobs shared by all solvers.

    epsilon: PTAS approximation parameter in (0, 1).
    base_threshold: exact recursion becomes a leaf at measure <= t0.
    ptas_leaf_constant: PTAS switches to the exact solver at
        measure <= c0 / epsilon^2.
    """

    epsilon: Optional[float] = None
    base_threshold: int = 4
    ptas_leaf_constant: int = 8

    def __post_init__(self):
        if self.epsilon is not None and not (0 < float(self.epsilon) < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.base_threshold < 1 or self.ptas_leaf_constant < 1:
            raise ValueError("thresholds must be at least 1")

    def eps_exact(self) -> Fraction:
        if self.epsilon is None:
            raise ValueError("this solver needs epsilon")
        return Fraction(str(self.epsilon))

    def ptas_leaf_threshold(self) -> Fraction:
        e = self.eps_exact()
        return Fraction(self.ptas_leaf_constant) / (e * e)


class InfeasibleSolution(RuntimeError):
    """A solver's answer failed the geometry-only feasibility check."""


@dataclass(frozen=True)
class MisSolution:
    chosen: frozenset[int]

    @property
    def value(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class PierceSolution:
    points: tuple[PointSite, ...]

    @property
    def value(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CoverSolution:
    discs: tuple[Disc, ...]

    @property
    def value(self) -> int:
        return len(self.discs)


# ---------------------------------------------------------------------------
# post-hoc feasibility checks (geometry-only, no solver code paths)


def _feasible(ok: bool, solver: str) -> None:
    if not ok:
        raise InfeasibleSolution(f"{solver} produced an infeasible solution")


def verify_independent_rects(rects: Sequence[Rect], chosen) -> bool:
    """No two chosen rectangles intersect.  A sweep by left edge tests each
    only against the earlier ones whose x-range still reaches its left edge;
    every other earlier one lies wholly to its left."""
    active: list[Rect] = []
    for r in sorted((rects[i] for i in chosen), key=lambda r: r.x_lo):
        active = [a for a in active if a.x_hi >= r.x_lo]
        if any(a.intersects(r) for a in active):
            return False
        active.append(r)
    return True


def verify_piercing(rects: Sequence[Rect], points: Sequence[PointSite]) -> bool:
    """Every rectangle contains a point.  The points are sorted by x once,
    and each rectangle tests only those whose x lies in its x-range, found
    by bisect; every other point misses it."""
    pts = sorted((p.x, p.y) for p in points)
    xs = [x for x, _ in pts]
    return all(any(r.contains_point(x, y) for x, y in
                   pts[bisect_left(xs, r.x_lo):bisect_right(xs, r.x_hi)])
               for r in rects)


def _centre_cells(d: Disc) -> list[tuple[int, int]]:
    """Every unit cell ``(x // SCALE, y // SCALE)`` the centre of ``d`` may
    lie in: with r = rn/rd and s = isqrt(rn*rd), sqrt(r) lies in
    [s/rd, (s+1)/rd], which bounds each coordinate a + b*sqrt(r); over the
    common denominator of a, b and rd the bounds' cells are integer floor
    divisions."""
    rn, rd = d.r.numerator, d.r.denominator
    s = math.isqrt(rn * rd)

    def cells(a, b):
        base = a.numerator * b.denominator * rd
        step = b.numerator * a.denominator
        ends = (base + step * s, base + step * (s + 1))
        unit = a.denominator * b.denominator * rd * SCALE
        return range(min(ends) // unit, max(ends) // unit + 1)

    return [(x, y) for x in cells(d.ax, d.bx) for y in cells(d.ay, d.by)]


def verify_disc_cover(points: Sequence[PointSite], discs: Sequence[Disc]) -> bool:
    """Every point lies in a disc.  A disc covers only points within half a
    unit of its centre, whose unit cells are at most one apart from the
    centre's on each axis; so each disc is registered in every cell its
    centre may lie in, and each point tests only the discs registered in the
    3x3 cells around its own."""
    by_cell: dict[tuple[int, int], list[Disc]] = {}
    for d in discs:
        for cell in _centre_cells(d):
            by_cell.setdefault(cell, []).append(d)
    near = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    for p in points:
        cx, cy = p.x // SCALE, p.y // SCALE
        if not any(d.covers(p) for dx, dy in near
                   for d in by_cell.get((cx + dx, cy + dy), ())):
            return False
    return True


# ---------------------------------------------------------------------------
# solver contexts: one-time global structures per instance


def _holders(masks, n: int) -> list[tuple[int, ...]]:
    """For each item 0..n-1, the ascending ids of the masks holding it."""
    out: list[list[int]] = [[] for _ in range(n)]
    for c, mask in enumerate(masks):
        for i in _ids(mask):
            out[i].append(c)
    return [tuple(ids) for ids in out]


class _BaseContext(Frame):
    """The one-time structures of an instance: G, and the frame of it the
    separator engine reads, built from the interval model of G2, the strip
    cover and the measure partition as the geometry builders return them.
    A covering context adds its candidate sets and ``search()``.  Its
    builder returns the first candidate of each distinct mask: candidates
    with equal masks have equal effects everywhere, and every search and
    pick below breaks ties towards the lowest id, so the later ones would
    never be chosen."""

    kind = "?"

    def components(self, F: int) -> list[int]:
        """The components of G[F] for a mask F, as masks ordered by lowest
        member: a breadth-first search that grows each one a layer at a
        time."""
        adj = self.adj_mask
        comps = []
        while F:
            comp = frontier = F & -F
            F ^= frontier
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & F
                F ^= frontier
                comp |= frontier
            comps.append(comp)
        return comps

    def _ordered_packing(self, order, need: int) -> int:
        """Greedy independent set of G over ``order``, counted up to ``need``.

        Two items share a candidate (a piercing point, a unit disc) only when
        they are adjacent in G, so pairwise non-adjacent items each need a
        candidate of their own: any independent set of G[F] is a lower bound
        on a cover of F.
        """
        adj = self.adj_mask
        blocked = count = 0
        for v in order:
            if count >= need:
                break
            if not blocked >> v & 1:
                count += 1
                blocked |= adj[v]
        return count

    def independent_lower_bound(self, F: int, need: int) -> int:
        """A greedy independent set of G[F] that takes the item of least
        degree among those left, counted up to ``need``.  A lazy heap keeps
        it at O(|E(G[F])| log |F|)."""
        adj = self.adj_mask
        alive = F
        deg = {v: (adj[v] & F).bit_count() for v in _ids(F)}
        heap = sorted((d, v) for v, d in deg.items())
        count = 0
        while heap and count < need:
            d, v = heappop(heap)
            if not alive >> v & 1 or deg[v] != d:
                continue  # taken, blocked, or a stale degree
            count += 1
            gone = adj[v] & alive
            alive ^= gone | 1 << v
            for u in _ids(gone):
                for w in _ids(adj[u] & alive):
                    deg[w] -= 1
                    heappush(heap, (deg[w], w))
        return count

    def _lower_bound(self, order, F: int, need: int) -> int:
        """The cheap packing over ``order``; the least-degree one only when
        the cheap one stays below ``need``.

        The cheap packing touches only the neighbourhoods of the items it
        takes and stops at ``need``, while the least-degree one first counts
        every edge of G[F]; and neither greedy dominates the other, so their
        maximum cuts more nodes than either alone.  With the least-degree
        bound alone, the exact and PTAS pierce and disc-cover solves of 60
        items (seeds 0-9, three styles, exact and eps 0.3/0.5) took 41%
        longer on a 2-core host under Python 3.11.7.
        """
        cheap = self._ordered_packing(order, need)
        if cheap >= need:
            return cheap
        return max(cheap, self.independent_lower_bound(F, need))

    def separate_subset(self, F: int) -> Cut:
        """Separator for the induced subproblem on the mask F."""
        return separate_mask(self, F)

    def candidate_covering(self, group: int) -> int:
        """A candidate covering the whole group mask.  It covers the group's
        lowest item, so only that item's candidates are scanned, in
        ascending order: the pick is the first covering candidate overall.
        Raises :class:`InfeasibleSolution` when none does."""
        item_choices, choice_items, _ = self.search()
        for c in item_choices[(group & -group).bit_length() - 1]:
            if not group & ~choice_items[c]:
                return c
        raise InfeasibleSolution(
            f"no candidate {self.candidate_kind} covers a coverable group")

    def unit_groups(self, cut: Cut, members: int) -> list[int]:
        """The groups one candidate each pays for in a unit: the whole unit."""
        return [members]

    def retire(self, cut: Cut):
        """The candidates covering the groups of the separator's units, and
        the mask of every item they cover."""
        choice_items = self.search()[1]
        chosen = [self.candidate_covering(g) for members in cut.units
                  for g in self.unit_groups(cut, members)]
        covered = 0
        for c in chosen:
            covered |= choice_items[c]
        return [self.candidates[c] for c in chosen], covered


class RectContext(_BaseContext):
    kind = "rects"

    def __init__(self, rects: Sequence[Rect]):
        self.rects = list(rects)
        self.G = rect_intersection_graph(self.rects)
        super().__init__(self.G, x_chordal_graph(self.rects),
                         strip_cover_rects(self.rects),
                         greedy_cover_and_is_rects(self.rects)[0])


class PointContext(_BaseContext):
    kind = "points"

    def __init__(self, points: Sequence[PointSite]):
        self.points = list(points)
        self.G = unit_distance_graph(self.points)
        super().__init__(self.G, y_chordal_graph_points(self.points),
                         vertical_strip_cover_points(self.points),
                         [g for _, g in quarter_cell_partition(self.points)])


# ---------------------------------------------------------------------------
# the divide-and-conquer skeleton


def _restricted_separator(cut: Cut, F: int) -> Cut:
    """A node's separator inside the mask F: every set cut to F and empty
    units dropped."""
    units = tuple(members for m in cut.units if (members := m & F))
    return Cut(cut.s & F, units, cut.side_a & F, cut.side_b & F, cut.route)


def _divide(ctx, F: int, threshold, leaf, split,
            trace: Optional[TraceHook] = None, depth: int = 0) -> list:
    """Solve the mask F by components, leaves and balanced separators.

    A connected F of measure at most ``threshold`` goes to ``leaf(F, depth)``;
    a larger one to ``split(F, cut, recurse)``, where ``cut`` is the
    separator of F and ``recurse(F')`` solves a subproblem one level deeper;
    ``split`` must recurse only on subsets of ``cut.side_a | cut.side_b``.
    Solutions are lists, concatenated across components, and cached per
    connected vertex set for the length of the call (callers must not mutate
    returned lists).  The solution of a disconnected set is not stored, only
    its components: the selection enumeration meets the same few unions
    over and over (``mis_exact`` on uniform rects n=400, generator seed 42,
    asks for 513 k sets outside the memo, 25.6 k of them distinct), and
    storing their solutions too would copy every list again.

    Every vertex set in here is an int bitmask, bit v for item v: F, the
    memo keys, the tree nodes, the sets ``leaf`` and ``split`` receive and
    hand to ``recurse``, and the separator, a
    :class:`~cliquesep.separator.Cut` of masks as the engine returns it for
    a tree node's mask.  A union, intersection or difference is then one
    integer operation, and a set is hashed without building a set object.

    The separated sets are the nodes of one separator tree, the one
    :func:`separation_profile` walks: a node's children are the components
    of its separator's ``side_a | side_b``.  Each node is separated once,
    when first reached, and only then reported to ``trace(depth, measure,
    route, cost)``; a connected F strictly inside a node gets that
    node's separator restricted to F, and each component of what ``split``
    recurses on lies inside one child and recurses there.  Restriction keeps
    the separator valid: no edge of G joins ``side_a`` and ``side_b``, so
    none joins ``side_a & F`` and ``side_b & F``, and each restricted unit
    lies inside a unit of the same route.  Only the 2/3 balance may be lost;
    the depth stays logarithmic because every child carries at most 2/3 of
    its parent's measure, and F is a leaf once its node's measure is at most
    ``threshold``.
    """
    tree: dict = {}  # node -> (separator, child component masks)
    memo: dict = {}
    parts: dict = {}  # a disconnected set -> its components

    def rec(F: int, depth: int, parent) -> list:
        if not F:
            return []
        out = memo.get(F)
        if out is not None:
            return out
        comps = parts.get(F)
        if comps is None:
            comps = ctx.components(F)
            if len(comps) == 1:
                return solve(F, depth, parent)
            parts[F] = comps
        out = []
        for c in comps:  # connected: look each up, but search it no further
            sol = memo.get(c)
            out += sol if sol is not None else solve(c, depth, parent)
        return out

    def solve(F: int, depth: int, parent) -> list:
        """Solve a connected F that is not in the memo."""
        if ctx.mu_of(F) <= threshold:
            out = leaf(F, depth)
        else:
            # a connected F inside the parent's sides lies in one child
            node = F if parent is None else \
                next(c for c in tree[parent][1] if c & F)
            if node not in tree:
                cut = ctx.separate_subset(node)
                if trace is not None:
                    trace(depth, ctx.mu_of(node), cut.route, cut.cost)
                tree[node] = cut, ctx.components(cut.side_a | cut.side_b)
            cut = tree[node][0]
            if F != node:  # F is a subset of node
                cut = _restricted_separator(cut, F)
            out = split(F, cut, lambda sub: rec(sub, depth + 1, node))
        memo[F] = out
        return out

    return rec(F, depth, None)


def _everything(ctx) -> int:
    return (1 << ctx.G.n) - 1


# ---------------------------------------------------------------------------
# maximum independent set (rectangles)


def _class_reps(ctx, members: int, F: int) -> list[int]:
    """Deduplicate the members of a clique by their adjacency in F outside it.

    Members of one clique with identical neighborhoods in F (ignoring the
    clique itself) are interchangeable for independent-set purposes; the
    lowest id represents each class.  Returns the representatives ascending.
    """
    adj = ctx.adj_mask
    outside = F & ~members
    classes: dict[int, int] = {}
    for v in _ids(members):
        classes.setdefault(adj[v] & outside, v)
    return list(classes.values())


def _independent_selections(ctx, units, F: int) -> list[tuple[list[int], int]]:
    """All independent subsets of the separator picking at most one vertex per
    clique unit, up to neighborhood-equivalence inside each unit.

    Each comes as ``(chosen, blocked)``: the picks, and the mask of their
    neighbours in G.  Each unit extends every selection so far in place, by
    nothing first, which gives the order of a depth-first search that skips
    a unit before trying its members; the answer does not depend on it, but
    the order in which tree nodes are separated and traced does.
    """
    adj = ctx.adj_mask
    selections = [([], 0)]
    for members in units:
        options = _class_reps(ctx, members, F)
        grown = []
        for chosen, blocked in selections:
            grown.append((chosen, blocked))
            for v in options:
                if not blocked >> v & 1:
                    grown.append((chosen + [v], blocked | adj[v]))
        selections = grown
    return selections


def _mis_leaf(ctx, F: int) -> list[int]:
    """Exact MIS when few measure parts touch F: one pick per clique part."""
    adj = ctx.adj_mask
    reps = [_class_reps(ctx, g, F) for g in ctx.parts(F)]
    best: list[int] = []
    chosen: list[int] = []

    def rec(i, blocked):
        nonlocal best
        if len(chosen) + (len(reps) - i) <= len(best):
            return
        if i == len(reps):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        for v in reps[i]:
            if not blocked >> v & 1:
                chosen.append(v)
                rec(i + 1, blocked | adj[v])
                chosen.pop()
        rec(i + 1, blocked)

    rec(0, 0)
    return best


def _mis_exact(ctx, F: int, cfg: SolveConfig, trace,
               depth: int = 0) -> list[int]:
    """Optimal independent set of the mask F, on one separator tree rooted
    at F.

    A selection I of the separator leaves ``side_a - N(I)`` and
    ``side_b - N(I)``, which share no edge, so each is solved on its own;
    the selections of one separator leave few distinct sides, and each is
    solved once per call.  The largest candidate wins, and among equal sizes
    the one whose sorted list is least, so the chosen set does not depend on
    the order in which the selections come.
    """
    def split(F, cut, recurse):
        side_a, side_b = cut.side_a, cut.side_b
        solved: dict[int, list[int]] = {}
        best: list[int] = []  # sorted
        size = -1
        for I, blocked in _independent_selections(ctx, cut.units, F):
            left = ~blocked
            A = solved.get(a := side_a & left)
            if A is None:
                A = solved[a] = recurse(a)
            B = solved.get(b := side_b & left)
            if B is None:
                B = solved[b] = recurse(b)
            n = len(I) + len(A) + len(B)
            if n >= size:
                cand = sorted(I + A + B)
                if n > size or cand < best:
                    best, size = cand, n
        return best

    return _divide(ctx, F, cfg.base_threshold,
                   lambda F, depth: _mis_leaf(ctx, F), split, trace, depth)


def mis_exact(rects: Sequence[Rect], cfg: Optional[SolveConfig] = None,
              trace: Optional[TraceHook] = None,
              ctx: Optional[RectContext] = None) -> MisSolution:
    """Optimal independent set of unit-height rectangles."""
    cfg = cfg or SolveConfig()
    ctx = ctx or RectContext(rects)
    chosen = frozenset(_mis_exact(ctx, _everything(ctx), cfg, trace))
    _feasible(verify_independent_rects(ctx.rects, chosen), "mis_exact")
    return MisSolution(chosen)


def mis_ptas(rects: Sequence[Rect], cfg: SolveConfig,
             trace: Optional[TraceHook] = None,
             ctx: Optional[RectContext] = None) -> MisSolution:
    """(1-eps)-approximate independent set; exact below the measure leaf."""
    ctx = ctx or RectContext(rects)
    adj = ctx.adj_mask

    def split(F, cut, recurse):
        sol = _mask(recurse(cut.side_a)) | _mask(recurse(cut.side_b))
        # the separator was discarded; greedily re-admit what still fits
        for v in _ids(cut.s):
            if not adj[v] & sol:
                sol |= 1 << v
        return _ids(sol)

    chosen = frozenset(_divide(
        ctx, _everything(ctx), cfg.ptas_leaf_threshold(),
        lambda F, depth: _mis_exact(ctx, F, cfg, trace, depth),
        split, trace))
    _feasible(verify_independent_rects(ctx.rects, chosen), "mis_ptas")
    return MisSolution(chosen)


# ---------------------------------------------------------------------------
# generic covering branch-and-bound
#
# Both minimizers share this shape: "items" must be hit/covered by
# "choices"; a choice covers a set of items.  Branch on the lowest-id
# uncovered item over the choices covering it; prune with a packing lower
# bound, an independent set of G[uncovered].


def _split_search(ctx, mandatory: int, rest: int, solve_rest) -> list[int]:
    """B&B over the mandatory items; leftovers go to the side recursion.

    ``ctx.search()`` gives each item's ascending choice ids, each choice's
    mask of items and the lower bound.  A leaf passes every item as
    mandatory and solves no rest.  The incumbent starts as the greedy cover
    that takes, for the lowest-id uncovered item, its choice covering the
    most uncovered items (lowest id on ties).  A node is cut when
    ``lower_bound(uncovered, need)`` reaches ``need``, the number of picks
    still allowed below it for a strict improvement.  Any valid
    lower bound returns the same answer: a cut subtree holds no cover smaller
    than ``best`` at the time of the cut, ``best`` is replaced only by a
    strictly smaller cover, and ``solve_rest`` is a function of its argument;
    so the search meets the same sequence of strict improvements whichever
    valid bound cuts it, and ends on the same ``best``.  The branches at a
    node are the distinct effects on the uncovered items, each taken with its
    lowest choice id, largest effect first.

    An effect inside one already searched at the node is skipped, which
    keeps the same answer too.  A strict subset has fewer items, so its
    superset's branch comes first, and once that subtree is searched
    ``best`` is at most its optimum.  The skipped branch leaves a superset
    of those uncovered items, and ``solve_rest`` is exact, so an optimum
    only grows with what is left: the skipped branch could never strictly
    improve ``best``.  What the skip does change is the work: separations
    reached only inside skipped branches are no longer made, nor traced, and
    one first reached inside a skipped branch is traced where it is next
    reached.
    """
    item_choices, choice_items, lower_bound = ctx.search()
    best = []
    uncovered = mandatory | rest
    while uncovered:
        target = (uncovered & -uncovered).bit_length() - 1
        pick = max(item_choices[target], key=lambda c: (
            (choice_items[c] & uncovered).bit_count(), -c))
        best.append(pick)
        uncovered &= ~choice_items[pick]

    def rec(uncov_mand: int, uncov_rest: int, picked: list[int]):
        nonlocal best
        if not uncov_mand:
            extra = solve_rest(uncov_rest)
            if len(picked) + len(extra) < len(best):
                best = picked + extra
            return
        uncovered = uncov_mand | uncov_rest
        need = len(best) - len(picked)
        if lower_bound(uncovered, need) >= need:
            return
        effects: dict[int, int] = {}
        target = (uncov_mand & -uncov_mand).bit_length() - 1
        for c in item_choices[target]:
            effects.setdefault(choice_items[c] & uncovered, c)
        kept: list[int] = []
        for eff, c in sorted(effects.items(),
                             key=lambda e: (-e[0].bit_count(), e[1])):
            if any(not eff & ~k for k in kept):
                continue  # dominated by a branch already searched
            kept.append(eff)
            picked.append(c)
            rec(uncov_mand & ~eff, uncov_rest & ~eff, picked)
            picked.pop()

    rec(mandatory, rest, [])
    return best


def _cover_exact(ctx, F: int, cfg: SolveConfig, trace,
                 depth: int = 0) -> list[int]:
    """Optimal cover of the items in the mask F by ``ctx.candidates``, as
    their ids."""
    def leaf(F, depth):
        return _split_search(ctx, F, 0, lambda rest: [])

    def split(F, cut, recurse):
        return _split_search(ctx, cut.s, F & ~cut.s, recurse)

    return _divide(ctx, F, cfg.base_threshold, leaf, split, trace, depth)


def _cover_ptas(ctx, cfg: SolveConfig, trace) -> list:
    """(1+eps)-approximate cover, as candidate objects: ``ctx.retire`` pays
    a covering candidate per separator unit (per quarter of a chordal
    disc-cover unit) and the sides recurse on what it leaves.

    What a retirement leaves can lie strictly inside a tree node, and then
    gets the node's separator restricted to it (see :func:`_divide`).  The
    charging still holds: each restricted unit is a subset of one of the
    node's cliques, so ``retire`` pays at most what the node's separator
    would, and ``side_a & F - hit`` and ``side_b & F - hit`` share no edge
    of G, so no candidate covers items on both sides and their optima add
    up to at most OPT(F).
    """
    def leaf(F, depth):
        return [ctx.candidates[c]
                for c in _cover_exact(ctx, F, cfg, trace, depth)]

    def split(F, cut, recurse):
        picks, hit = ctx.retire(cut)
        left = ~hit
        return picks + recurse(cut.side_a & left) + recurse(cut.side_b & left)

    return _divide(ctx, _everything(ctx), cfg.ptas_leaf_threshold(), leaf,
                   split, trace)


# ---------------------------------------------------------------------------
# piercing (rectangles)


class PierceContext(RectContext):
    """Piercing candidates from
    :func:`~cliquesep.geometry.candidate_pierce_points`: the first
    corner-grid point of each distinct set of rectangles hit.  A separator
    unit is a clique of G, and the corner (min x_hi, min y_hi) of its common
    box is a grid point in every member (closed intervals that meet pairwise
    have min hi >= max lo), so some candidate pierces the whole unit."""

    candidate_kind = "point"

    def __init__(self, rects: Sequence[Rect]):
        super().__init__(rects)
        self.candidates, self.point_rects = candidate_pierce_points(self.rects)
        self.rect_points = _holders(self.point_rects, len(self.rects))
        by_right = sorted(range(len(self.rects)), key=lambda i: (
            self.rects[i].x_hi, self.rects[i].y_lo, i))
        self._right_rank = {i: rank for rank, i in enumerate(by_right)}

    def disjoint_lower_bound(self, F: int, need: int) -> int:
        """Pairwise-disjoint rectangles in F each need their own point: the
        packing by right edge first, then by least degree if short of
        ``need``."""
        return self._lower_bound(
            sorted(_ids(F), key=self._right_rank.__getitem__), F, need)

    def search(self):
        """(rectangle -> point ids, point -> rectangle mask, lower bound)."""
        return self.rect_points, self.point_rects, self.disjoint_lower_bound


def pierce_exact(rects: Sequence[Rect], cfg: Optional[SolveConfig] = None,
                 trace: Optional[TraceHook] = None,
                 ctx: Optional[PierceContext] = None) -> PierceSolution:
    """Minimum piercing set, drawn from the corner candidate grid."""
    cfg = cfg or SolveConfig()
    ctx = ctx or PierceContext(rects)
    ids = _cover_exact(ctx, _everything(ctx), cfg, trace)
    pts = tuple(ctx.candidates[i] for i in sorted(set(ids)))
    _feasible(verify_piercing(ctx.rects, pts), "pierce_exact")
    return PierceSolution(pts)


def pierce_ptas(rects: Sequence[Rect], cfg: SolveConfig,
                trace: Optional[TraceHook] = None,
                ctx: Optional[PierceContext] = None) -> PierceSolution:
    """(1+eps)-approximate piercing; exact below the measure leaf."""
    ctx = ctx or PierceContext(rects)
    uniq = tuple(sorted(set(_cover_ptas(ctx, cfg, trace))))
    _feasible(verify_piercing(ctx.rects, uniq), "pierce_ptas")
    return PierceSolution(uniq)


# ---------------------------------------------------------------------------
# disc cover (points)


class CoverContext(PointContext):
    candidate_kind = "disc"

    def __init__(self, points: Sequence[PointSite]):
        super().__init__(points)
        self.candidates, self.disc_points = candidate_discs(self.points, self.G)
        self.point_discs = _holders(self.disc_points, len(self.points))

    def scatter_lower_bound(self, F: int, need: int) -> int:
        """Points pairwise farther than one unit each need their own disc:
        the packing by id first, then by least degree if short of ``need``."""
        return self._lower_bound(_ids(F), F, need)

    def search(self):
        """(point -> disc ids, disc -> point mask, lower bound)."""
        return self.point_discs, self.disc_points, self.scatter_lower_bound

    def unit_groups(self, cut: Cut, members: int) -> list[int]:
        """A LENGTH-WINDOW unit is one quarter cell and takes one disc.  A
        CHORDAL unit fits a unit box and is split at its bounding-box
        midpoints: at most four groups, each inside a half-unit square.  A
        group that fits a unit-diameter disc has a candidate covering it, by
        the replacement argument."""
        if cut.route == LENGTH_WINDOW:
            return [members]
        ids = _ids(members)
        xs = [self.points[i].x for i in ids]
        ys = [self.points[i].y for i in ids]
        mx2 = min(xs) + max(xs)  # twice the midpoints
        my2 = min(ys) + max(ys)
        groups: dict[tuple[bool, bool], int] = {}
        for i, x, y in zip(ids, xs, ys):
            key = (2 * x > mx2, 2 * y > my2)
            groups[key] = groups.get(key, 0) | 1 << i
        return [g for _, g in sorted(groups.items())]


def disccover_exact(points: Sequence[PointSite],
                    cfg: Optional[SolveConfig] = None,
                    trace: Optional[TraceHook] = None,
                    ctx: Optional[CoverContext] = None) -> CoverSolution:
    """Minimum unit-diameter disc cover, drawn from the candidate set."""
    cfg = cfg or SolveConfig()
    ctx = ctx or CoverContext(points)
    ids = _cover_exact(ctx, _everything(ctx), cfg, trace)
    discs = tuple(ctx.candidates[i] for i in sorted(set(ids)))
    _feasible(verify_disc_cover(ctx.points, discs), "disccover_exact")
    return CoverSolution(discs)


def disccover_ptas(points: Sequence[PointSite], cfg: SolveConfig,
                   trace: Optional[TraceHook] = None,
                   ctx: Optional[CoverContext] = None) -> CoverSolution:
    """(1+eps)-approximate disc cover; exact below the measure leaf."""
    ctx = ctx or CoverContext(points)
    # candidates are sorted by key, so this is candidate-id order
    discs = tuple(sorted(set(_cover_ptas(ctx, cfg, trace)), key=Disc.key))
    _feasible(verify_disc_cover(ctx.points, discs), "disccover_ptas")
    return CoverSolution(discs)


# ---------------------------------------------------------------------------
# separator profiling (benchmark harness and contract sweeps)


@dataclass(frozen=True)
class SeparatorCall:
    n: int
    mu: int
    length: int
    cost: int
    route: str


def separation_profile(ctx, t0: int = 4, validator=None) -> list[SeparatorCall]:
    """Drive the bare separation recursion and record every separator call.

    ``validator(F, cut)`` is invoked per call when given (contract sweeps),
    with the node's mask and its :class:`~cliquesep.separator.Cut`.
    """
    def split(F, cut, recurse):
        if validator is not None:
            validator(F, cut)
        row = SeparatorCall(F.bit_count(), ctx.mu_of(F),
                            strip_length(ctx, F), cut.cost, cut.route)
        return [row] + recurse(cut.side_a) + recurse(cut.side_b)

    return _divide(ctx, _everything(ctx), t0, lambda F, depth: [], split)

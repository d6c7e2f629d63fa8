"""Brute-force ground truth, kept algorithmically independent of the solvers.

The minimum-cover oracles use plain iterative-deepening depth-first search
over candidate bitmasks; the solvers use a separator-guided branch-and-bound,
so agreement between the two is meaningful evidence.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import SCALE, Disc, PointSite, Rect, candidate_discs, sq_dist
from .graphs import Graph, _index, cover_length, verify_clique_cover


class TooLargeError(ValueError):
    pass


def _require(n: int, cap: int, what: str):
    if n > cap:
        raise TooLargeError(f"{what} oracle capped at {cap}, got {n}")


# ---------------------------------------------------------------------------
# intersection graphs, pair by pair


def rect_graph(rects: Sequence[Rect]) -> Graph:
    """The intersection graph of rectangles, from :meth:`Rect.intersects` on
    every pair: the reference for
    :func:`cliquesep.geometry.rect_intersection_graph`."""
    n = len(rects)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rects[i].intersects(rects[j])])


def point_graph(points: Sequence[PointSite]) -> Graph:
    """The unit-distance graph of points, from the squared distance of every
    pair: the reference for :func:`cliquesep.geometry.unit_distance_graph`."""
    n = len(points)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if sq_dist(points[i], points[j]) <= SCALE * SCALE])


# ---------------------------------------------------------------------------
# maximum independent set


def brute_mis(G: Graph) -> tuple[int, frozenset[int]]:
    """Exact MIS by exhaustive branching with memoization.

    Including the lowest available vertex whenever it ties keeps the witness
    deterministic.
    """
    _require(G.n, 24, "independent set")
    nbr = [0] * G.n
    for u, v in G.edges():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, tuple[int, int]] = {}

    def rec(avail: int) -> tuple[int, int]:
        if avail == 0:
            return 0, 0
        hit = memo.get(avail)
        if hit is not None:
            return hit
        v = (avail & -avail).bit_length() - 1
        bit = 1 << v
        s_in, w_in = rec(avail & ~(bit | nbr[v]))
        s_in += 1
        w_in |= bit
        s_out, w_out = rec(avail & ~bit)
        out = (s_in, w_in) if s_in >= s_out else (s_out, w_out)
        memo[avail] = out
        return out

    size, wmask = rec((1 << G.n) - 1)
    return size, frozenset(i for i in range(G.n) if wmask >> i & 1)


# ---------------------------------------------------------------------------
# minimum clique cover


def brute_clique_cover(G: Graph) -> int:
    """Minimum clique cover = chromatic number of the complement."""
    _require(G.n, 12, "clique cover")
    n = G.n
    if n == 0:
        return 0
    co = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and not G.has_edge(u, v):
                co[u] |= 1 << v
    order = sorted(range(n), key=lambda v: (-bin(co[v]).count("1"), v))
    best = n
    color_masks: list[int] = []

    def rec(i: int):
        nonlocal best
        if len(color_masks) >= best:
            return
        if i == n:
            best = len(color_masks)
            return
        v = order[i]
        for c in range(len(color_masks)):
            if color_masks[c] & co[v]:
                continue
            color_masks[c] |= 1 << v
            rec(i + 1)
            color_masks[c] &= ~(1 << v)
        if len(color_masks) + 1 < best:
            color_masks.append(1 << v)
            rec(i + 1)
            color_masks.pop()

    rec(0)
    return best


# ---------------------------------------------------------------------------
# generic minimum cover by iterative deepening


def _min_cover(n_items: int, masks: Sequence[int]) -> list[int]:
    """Smallest subset of ``masks`` whose union covers all items.

    Dominated masks are dropped (safe for the optimum value); the search
    deepens the budget until a cover exists, branching on the item with the
    fewest remaining candidates.
    """
    full = (1 << n_items) - 1
    if full == 0:
        return []
    union = 0
    for m in masks:
        union |= m
    if union & full != full:
        raise ValueError("candidates cannot cover all items")
    by_size = sorted(range(len(masks)), key=lambda i: (-bin(masks[i]).count("1"), i))
    kept: list[int] = []
    for i in by_size:
        m = masks[i] & full
        if m and not any(m & ~(masks[j] & full) == 0 for j in kept):
            kept.append(i)
    item_cands: list[list[int]] = [[] for _ in range(n_items)]
    for i in kept:
        m = masks[i] & full
        for b in range(n_items):
            if m >> b & 1:
                item_cands[b].append(i)

    def dfs(uncovered: int, budget: int, chosen: list[int]) -> Optional[list[int]]:
        if uncovered == 0:
            return list(chosen)
        if budget == 0:
            return None
        # branch on the most constrained uncovered item
        target, t_cands = -1, None
        u = uncovered
        while u:
            b = (u & -u).bit_length() - 1
            u &= u - 1
            cands = [i for i in item_cands[b] if masks[i] & uncovered]
            if t_cands is None or len(cands) < len(t_cands):
                target, t_cands = b, cands
                if len(cands) <= 1:
                    break
        if not t_cands:
            return None
        t_cands.sort(key=lambda i: (-bin(masks[i] & uncovered).count("1"), i))
        for i in t_cands:
            chosen.append(i)
            got = dfs(uncovered & ~masks[i], budget - 1, chosen)
            chosen.pop()
            if got is not None:
                return got
        return None

    budget = 1
    while True:
        got = dfs(full, budget, [])
        if got is not None:
            return sorted(got)
        budget += 1


def pierce_grid(
        rects: Sequence[Rect]) -> tuple[list[PointSite], list[int]]:
    """Every covered point of the corner grid (right edge x top edge), x-major
    then by y, and for each the mask of the rectangles containing it (bit i
    for rectangle i).

    The reference for :func:`cliquesep.geometry.candidate_pierce_points`,
    which keeps the first point of each distinct mask.  A sweep over the
    right edges keeps the rectangles spanning the current x; each lists the
    top edges inside its own y-extent, so the work grows with the number of
    covered grid points, up to quadratic in the rectangles.
    """
    ys = sorted({r.y_hi for r in rects})
    by_lo = sorted(range(len(rects)), key=lambda i: rects[i].x_lo)
    points, masks = [], []
    active: list[int] = []
    nxt = 0
    for x in sorted({r.x_hi for r in rects}):
        while nxt < len(by_lo) and rects[by_lo[nxt]].x_lo <= x:
            active.append(by_lo[nxt])
            nxt += 1
        active = [i for i in active if rects[i].x_hi >= x]
        column: dict[int, int] = {}
        for i in active:
            r = rects[i]
            for y in ys[bisect_left(ys, r.y_lo):bisect_right(ys, r.y_hi)]:
                column[y] = column.get(y, 0) | 1 << i
        for y in sorted(column):
            points.append(PointSite(x, y))
            masks.append(column[y])
    return points, masks


def brute_pierce(rects: Sequence[Rect]) -> tuple[int, list[PointSite]]:
    """Minimum piercing over the corner candidate grid, by subset search."""
    _require(len(rects), 14, "piercing")
    if not rects:
        return 0, []
    cands, _ = pierce_grid(rects)
    masks = []
    for p in cands:
        m = 0
        for i, r in enumerate(rects):
            if r.contains_point(p.x, p.y):
                m |= 1 << i
        masks.append(m)
    ids = _min_cover(len(rects), masks)
    return len(ids), [cands[i] for i in ids]


def brute_disccover(points: Sequence[PointSite]) -> tuple[int, list[Disc]]:
    """Minimum cover over the candidate disc set, by subset search."""
    _require(len(points), 10, "disc cover")
    if not points:
        return 0, []
    cands, _ = candidate_discs(points, point_graph(points))
    masks = []
    for d in cands:
        m = 0
        for i, p in enumerate(points):
            if d.covers(p):
                m |= 1 << i
        masks.append(m)
    ids = _min_cover(len(points), masks)
    return len(ids), [cands[i] for i in ids]


# ---------------------------------------------------------------------------
# partial orders and the length statistic


@dataclass(frozen=True)
class StrictOrder:
    """Strict partial order on 0..n-1 as a set of ordered pairs."""

    n: int
    relation: frozenset[tuple[int, int]]

    def violations(self) -> list[str]:
        out = []
        rel = self.relation
        for (a, b) in rel:
            if a == b:
                out.append(f"reflexive pair ({a},{b})")
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    out.append(f"transitivity fails: ({a},{b}),({c},{d})")
                    return out
        return out


@dataclass(frozen=True)
class OrderCheck:
    order: StrictOrder
    irreflexive: bool
    transitive: bool
    incomparability_matches: bool

    @property
    def ok(self) -> bool:
        return self.irreflexive and self.transitive and self.incomparability_matches


def order_from_length1_cover(G: Graph, parts) -> OrderCheck:
    """x < y iff x's part precedes y's and xy is a non-edge, for an ordered
    clique cover of G given as part masks.

    Verifies that the relation is a strict order whose incomparability graph
    is exactly G, which is the constructive content of the length-1 case.
    """
    ok, detail = verify_clique_cover(G, parts, explain=True)
    if not ok:
        raise ValueError(f"not a clique cover of G: {detail}")
    if cover_length(G, parts).value > 1:
        raise ValueError("cover has length greater than 1")
    idx = _index(parts, G.n)
    rel = frozenset((x, y) for x in range(G.n) for y in range(G.n)
                    if idx[x] < idx[y] and not G.has_edge(x, y))
    order = StrictOrder(G.n, rel)
    irreflexive = all(a != b for a, b in rel)
    transitive = True
    for (a, b) in rel:
        for c in range(G.n):
            if (b, c) in rel and (a, c) not in rel:
                transitive = False
    incomp = True
    for x in range(G.n):
        for y in range(x + 1, G.n):
            incomparable = (x, y) not in rel and (y, x) not in rel
            if incomparable != G.has_edge(x, y):
                incomp = False
    return OrderCheck(order, irreflexive, transitive, incomp)


def poset_dimension(order: StrictOrder) -> int:
    """Minimum number of linear extensions whose intersection is the order.

    Backtracking: every incomparable ordered pair must be reversed by some
    extension; extensions are grown as transitively closed DAGs, with
    acyclicity as the only constraint and first-use symmetry breaking.
    """
    _require(order.n, 8, "poset dimension")
    if order.violations():
        raise ValueError("not a strict partial order")
    n = order.n
    base = [0] * n
    for (a, b) in order.relation:
        base[a] |= 1 << b
    pairs = [(a, b) for a in range(n) for b in range(n)
             if a != b and (a, b) not in order.relation
             and (b, a) not in order.relation]
    if not pairs:
        return 1

    def closure_add(reach: list[int], b: int, a: int) -> Optional[list[int]]:
        """reach with edge b->a added, or None if that creates a cycle."""
        if reach[a] >> b & 1:
            return None
        new = list(reach)
        srcs = [x for x in range(n) if x == b or (new[x] >> b & 1)]
        dsts = (1 << a) | new[a]
        for x in srcs:
            new[x] |= dsts
        return new

    def feasible(k: int) -> bool:
        exts = [list(base) for _ in range(k)]

        def rec(i: int, used: int) -> bool:
            if i == len(pairs):
                return True
            a, b = pairs[i]
            # need some extension with b before a
            if any(exts[j][b] >> a & 1 for j in range(used)):
                return rec(i + 1, used)
            limit = min(used + 1, k)
            for j in range(limit):
                new = closure_add(exts[j], b, a)
                if new is None:
                    continue
                old = exts[j]
                exts[j] = new
                if rec(i + 1, max(used, j + 1)):
                    exts[j] = old
                    return True
                exts[j] = old
            return False

        return rec(0, 0)

    k = 2
    while True:
        if feasible(k):
            return k
        k += 1
        if k > max(2, n):
            raise RuntimeError("dimension search exceeded its bound")


def brute_length(G: Graph, H: Graph,
                 witness: bool = False):
    """l(G, H): minimum over ordered clique covers of H of the largest part
    gap spanned by an edge of G.

    Exhaustive: for increasing gap budgets, a depth-first search places one
    clique part at a time; a part sliding out of the budget window must have
    no G-neighbors left unplaced.  Always terminates by the singleton cover.
    """
    _require(G.n, 9, "length")
    if G.n != H.n:
        raise ValueError("G and H must share the vertex set")
    n = G.n
    if n == 0:
        return (0, ()) if witness else 0
    gnbr = [set(G.adj[v]) for v in range(n)]
    all_vs = frozenset(range(n))

    def h_cliques(remaining: frozenset) -> list[frozenset]:
        """All nonempty cliques of H inside ``remaining``."""
        out = []
        rem = sorted(remaining)

        def grow(clique: list[int], pool: list[int]):
            if clique:
                out.append(frozenset(clique))
            for i, v in enumerate(pool):
                if all(H.has_edge(v, u) for u in clique):
                    clique.append(v)
                    grow(clique, pool[i + 1:])
                    clique.pop()

        grow([], rem)
        return out

    def decide(L: int) -> Optional[tuple[frozenset, ...]]:
        if L == 0:
            # every G-component must be an H-clique part
            from .graphs import components_within
            parts = []
            for comp in components_within(G.adj, all_vs):
                mem = sorted(comp)
                for i in range(len(mem)):
                    for j in range(i + 1, len(mem)):
                        if not H.has_edge(mem[i], mem[j]):
                            return None
                parts.append(comp)
            return tuple(parts)
        failed: set[tuple] = set()

        def rec(placed: frozenset, window: tuple) -> Optional[list]:
            if placed == all_vs:
                return []
            key = (placed, window)
            if key in failed:
                return None
            remaining = all_vs - placed
            for part in h_cliques(remaining):
                new_placed = placed | part
                if len(window) == L:
                    leaving = window[0]
                    if any(gnbr[u] - new_placed for u in leaving):
                        continue
                    new_window = window[1:] + (part,)
                else:
                    new_window = window + (part,)
                tail = rec(new_placed, new_window)
                if tail is not None:
                    return [part] + tail
            failed.add(key)
            return None

        got = rec(frozenset(), ())
        return tuple(got) if got is not None else None

    for L in range(0, n):
        parts = decide(L)
        if parts is not None:
            return (L, parts) if witness else L
    raise AssertionError("singleton cover must succeed")


# ---------------------------------------------------------------------------
# chordal graphs: the reference for the interval sweep in ``chordal``


class NotChordalError(ValueError):
    pass


@dataclass(frozen=True)
class EliminationOrder:
    """A vertex order together with the chordality verdict.

    When ``chordal`` is true, ``order`` is a perfect elimination ordering:
    each vertex's later neighbors form a clique.
    """

    order: tuple[int, ...]
    chordal: bool


def mcs_order(H: Graph) -> EliminationOrder:
    """Maximum cardinality search.

    The reversed visit order is a perfect elimination ordering iff H is
    chordal; the verdict is verified with the standard parent check.
    Ties are broken by lowest vertex id for determinism.
    """
    n = H.n
    weight = [0] * n
    visited = [False] * n
    visit: list[int] = []
    # lazy-deletion heap keyed by (-weight, vertex)
    heap = [(0, v) for v in range(n)]
    heapq.heapify(heap)
    while len(visit) < n:
        w, v = heapq.heappop(heap)
        if visited[v] or -w != weight[v]:
            continue
        visited[v] = True
        visit.append(v)
        for u in H.adj[v]:
            if not visited[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    order = tuple(reversed(visit))
    pos = {v: i for i, v in enumerate(order)}
    chordal = True
    for v in order:
        later = [u for u in H.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        u0 = min(later, key=lambda u: pos[u])
        if any(u != u0 and u not in H.adj[u0] for u in later):
            chordal = False
            break
    return EliminationOrder(order, chordal)


def maximal_cliques_chordal(H: Graph, ord: EliminationOrder) -> list[frozenset[int]]:
    """All maximal cliques of a chordal graph, from its elimination order.

    There are at most n of them.  Output is sorted by (smallest member,
    members) for determinism.
    """
    if not ord.chordal:
        raise NotChordalError("maximal_cliques_chordal requires a chordal graph")
    pos = {v: i for i, v in enumerate(ord.order)}
    candidates = []
    for v in ord.order:
        later = frozenset(u for u in H.adj[v] if pos[u] > pos[v])
        candidates.append(later | {v})
    # drop candidates contained in another; scanning larger ones first means
    # every container is already kept when a contained candidate is tested
    candidates.sort(key=lambda c: (-len(c), sorted(c)))
    kept: list[frozenset[int]] = []
    by_vertex: dict[int, list[int]] = {}
    for c in candidates:
        x = min(c)
        if any(c <= kept[i] for i in by_vertex.get(x, ())):
            continue
        idx = len(kept)
        kept.append(c)
        for v in c:
            by_vertex.setdefault(v, []).append(idx)
    kept.sort(key=lambda c: (min(c), sorted(c)))
    return kept


# ---------------------------------------------------------------------------
# interval helpers for the dimension bound check


def interval_graph(intervals: Sequence[tuple[int, int]]) -> Graph:
    n = len(intervals)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = intervals[i], intervals[j]
            if a[0] <= b[1] and b[0] <= a[1]:
                edges.append((i, j))
    return Graph(n, edges)


def interval_order(intervals: Sequence[tuple[int, int]]) -> StrictOrder:
    """x < y iff x's interval lies entirely left of y's."""
    n = len(intervals)
    rel = frozenset((i, j) for i in range(n) for j in range(n)
                    if intervals[i][1] < intervals[j][0])
    return StrictOrder(n, rel)

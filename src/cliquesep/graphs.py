"""Graphs, ordered clique covers, the edge-gap length statistic, and the
frame the separator engine reads.

A :class:`Graph` stores its adjacency as int neighbour masks, one per vertex
(bit w of ``adj_mask[v]`` is the edge vw); the geometry builders fill them
directly in their sweeps, and the solvers read nothing else.  Its ``adj``
tuple of frozensets is a view derived on first access, for the oracles, the
tests and :func:`components_within`; no induced subgraph is ever built.

An ordered clique cover is a tuple of disjoint int part masks (bit v of a
part is vertex v), in order; it holds no graph, and
:func:`verify_clique_cover` checks it against one.  The separator's
auxiliary graph G1 exists only through such a cover, the ordered strip
cover: :func:`cover_length` measures how far the edges of G reach across its
parts, and no G1 graph is ever built.

A :class:`Frame` holds one instance as the separator engine reads it: vertex
sets are int bitmasks, and the graph (the masks of :class:`Graph`, shared as
they are), the strip cover and the partition behind the measure are held as
masks over the same ids, so a subproblem is a mask and nothing is relabelled
or rebuilt for it.  Its :meth:`Frame.mu_of` is the restriction measure: the
number of measure parts that touch a vertex set.  It is monotone,
subadditive, and exactly additive across edgeless splits, which is what the
engine relies on and :func:`check_measure_axioms` samples.  A frame checks
the engine's inputs once for the whole instance, so no subproblem is
checked again.  Each solver context is a frame, built when the context is
constructed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional


class Graph:
    """Undirected simple graph on dense vertex ids 0..n-1.

    Immutable after construction.  The stored adjacency is ``adj_mask``, one
    int neighbour mask per vertex (bit w of ``adj_mask[v]`` is set iff vw is
    an edge); the solvers and the separator engine read only that.  ``adj``,
    the same neighbourhoods as a tuple of frozensets, is a read-only view for
    the oracles, the graph helpers and the tests, derived on first access.
    """

    __slots__ = ("n", "adj_mask", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_mask = tuple(adj)
        self._adj = None

    @classmethod
    def from_masks(cls, adj_mask) -> "Graph":
        """The graph of symmetric, loop-free neighbour masks, taken as they
        are: the builders fill them directly and check nothing again."""
        G = cls.__new__(cls)
        G.n = len(adj_mask)
        G.adj_mask = tuple(adj_mask)
        G._adj = None
        return G

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        if self._adj is None:
            self._adj = tuple(_members(a) for a in self.adj_mask)
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def edges(self):
        """Yield each edge once as (u, v) with u < v, ascending."""
        for u, a in enumerate(self.adj_mask):
            for v in _ids(a >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj_mask) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def components_within(adj, members: frozenset) -> list[frozenset]:
    """Components of the subgraph induced by ``members`` of a graph given by
    its adjacency tuple, ordered by smallest member; with every vertex as
    ``members``, the components of the graph."""
    seen = set()
    comps = []
    for s in sorted(members):
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        comp = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def verify_clique_cover(G: Graph, parts, explain: bool = False):
    """True iff the part masks are disjoint cliques of G covering all its
    vertices.

    With ``explain=True`` returns (ok, detail) where detail names the violation.
    """
    n, adj = G.n, G.adj_mask
    seen = 0
    for i, part in enumerate(parts):
        shared, stray = part & seen, part >> n << n
        if shared or stray:
            low = shared or stray  # shared vertices lie below the stray ones
            v = (low & -low).bit_length() - 1
            why = "in two parts" if shared else "out of range"
            return (False, f"vertex {v} {why}") if explain else False
        seen |= part
        for u in _ids(part):
            apart = (part & ~adj[u]) >> (u + 1)  # later members, not adjacent
            if apart:
                w = u + (apart & -apart).bit_length()
                detail = f"part {i}: {u},{w} not adjacent"
                return (False, detail) if explain else False
    missing = ~seen & ((1 << n) - 1)
    if missing:
        v = (missing & -missing).bit_length() - 1
        return (False, f"vertex {v} uncovered") if explain else False
    return (True, None) if explain else True


@dataclass(frozen=True)
class LengthReport:
    """Maximum part-index gap spanned by an edge; 0 for edgeless graphs."""

    value: int
    witness_edge: Optional[tuple[int, int]]


def cover_length(G: Graph, parts) -> LengthReport:
    """max over edges xy of G of the gap between the indices of the parts
    holding x and y.

    The part masks may cover a supergraph of G (such as G1); every vertex of
    G must be covered.
    """
    idx = _index(parts, G.n)
    best = 0
    witness = None
    for u, v in G.edges():
        gap = abs(idx[u] - idx[v])
        if gap > best or witness is None:
            best = gap
            witness = (u, v)
    return LengthReport(best, witness)


# ---------------------------------------------------------------------------
# vertex sets as int bitmasks: bit v is vertex v


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _ids(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _members(mask: int) -> frozenset:
    return frozenset(_ids(mask))


def _index(parts, n: int) -> list[int]:
    """Each vertex's part index, for part masks that must partition the
    vertices 0..n-1: a vertex out of range, in two parts or in none raises
    ``ValueError``."""
    index: list = [None] * n
    for i, part in enumerate(parts):
        ids = _ids(part)
        if ids and ids[-1] >= n:
            raise ValueError(f"vertex {ids[-1]} out of range")
        for v in ids:
            if index[v] is not None:
                raise ValueError(f"vertex {v} appears in two parts")
            index[v] = i
    if None in index:
        raise ValueError(f"vertex {index.index(None)} of G missing from cover")
    return index


class Frame:
    """What the separator engine reads of one instance, over global ids.

    Holds each vertex's interval (of the chordal supergraph G2), its
    strip-cover part and its measure part, and as int bitmasks the
    neighbourhood in G of each vertex and the members of each strip and
    measure part.  A subproblem is then just a mask F of vertices: the
    engine reads the parts that meet F off these masks (:meth:`strips`,
    :meth:`parts`, :meth:`mu_of`), and no subgraph or relabelled cover is
    built per call.  ``strip_mask`` and ``part_mask`` are the two ordered
    covers as the builders return them, tuples of part masks; a part index
    is a position in them.

    The frame is the one place that checks the engine's inputs, once for
    the whole instance: it needs one interval per vertex, and each cover
    must put every vertex in exactly one part, or construction raises
    ``ValueError``.  The intervals are checked against G and the measure
    by :meth:`sweep`.
    """

    __slots__ = ("adj_mask", "intervals", "strip_of", "strip_mask",
                 "part_of", "part_mask", "_sweep", "_whole_length")

    def __init__(self, G: Graph, intervals, strips, parts):
        if len(intervals) != G.n:
            raise ValueError("need one interval per vertex of G")
        self.adj_mask = G.adj_mask
        self.intervals = intervals
        self.strip_mask = tuple(strips)
        self.strip_of = _index(self.strip_mask, G.n)
        self.part_mask = tuple(parts)
        self.part_of = _index(self.part_mask, G.n)
        # _whole_length is l(V), kept by separator._whole_length
        self._sweep = self._whole_length = None

    def sweep(self) -> tuple[list[int], list[int], list[int]]:
        """The sweep table of the intervals: ``(pos_lo, pos_hi, item)``.

        Position p is a place in the order of all 2n interval ends by
        coordinate, left ends before right ends, then by id; v's ends are at
        ``pos_lo[v]`` and ``pos_hi[v]``, and ``item[p]`` is v for a left end
        and ~v for a right end.  The ends of the members of a mask F, sorted
        as ints, are then in the order a sort of F's ends alone would give,
        tie-breaks included.  Built on the first call, by the first chordal
        cut, so constructing a frame does not pay for it.

        Building it checks the intervals: every edge of G must join
        overlapping intervals, and every measure part must be an interval
        clique.  Each interval is checked as it starts against the mask of
        those already ended, which lie wholly to its left: a G-neighbour or
        a member of its measure part among them raises ``ValueError``.
        Every pair of disjoint intervals meets this test once, when the
        later one starts.  A violation inside any mask F is one inside V,
        so no subproblem is checked again.
        """
        if self._sweep is None:
            n = len(self.intervals)
            ends = sorted([(lo, 0, v) for v, (lo, _) in
                           enumerate(self.intervals)]
                          + [(hi, 1, v) for v, (_, hi) in
                             enumerate(self.intervals)])
            adj, part_of = self.adj_mask, self.part_of
            part_mask = self.part_mask
            pos_lo, pos_hi, item = [0] * n, [0] * n, []
            ended = 0
            for p, (_, is_hi, v) in enumerate(ends):
                if is_hi:
                    pos_hi[v] = p
                    item.append(~v)
                    ended |= 1 << v
                    continue
                if joined := adj[v] & ended:
                    u = (joined & -joined).bit_length() - 1
                    raise ValueError(f"G edge ({u},{v}) joins disjoint "
                                     "intervals")
                if part_mask[part_of[v]] & ended:
                    raise ValueError(f"measure part {part_of[v]} is not an "
                                     "interval clique")
                pos_lo[v] = p
                item.append(v)
            self._sweep = pos_lo, pos_hi, item
        return self._sweep

    def mu_of(self, F: int) -> int:
        """The number of measure parts that meet the mask F."""
        part_of, part_mask = self.part_of, self.part_mask
        count = 0
        while F:
            F &= ~part_mask[part_of[(F & -F).bit_length() - 1]]
            count += 1
        return count

    def strips(self, F: int) -> list[int]:
        """The strips that meet F, cut to F, in strip order."""
        return _split(F, self.strip_of, self.strip_mask)

    def parts(self, F: int) -> list[int]:
        """The measure parts that meet F, cut to F, in part order."""
        return _split(F, self.part_of, self.part_mask)


def _split(F: int, index_of, masks) -> list[int]:
    """F cut by disjoint parts (``index_of`` and ``masks`` as a frame holds
    them for the strips or the measure parts): the nonempty pieces, in part
    order."""
    pieces = []
    while F:
        k = index_of[(F & -F).bit_length() - 1]
        piece = F & masks[k]
        pieces.append((k, piece))
        F ^= piece
    pieces.sort()
    return [piece for _, piece in pieces]


def _running_counts(groups) -> list[int]:
    """The number of distinct keys in each prefix of ``groups``, an iterable
    of iterables of keys: entry k counts those of the first k groups."""
    seen: set = set()
    counts = [0]
    for keys in groups:
        seen.update(keys)
        counts.append(len(seen))
    return counts


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    checked: int
    failure: Optional[str]


def check_measure_axioms(parts, G: Graph, trials: int = 1000,
                         seed: int = 0) -> AxiomReport:
    """Sample random subgraph pairs and test the three measure axioms on
    :meth:`Frame.mu_of` over the part masks, the measure the engine reads.

    (i) monotonicity over nested pairs, (ii) subadditivity over arbitrary
    pairs, (iii) exact additivity over disjoint pairs with no joining edge.
    The report carries the first counterexample found, if any.
    """
    # every vertex shares the point 0, an interval model valid for any G
    mu_of = Frame(G, [(0, 0)] * G.n, parts, parts).mu_of

    def mu(vs) -> int:
        return mu_of(_mask(vs))

    rng = random.Random(seed)
    n = G.n
    verts = list(range(n))
    checked = 0
    for _ in range(trials):
        # (i) nested pair
        b = rng.sample(verts, rng.randint(0, n))
        a = [v for v in b if rng.random() < 0.5]
        if mu(a) > mu(b):
            return AxiomReport(False, checked, f"monotonicity: A={sorted(a)} B={sorted(b)}")
        checked += 1
        # (ii) arbitrary pair
        x = rng.sample(verts, rng.randint(0, n))
        y = rng.sample(verts, rng.randint(0, n))
        if mu(set(x) | set(y)) > mu(x) + mu(y):
            return AxiomReport(False, checked, f"subadditivity: A={sorted(x)} B={sorted(y)}")
        checked += 1
        # (iii) edgeless disjoint split: group components of a random subset
        s = frozenset(rng.sample(verts, rng.randint(0, n)))
        comps = components_within(G.adj, s)
        if len(comps) >= 2:
            rng.shuffle(comps)
            half = len(comps) // 2
            left = frozenset().union(*comps[:half])
            right = frozenset().union(*comps[half:])
            if mu(left | right) != mu(left) + mu(right):
                return AxiomReport(False, checked,
                                   f"additivity: A={sorted(left)} B={sorted(right)}")
            checked += 1
    return AxiomReport(True, checked, None)

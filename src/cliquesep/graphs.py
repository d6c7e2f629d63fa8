"""Graphs, ordered clique covers, the edge-gap length statistic, and restriction measures.

A :class:`Graph` stores its adjacency as int neighbour masks, one per vertex
(bit w of ``adj_mask[v]`` is the edge vw); the geometry builders fill them
directly in their sweeps, and the solvers read nothing else.  Its ``adj``
tuple of frozensets is a view derived on first access, for the oracles, the
tests and the frozenset helpers below (:func:`components_within`,
:func:`check_measure_axioms`); no induced subgraph is ever built.

An ordered clique cover is a plain ordered partition of vertex ids; it holds no
graph.  The separator's auxiliary graph G1 exists only through such a cover,
the ordered strip cover: :func:`cover_length` measures how far the edges of G
reach across its parts, and no G1 graph is ever built.

A restriction measure counts how many parts of a fixed clique partition touch a
vertex set.  It is monotone, subadditive, and exactly additive across edgeless
splits, which is what the separator engine relies on.

A :class:`Frame` holds one instance as the separator engine reads it: vertex
sets are int bitmasks (bit v is vertex v), and the graph (the masks of
:class:`Graph`, shared as they are), the strip cover and the measure are held
as masks over the same ids, so a subproblem is a mask and nothing is
relabelled or rebuilt for it.  Every vertex must lie in a measure part; a
frame refuses a measure cover that misses one with ``ValueError``.  Each
solver context is a frame, built when the context is constructed.
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


@dataclass(frozen=True)
class OrderedCliqueCover:
    """An ordered partition of a vertex set into parts meant to be cliques.

    ``index_of`` maps each vertex to the index of its part.  The cover holds
    no graph: use :func:`verify_clique_cover` to check it against one.
    """

    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))

    @property
    def index_of(self) -> dict[int, int]:
        cached = getattr(self, "_index_of", None)
        if cached is None:
            cached = {}
            for i, p in enumerate(self.parts):
                for v in p:
                    if v in cached:
                        raise ValueError(f"vertex {v} appears in two parts")
                    cached[v] = i
            object.__setattr__(self, "_index_of", cached)
        return cached

    def __len__(self):
        return len(self.parts)


def verify_clique_cover(G: Graph, cover: OrderedCliqueCover, explain: bool = False):
    """True iff the parts are disjoint cliques of G covering all its vertices.

    With ``explain=True`` returns (ok, detail) where detail names the violation.
    """
    seen: set[int] = set()
    for i, part in enumerate(cover.parts):
        for v in part:
            if v < 0 or v >= G.n:
                return (False, f"vertex {v} out of range") if explain else False
            if v in seen:
                return (False, f"vertex {v} in two parts") if explain else False
            seen.add(v)
        members = sorted(part)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                u, w = members[a], members[b]
                if not G.has_edge(u, w):
                    detail = f"part {i}: {u},{w} not adjacent"
                    return (False, detail) if explain else False
    if len(seen) != G.n:
        missing = next(v for v in range(G.n) if v not in seen)
        return (False, f"vertex {missing} uncovered") if explain else False
    return (True, None) if explain else True


@dataclass(frozen=True)
class LengthReport:
    """Maximum part-index gap spanned by an edge; 0 for edgeless graphs."""

    value: int
    witness_edge: Optional[tuple[int, int]]


def cover_length(G: Graph, cover: OrderedCliqueCover) -> LengthReport:
    """max over edges xy of G of |index_of(x) - index_of(y)|.

    The cover may be a clique cover of a supergraph of G (such as G1); every
    vertex of G must be covered.
    """
    idx = cover.index_of
    best = 0
    witness = None
    for u, v in G.edges():
        if u not in idx or v not in idx:
            missing = u if u not in idx else v
            raise ValueError(f"vertex {missing} of G missing from cover")
        gap = abs(idx[u] - idx[v])
        if gap > best or witness is None:
            best = gap
            witness = (u, v)
    # edgeless G still needs the coverage precondition to hold
    if witness is None:
        for v in range(G.n):
            if v not in idx:
                raise ValueError(f"vertex {v} of G missing from cover")
    return LengthReport(best, witness)


@dataclass(frozen=True)
class RestrictionMeasure:
    """mu(F) = number of parts of a fixed clique partition of G touching F."""

    cover: OrderedCliqueCover

    @property
    def part_of(self) -> dict[int, int]:
        return self.cover.index_of

    def of(self, s: Iterable[int]) -> int:
        part_of = self.part_of
        return len({part_of[v] for v in s})

    @property
    def total(self) -> int:
        return len(self.cover.parts)


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


def _indexed(cover: OrderedCliqueCover, n: int) -> tuple[list, list[int]]:
    """Each vertex's part index (None when uncovered) and each part's mask."""
    index_of = cover.index_of
    return [index_of.get(v) for v in range(n)], [_mask(p) for p in cover.parts]


class Frame:
    """What the separator engine reads of one instance, over global ids.

    Holds each vertex's interval (of the chordal supergraph G2; None to skip
    the chordal route), its strip-cover part and its measure part, and as
    int bitmasks the neighbourhood in G of each vertex, the members of each
    strip and measure part, and the vertices outside the strip cover.  A
    subproblem is then just a mask F of vertices: the engine reads the parts
    that meet F off these masks (:meth:`strips`, :meth:`parts`,
    :meth:`mu_of`), and no subgraph or relabelled cover is built per call.
    """

    __slots__ = ("adj_mask", "intervals", "strip_of", "strip_mask",
                 "unstripped", "part_of", "part_mask")

    def __init__(self, G: Graph, intervals, strip_cover: OrderedCliqueCover,
                 mu: RestrictionMeasure):
        if intervals is not None and len(intervals) != G.n:
            raise ValueError("need one interval per vertex of G")
        self.adj_mask = G.adj_mask
        self.intervals = intervals
        self.strip_of, self.strip_mask = _indexed(strip_cover, G.n)
        self.unstripped = _mask(v for v, k in enumerate(self.strip_of)
                                if k is None)
        self.part_of, self.part_mask = _indexed(mu.cover, G.n)
        if None in self.part_of:
            raise ValueError(f"vertex {self.part_of.index(None)} of G "
                             "missing from cover")

    def mu_of(self, F: int) -> int:
        """The number of measure parts that meet the mask F."""
        part_of, part_mask = self.part_of, self.part_mask
        count = 0
        while F:
            F &= ~part_mask[part_of[(F & -F).bit_length() - 1]]
            count += 1
        return count

    def strips(self, F: int) -> list[int]:
        """The strips that meet F, cut to F, in strip order; the members of
        F outside the strip cover are left out."""
        return _split(F & ~self.unstripped, self.strip_of, self.strip_mask)

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


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    checked: int
    failure: Optional[str]


def check_measure_axioms(mu: RestrictionMeasure, G: Graph, trials: int = 1000,
                         seed: int = 0) -> AxiomReport:
    """Sample random subgraph pairs and test the three measure axioms.

    (i) monotonicity over nested pairs, (ii) subadditivity over arbitrary
    pairs, (iii) exact additivity over disjoint pairs with no joining edge.
    The report carries the first counterexample found, if any.
    """
    rng = random.Random(seed)
    n = G.n
    verts = list(range(n))
    checked = 0
    for _ in range(trials):
        # (i) nested pair
        b = rng.sample(verts, rng.randint(0, n))
        a = [v for v in b if rng.random() < 0.5]
        if mu.of(a) > mu.of(b):
            return AxiomReport(False, checked, f"monotonicity: A={sorted(a)} B={sorted(b)}")
        checked += 1
        # (ii) arbitrary pair
        x = rng.sample(verts, rng.randint(0, n))
        y = rng.sample(verts, rng.randint(0, n))
        if mu.of(set(x) | set(y)) > mu.of(x) + mu.of(y):
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
            if mu.of(left | right) != mu.of(left) + mu.of(right):
                return AxiomReport(False, checked,
                                   f"additivity: A={sorted(left)} B={sorted(right)}")
            checked += 1
    return AxiomReport(True, checked, None)

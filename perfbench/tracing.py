"""Spans and counters around the library's layers, patched in from outside.

The library is not edited.  A wrapper must replace a name where the caller
looks it up: ``solvers`` imports the geometry builders, ``separate``,
``induced_subgraph``, ``components_within`` and ``cover_length`` by name,
``chordal`` and ``separator`` do the same for the graph helpers, so those
modules are patched next to the defining ones.  ``separator`` reaches
``chordal.balanced_clique_separator`` through the module and ``chordal``
reaches ``clique_tree`` and friends as module globals; context methods and
geometric predicates are patched on their classes.  Targets missing from the
library are skipped and listed in the trace file.

Spans stay in memory (up to ``MAX_SPANS``) and the caller writes them out at
the end of the run.  A span's inclusive time counts only its outermost
instance; its self time subtracts the inclusive time of its child spans.
Bookkeeping done by a wrapper (recomputing a separator's length statistic)
is timed and removed from every enclosing span.
"""
from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

MAX_SPANS = 100_000

_GRAPH_BUILDERS = ("rect_intersection_graph", "unit_distance_graph")
_AUX_BUILDERS = ("y_overlap_graph", "x_chordal_graph",
                 "strip_adjacency_graph_points", "y_chordal_graph_points")
_COVER_BUILDERS = ("strip_cover_rects", "vertical_strip_cover_points",
                   "greedy_cover_and_is_rects", "quarter_cell_partition",
                   "greedy_disc_cover")
_CANDIDATE_BUILDERS = ("candidate_pierce_points", "candidate_discs")
_SOLVERS = ("mis_ptas", "mis_exact", "pierce_exact", "pierce_ptas",
            "disccover_exact", "disccover_ptas")
_VERIFIERS = ("verify_independent_rects", "verify_piercing", "verify_disc_cover")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = ""
        self.unpatched: list[str] = []
        self._next_id = 1
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._undo: list[tuple] = []
        self.reset()

    def reset(self):
        """Clear the aggregates (not the stored spans) for the next pass."""
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ratio_max = 0.0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][4] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1

    def _exit(self):
        end = time.perf_counter()
        name, start, child, excluded, span_id, parent = self._stack.pop()
        dur = end - start - excluded
        self.self_time[name] += dur - child
        if self._open[name] == 1:
            self.incl[name] += dur
        self._open[name] -= 1
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, start, end, self.request))
        else:
            self.dropped += 1

    def _bookkeep(self, fn, *args):
        start = time.perf_counter()
        fn(*args)
        spent = time.perf_counter() - start
        for frame in self._stack:
            frame[3] += spent

    def span(self, name, fn, inspect=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if inspect is not None:
                tracer._bookkeep(inspect, args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner).get(attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            if label not in self.unpatched:
                self.unpatched.append(label)
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        from cliquesep import chordal, geometry, graphs, instances, separator, solvers

        def spans(modules, names, span_name, inspect=None):
            for module in modules:
                for attr in names:
                    self._patch(module, attr,
                                lambda f: self.span(span_name, f, inspect))

        def counts(owner, names, count_name):
            for attr in names:
                self._patch(owner, attr, lambda f: self.counter(count_name, f))

        geo = (geometry, solvers)
        spans([instances], ["parse"], "instances.parse")
        spans(geo, _GRAPH_BUILDERS, "geometry.graph")
        spans(geo, _AUX_BUILDERS, "geometry.aux_graph")
        spans(geo, _COVER_BUILDERS, "geometry.cover")
        spans(geo, _CANDIDATE_BUILDERS, "geometry.candidates")
        counts(geometry.Rect, ["contains_point"], "geometry.predicate_calls")
        counts(geometry.Disc, ["covers"], "geometry.predicate_calls")

        for cls in ("RectContext", "PointContext", "PierceContext", "CoverContext"):
            if hasattr(solvers, cls):
                spans([getattr(solvers, cls)], ["__init__"], "solvers.context")
        base = getattr(solvers, "_BaseContext", None)
        if base is not None:
            spans([base], ["separate_subset"], "solvers.separate_subset")
            counts(base, ["components"], "solvers.recursion_nodes")
            counts(base, ["neighbors_of_set"], "solvers.selections")
        if hasattr(solvers, "PierceContext"):
            counts(solvers.PierceContext, ["disjoint_lower_bound"], "solvers.bnb_nodes")
        if hasattr(solvers, "CoverContext"):
            counts(solvers.CoverContext, ["scatter_lower_bound"], "solvers.bnb_nodes")
            spans([solvers.CoverContext], ["candidate_covering"],
                  "solvers.candidate_covering")
        counts(solvers, ["helly_point"], "solvers.helly_points")
        spans([solvers], _SOLVERS, "solvers.solve")
        spans([solvers], _VERIFIERS, "solvers.verify")

        spans([graphs, solvers], ["induced_subgraph"], "graphs.induced_subgraph")
        spans([graphs, solvers, chordal], ["components_within"], "graphs.components")
        spans([graphs, solvers, separator], ["cover_length"], "graphs.cover_length")

        spans([chordal], ["balanced_clique_separator"], "chordal.separator",
              self._inspect_clique_separator)
        spans([chordal], ["mcs_order"], "chordal.mcs_order")
        spans([chordal], ["maximal_cliques_chordal"], "chordal.maximal_cliques")
        spans([chordal], ["clique_tree"], "chordal.clique_tree")

        spans([separator, solvers], ["separate"], "separator.separate",
              self._inspect_separator)
        spans([separator], ["length_window_route"], "separator.window_route")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- result inspection (bookkeeping, excluded from span times) -----------

    def _inspect_clique_separator(self, args, result):
        if result is None:
            self.counts["chordal.none"] += 1

    def _inspect_separator(self, args, res):
        self.counts["separator.cost_sum"] += res.cost
        if res.route == "CHORDAL":
            self.counts["separator.chordal_wins"] += 1
        else:
            self.counts["separator.window_wins"] += 1
            if not res.side_a and not res.side_b:
                self.counts["separator.full_window"] += 1
        # cost / sqrt(max(1, l) * mu), with l and mu recomputed here: l is the
        # largest cover-part gap spanned by an edge of G, mu the number of
        # measure parts (the subset's measure).  Reads the arguments of
        # separate(G, g1_cover, G2, mu, ...) as defined at commit a84d35c.
        if len(args) < 4:
            return
        G, g1_cover, mu = args[0], args[1], args[3]
        part = {v: i for i, p in enumerate(g1_cover.parts) for v in p}
        gap = max((abs(part[u] - part[v]) for u in range(G.n) for v in G.adj[u]),
                  default=0)
        measure = sum(1 for p in mu.cover.parts if p)
        if measure:
            self.ratio_max = max(self.ratio_max,
                                 res.cost / math.sqrt(max(1, gap) * measure))

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for the pass traced since the last reset."""
        incl, self_t, calls, counts = self.incl, self.self_time, self.calls, self.counts
        sep_calls = calls["chordal.separator"]
        return {
            "instances.parse_s": incl["instances.parse"],
            "geometry.graph_s": incl["geometry.graph"],
            "geometry.aux_graph_s": incl["geometry.aux_graph"],
            "geometry.cover_s": incl["geometry.cover"],
            "geometry.candidates_s": incl["geometry.candidates"],
            "geometry.predicate_calls": counts["geometry.predicate_calls"],
            "solvers.context_self_s": self_t["solvers.context"],
            "solvers.separate_subset_s": incl["solvers.separate_subset"],
            "solvers.separate_subset_self_s": self_t["solvers.separate_subset"],
            "solvers.recursion_nodes": counts["solvers.recursion_nodes"],
            "solvers.selections": counts["solvers.selections"],
            "solvers.bnb_nodes": counts["solvers.bnb_nodes"],
            "solvers.self_s": self_t["solvers.solve"],
            "solvers.ptas_groups": (calls["solvers.candidate_covering"]
                                    + counts["solvers.helly_points"]),
            "solvers.candidate_covering_s": incl["solvers.candidate_covering"],
            "solvers.verify_s": incl["solvers.verify"],
            "graphs.induced_subgraph_s": incl["graphs.induced_subgraph"],
            "graphs.induced_subgraph_calls": calls["graphs.induced_subgraph"],
            "graphs.components_s": incl["graphs.components"],
            "graphs.components_calls": calls["graphs.components"],
            "graphs.cover_length_s": incl["graphs.cover_length"],
            "chordal.separator_s": incl["chordal.separator"],
            "chordal.separator_calls": sep_calls,
            "chordal.separator_self_s": self_t["chordal.separator"],
            "chordal.mcs_order_s": incl["chordal.mcs_order"],
            "chordal.maximal_cliques_s": incl["chordal.maximal_cliques"],
            "chordal.descent_calls": calls["chordal.clique_tree"],
            "chordal.clique_tree_s": incl["chordal.clique_tree"],
            "chordal.none_ratio": counts["chordal.none"] / sep_calls if sep_calls else 0.0,
            "separator.calls": calls["separator.separate"],
            "separator.s": incl["separator.separate"],
            "separator.self_s": self_t["separator.separate"],
            "separator.window_route_s": incl["separator.window_route"],
            "separator.chordal_wins": counts["separator.chordal_wins"],
            "separator.window_wins": counts["separator.window_wins"],
            "separator.cost_sum": counts["separator.cost_sum"],
            "separator.full_window": counts["separator.full_window"],
            "separator.cost_ratio_max": self.ratio_max,
        }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or name == "separator.s":
        return "s"
    if "ratio" in name:
        return "ratio"
    return "count"

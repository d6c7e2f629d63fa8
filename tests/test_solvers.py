import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliquesep import geometry, instances, oracles, solvers
from cliquesep.geometry import SCALE, PointSite, Rect
from cliquesep.graphs import Graph, _members, components_within
from cliquesep.separator import CHORDAL, LENGTH_WINDOW, check_separator
from cliquesep.solvers import (CoverContext, InfeasibleSolution,
                               PierceContext, PointContext,
                               RectContext, SolveConfig, disccover_exact,
                               disccover_ptas, mis_exact, mis_ptas,
                               pierce_exact, pierce_ptas, separation_profile,
                               verify_disc_cover, verify_independent_rects,
                               verify_piercing)

from candidate_reference import all_discs, brute_discs, first_of_each_mask


def disjoint_rects(k):
    return [Rect(3 * i * SCALE, 3 * i * SCALE + SCALE, 0) for i in range(k)]


def stacked_rects(k):
    """k rectangles through one common point."""
    return [Rect(0, 2 * SCALE, i * SCALE // (2 * k)) for i in range(k)]


class TestMisExact:
    def test_disjoint(self):
        sol = mis_exact(disjoint_rects(5))
        assert sol.value == 5

    def test_common_point(self):
        sol = mis_exact(stacked_rects(6))
        assert sol.value == 1

    def test_matches_oracle_on_random_instances(self):
        for seed in range(30):
            inst = instances.generate("rects", 6 + seed % 12, seed,
                                      ["uniform", "clustered"][seed % 2])
            ctx = RectContext(inst.items)
            sol = mis_exact(inst.items, ctx=ctx)
            assert verify_independent_rects(list(inst.items), sol.chosen)
            assert sol.value == oracles.brute_mis(oracles.rect_graph(inst.items))[0]

    def test_chosen_set_is_independent(self):
        inst = instances.generate("rects", 40, 99)
        sol = mis_exact(inst.items)
        assert verify_independent_rects(list(inst.items), sol.chosen)

    def test_deterministic_witness(self):
        inst = instances.generate("rects", 25, 5)
        a = mis_exact(inst.items)
        b = mis_exact(inst.items)
        assert a.chosen == b.chosen

    def test_long_chain(self):
        # a path of 1,200 rectangles: each separator must be a single clique,
        # or the separator-guided enumeration blows up
        inst = instances.generate("rects", 1200, 1, "chain")
        sol = mis_exact(inst.items)
        assert sol.value == 600


class TestMisPtas:
    def test_leaf_fires_on_disjoint_cliques(self):
        rects = stacked_rects(3) + [Rect(9 * SCALE, 11 * SCALE, 0),
                                    Rect(9 * SCALE, 11 * SCALE, SCALE // 4)]
        sol = mis_ptas(rects, SolveConfig(epsilon=0.5))
        assert sol.value == 2

    def test_bound_against_oracle(self):
        for seed in range(20):
            inst = instances.generate("rects", 6 + seed % 12, 100 + seed)
            ctx = RectContext(inst.items)
            opt = oracles.brute_mis(oracles.rect_graph(inst.items))[0]
            for eps in (0.1, 0.3, 0.5):
                sol = mis_ptas(inst.items, SolveConfig(epsilon=eps), ctx=ctx)
                assert verify_independent_rects(list(inst.items), sol.chosen)
                assert sol.value >= math.ceil((1 - eps) * opt)
                assert sol.value <= opt

    def test_requires_epsilon(self):
        with pytest.raises(ValueError):
            mis_ptas(disjoint_rects(2), SolveConfig())


class TestPierceExact:
    def test_disjoint(self):
        sol = pierce_exact(disjoint_rects(4))
        assert sol.value == 4

    def test_common_point(self):
        assert pierce_exact(stacked_rects(5)).value == 1

    def test_matches_oracle_on_random_instances(self):
        for seed in range(30):
            inst = instances.generate("rects", 5 + seed % 9, 200 + seed,
                                      ["uniform", "clustered"][seed % 2])
            sol = pierce_exact(inst.items)
            assert verify_piercing(list(inst.items), sol.points)
            assert sol.value == oracles.brute_pierce(inst.items)[0]

    def test_empty_instance(self):
        assert pierce_exact([]).value == 0


class TestPiercePtas:
    def test_single_clique(self):
        sol = pierce_ptas(stacked_rects(4), SolveConfig(epsilon=0.3))
        assert sol.value == 1

    def test_disjoint_cliques_exact(self):
        rects = []
        for g in range(3):
            rects += [Rect(g * 5 * SCALE, g * 5 * SCALE + SCALE,
                           i * SCALE // 8) for i in range(3)]
        sol = pierce_ptas(rects, SolveConfig(epsilon=0.3))
        assert sol.value == 3

    def test_bound_against_oracle(self):
        for seed in range(20):
            inst = instances.generate("rects", 5 + seed % 9, 300 + seed)
            opt = oracles.brute_pierce(inst.items)[0]
            for eps in (0.3, 0.5):
                sol = pierce_ptas(inst.items, SolveConfig(epsilon=eps))
                assert verify_piercing(list(inst.items), sol.points)
                assert opt <= sol.value <= math.floor((1 + eps) * opt)


class TestDiscCoverExact:
    def test_far_points(self):
        pts = [PointSite(4 * i * SCALE, 0) for i in range(4)]
        assert disccover_exact(pts).value == 4

    def test_tight_cluster(self):
        pts = [PointSite(i * SCALE // 10, i * SCALE // 10) for i in range(4)]
        assert disccover_exact(pts).value == 1

    def test_matches_oracle_on_random_instances(self):
        for seed in range(30):
            inst = instances.generate("points", 4 + seed % 7, 400 + seed,
                                      ["uniform", "clustered"][seed % 2])
            sol = disccover_exact(inst.items)
            assert verify_disc_cover(list(inst.items), sol.discs)
            assert sol.value == oracles.brute_disccover(inst.items)[0]

    def test_duplicate_points(self):
        inst = instances.parse("cliquesep-instance v1\nkind points\n"
                               "point 0 0\npoint 0 0\npoint 0.7 0\n"
                               "point 3 0\npoint 3 0\n")
        opt = oracles.brute_disccover(inst.items)[0]
        sol = disccover_exact(inst.items)
        assert verify_disc_cover(list(inst.items), sol.discs)
        assert sol.value == opt == 2
        for eps in (0.3, 0.5):
            sol = disccover_ptas(inst.items, SolveConfig(epsilon=eps))
            assert verify_disc_cover(list(inst.items), sol.discs)
            assert opt <= sol.value <= math.floor((1 + eps) * opt)

    def test_discs_come_from_candidate_set(self):
        inst = instances.generate("points", 9, 77)
        ctx = CoverContext(inst.items)
        sol = disccover_exact(inst.items, ctx=ctx)
        keys = {d.key() for d in ctx.candidates}
        assert all(d.key() in keys for d in sol.discs)


class TestDiscCoverPtas:
    def test_single_cluster(self):
        pts = [PointSite(i * SCALE // 20, 0) for i in range(5)]
        sol = disccover_ptas(pts, SolveConfig(epsilon=0.5))
        assert sol.value == 1

    def test_far_clusters_exact(self):
        pts = []
        for g in range(3):
            pts += [PointSite(g * 6 * SCALE + i * SCALE // 20, 0)
                    for i in range(3)]
        sol = disccover_ptas(pts, SolveConfig(epsilon=0.3))
        assert sol.value == 3

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP open item 1: on half-unit lattices the separator's retire "
        "cost is not small next to OPT of the subproblem"))
    @pytest.mark.parametrize("w, h", [(7, 5), (8, 5), (7, 6)])
    def test_bound_on_half_unit_lattices(self, w, h):
        pts = [PointSite((i % w) * SCALE // 2, (i // w) * SCALE // 2)
               for i in range(w * h)]
        opt = disccover_exact(pts).value
        sol = disccover_ptas(pts, SolveConfig(epsilon=0.5))
        assert verify_disc_cover(pts, sol.discs)
        assert sol.value <= math.floor(1.5 * opt), (sol.value, opt)

    def test_bound_against_oracle(self):
        for seed in range(20):
            inst = instances.generate("points", 4 + seed % 7, 500 + seed)
            opt = oracles.brute_disccover(inst.items)[0]
            for eps in (0.3, 0.5):
                sol = disccover_ptas(inst.items, SolveConfig(epsilon=eps))
                assert verify_disc_cover(list(inst.items), sol.discs)
                assert opt <= sol.value <= math.floor((1 + eps) * opt)


FAR = 10 ** 12 * SCALE  # 10^12 units

# rectangle families: (rects of n, the optimum of both MIS and piercing)
DEGENERATE_RECTS = {
    "identical": (lambda n: [Rect(0, SCALE, 0)] * n, lambda n: 1),
    # one x-extent: G2 is complete, and its one clique leaves no side
    "stacked": (lambda n: [Rect(0, 2 * SCALE, i * SCALE // 2)
                           for i in range(n)], lambda n: -(-n // 3)),
    "staircase": (lambda n: [Rect(i * SCALE // 2, i * SCALE // 2 + SCALE,
                                  i * SCALE // 2) for i in range(n)],
                  lambda n: -(-n // 3)),
    # near (10^12, -10^12), x steps of 1/3 and bottoms 0, 1/2 and 1 above
    # -10^12: rects i and j meet iff |i - j| <= 3, and the line 1 above
    # -10^12 crosses every one
    "far": (lambda n: [Rect(FAR + i * SCALE // 3,
                            FAR + i * SCALE // 3 + SCALE,
                            -FAR + i % 3 * SCALE // 2) for i in range(n)],
            lambda n: -(-n // 4)),
}

# point families: (points of n, the optimum disc cover); a unit-diameter
# disc holds at most three points of each, and three in a row fit one
DEGENERATE_POINTS = {
    "horizontal": (lambda n: [PointSite(i * SCALE // 2, 0) for i in range(n)],
                   lambda n: -(-n // 3)),
    "vertical": (lambda n: [PointSite(0, i * SCALE // 2) for i in range(n)],
                 lambda n: -(-n // 3)),
    "far": (lambda n: [PointSite(FAR + i * SCALE // 3,
                                 -FAR + i % 2 * SCALE // 2)
                       for i in range(n)], lambda n: -(-n // 3)),
}


def read_back(kind, items):
    """``items`` as :func:`instances.parse` reads them from their
    serialized instance."""
    inst = instances.Instance(kind, tuple(items))
    back = instances.parse(instances.serialize(inst))
    assert back.items == inst.items
    return list(back.items)


class TestDegenerateInputs:
    """Inputs where the interval model degenerates and clique ties abound,
    parsed, solved by all six solvers and verified: the exact values match
    the closed-form optimum, and the oracles where n fits their caps, and
    each PTAS stays within its bound of the exact value."""

    @pytest.mark.parametrize("n", [12, 60, 200])
    @pytest.mark.parametrize("family", sorted(DEGENERATE_RECTS))
    def test_rect_solvers(self, family, n):
        build, opt = DEGENERATE_RECTS[family]
        rects = read_back("rects", build(n))
        mis, pierce = mis_exact(rects), pierce_exact(rects)
        assert verify_independent_rects(rects, mis.chosen)
        assert verify_piercing(rects, pierce.points)
        assert mis.value == pierce.value == opt(n)
        if n <= 14:
            assert mis.value == oracles.brute_mis(oracles.rect_graph(rects))[0]
            assert pierce.value == oracles.brute_pierce(rects)[0]
        for eps in (0.3, 0.5):
            cfg = SolveConfig(epsilon=eps)
            sol = mis_ptas(rects, cfg)
            assert verify_independent_rects(rects, sol.chosen)
            assert math.ceil((1 - eps) * mis.value) <= sol.value <= mis.value
            sol = pierce_ptas(rects, cfg)
            assert verify_piercing(rects, sol.points)
            assert pierce.value <= sol.value <= math.floor(
                (1 + eps) * pierce.value)

    @pytest.mark.parametrize("n", [10, 60, 200])
    @pytest.mark.parametrize("family", sorted(DEGENERATE_POINTS))
    def test_point_solvers(self, family, n):
        build, opt = DEGENERATE_POINTS[family]
        points = read_back("points", build(n))
        exact = disccover_exact(points)
        assert verify_disc_cover(points, exact.discs)
        assert exact.value == opt(n)
        if n <= 10:
            assert exact.value == oracles.brute_disccover(points)[0]
        for eps in (0.3, 0.5):
            sol = disccover_ptas(points, SolveConfig(epsilon=eps))
            assert verify_disc_cover(points, sol.discs)
            assert exact.value <= sol.value <= math.floor(
                (1 + eps) * exact.value)


class TestCandidateContexts:
    def test_inverse_maps_and_covering_pick(self):
        for seed, style in enumerate(["uniform", "clustered", "chain"]):
            inst = instances.generate("points", 60, 700 + seed, style)
            ctx = CoverContext(inst.items)
            masks = ctx.disc_points
            assert ctx.point_discs == [
                tuple(c for c, m in enumerate(masks) if m >> i & 1)
                for i in range(len(ctx.points))]
            for mask in masks:
                for group in sub_masks(mask):
                    first = next(c for c, m in enumerate(masks)
                                 if not group & ~m)
                    assert ctx.candidate_covering(group) == first
            inst = instances.generate("rects", 60, 700 + seed, style)
            ctx = PierceContext(inst.items)
            assert ctx.rect_points == [
                tuple(c for c, m in enumerate(ctx.point_rects) if m >> i & 1)
                for i in range(len(ctx.rects))]

    def test_contexts_build_only_what_solvers_read(self, monkeypatch):
        calls = {"rect_intersection_graph": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, counting(name, fn))
            # solvers looks builders up by name; it may not import this one
            monkeypatch.setattr(solvers, name, counting(name, fn),
                                raising=False)
        for cls in (RectContext, PierceContext):
            calls["rect_intersection_graph"] = 0
            cls(instances.generate("rects", 80, 31).items)
            assert calls["rect_intersection_graph"] == 1

    def test_disc_candidates_and_check_use_no_fraction_arithmetic(
            self, monkeypatch):
        # candidates are keyed, sorted and tested on integers, and the
        # check's cell bounds are integer floor divisions: no Fraction is
        # hashed, ordered or used in + - * / on the way
        def no_fraction(*args):
            raise AssertionError("Fraction arithmetic in the disc-cover path")

        points = instances.generate("points", 200, 36).items
        for name in ("__hash__", "__lt__", "__le__", "__gt__", "__ge__",
                     "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, no_fraction)
        with pytest.raises(AssertionError, match="Fraction arithmetic"):
            Fraction(1, 2) + 1  # the patch is live
        ctx = CoverContext(points)
        assert verify_disc_cover(ctx.points, ctx.candidates)

    def test_solvers_read_only_neighbour_masks(self, monkeypatch):
        # the frozenset view of G is for oracles and tests; no solve builds
        # it, and no solve turns a vertex mask into a frozenset
        def no_view(G):
            raise AssertionError("a solver built the Graph.adj view")

        def no_members(mask):
            raise AssertionError("a solver converted a mask to a frozenset")

        monkeypatch.setattr(Graph, "adj", property(no_view))
        for module in (geometry, solvers):
            monkeypatch.setattr(module, "_members", no_members, raising=False)
        cfg = SolveConfig(epsilon=0.5)
        for style in ("uniform", "clustered", "chain"):
            # the PTAS inputs are large enough to split above the leaves
            rects = instances.generate("rects", 60, 33, style).items
            many_rects = instances.generate("rects", 300, 33, style).items
            pts = instances.generate("points", 40, 34, style).items
            many_pts = instances.generate("points", 150, 34, style).items
            mis_exact(rects, ctx=RectContext(rects))
            mis_ptas(many_rects, cfg, ctx=RectContext(many_rects))
            pierce = [PierceContext(rects), PierceContext(many_rects)]
            pierce_exact(rects, ctx=pierce[0])
            pierce_ptas(many_rects, cfg, ctx=pierce[1])
            cover = [CoverContext(pts), CoverContext(many_pts)]
            disccover_exact(pts, ctx=cover[0])
            disccover_ptas(many_pts, cfg, ctx=cover[1])
            masks = [m for ctx in pierce for m in ctx.point_rects]
            masks += [m for ctx in cover for m in ctx.disc_points]
            assert all(type(m) is int for m in masks)


def full_list_context(cls, items):
    """A context searching the builder's whole candidate list, equal masks
    and all, as the reference for the deduplicated one."""
    ctx = cls(items)
    if cls is CoverContext:
        ctx.candidates, ctx.disc_points = all_discs(ctx.points)
        masks, n = ctx.disc_points, len(ctx.points)
    else:
        ctx.candidates, ctx.point_rects = oracles.pierce_grid(ctx.rects)
        masks, n = ctx.point_rects, len(ctx.rects)
    holders = [tuple(c for c, m in enumerate(masks) if m >> i & 1)
               for i in range(n)]
    if cls is CoverContext:
        ctx.point_discs = holders
    else:
        ctx.rect_points = holders
    return ctx


def sub_masks(mask):
    """The mask, its lowest item alone and its two highest items."""
    ids = solvers._ids(mask)
    return {mask, solvers._mask(ids[:1]), solvers._mask(ids[-2:])}


# small coordinates in quarter units, so that items overlap, touch and repeat
QUARTER = st.integers(0, 12).map(lambda k: k * SCALE // 4)
SMALL_RECT = st.builds(lambda x, w, y: Rect(x, x + w, y), QUARTER,
                       st.integers(1, 8).map(lambda k: k * SCALE // 4), QUARTER)
SMALL_POINT = st.builds(PointSite, QUARTER, QUARTER)
LINE_POINT = st.builds(PointSite, QUARTER, st.just(0))  # collinear
# twentieths of a unit: fewer coincidences than the quarter lattice
FINE = st.integers(0, 80).map(lambda k: k * SCALE // 20)
FINE_RECT = st.builds(lambda x, w, y: Rect(x, x + w, y), FINE,
                      st.integers(4, 40).map(lambda k: k * SCALE // 20), FINE)
FINE_POINT = st.builds(PointSite, FINE, FINE)


class TestCoveringSearch:
    def test_clustered_disc_cover_ptas_finishes(self):
        # measure 24 in two components, below the leaf threshold 32 at
        # eps 0.5: the whole instance goes to the exact branch-and-bound,
        # which a weak packing bound cannot cut (it ran for minutes)
        inst = instances.generate("points", 60, 5, "clustered")
        ctx = CoverContext(inst.items)
        evaluations = 0
        bound = ctx.scatter_lower_bound

        def counting(*args):
            nonlocal evaluations
            evaluations += 1
            assert evaluations <= 15_000, "branch-and-bound is not being cut"
            return bound(*args)

        ctx.scatter_lower_bound = counting
        sol = disccover_ptas(inst.items, SolveConfig(epsilon=0.5), ctx=ctx)
        assert sol.value == 8
        assert verify_disc_cover(list(inst.items), sol.discs)

    def test_one_candidate_per_mask_side_by_side(self):
        for seed in range(3):
            for style in ("uniform", "clustered", "chain"):
                pts = instances.generate("points", 40, 800 + seed, style).items
                ctx, ref = CoverContext(pts), full_list_context(CoverContext, pts)
                first = first_of_each_mask(ref.candidates, ref.disc_points)
                assert ctx.disc_points == list(first)
                assert ctx.candidates == list(first.values())
                for mask in ref.disc_points:
                    for group in sub_masks(mask):
                        assert ctx.candidates[ctx.candidate_covering(group)] == \
                            ref.candidates[ref.candidate_covering(group)]
                assert disccover_exact(pts, ctx=ctx) == disccover_exact(pts, ctx=ref)
                cfg = SolveConfig(epsilon=0.3)
                assert disccover_ptas(pts, cfg, ctx=ctx) == \
                    disccover_ptas(pts, cfg, ctx=ref)

                rects = instances.generate("rects", 40, 800 + seed, style).items
                ctx, ref = PierceContext(rects), full_list_context(PierceContext, rects)
                first = first_of_each_mask(ref.candidates, ref.point_rects)
                assert ctx.point_rects == list(first)
                assert ctx.candidates == list(first.values())
                assert pierce_exact(rects, ctx=ctx) == pierce_exact(rects, ctx=ref)
                assert pierce_ptas(rects, cfg, ctx=ctx) == \
                    pierce_ptas(rects, cfg, ctx=ref)

    @settings(deadline=None)
    @given(st.lists(SMALL_RECT, min_size=1, max_size=10), st.data())
    def test_packing_bound_below_piercing_optimum(self, rects, data):
        rects += data.draw(st.lists(st.sampled_from(rects), max_size=3))
        ctx = PierceContext(rects)
        F = frozenset(data.draw(st.sets(st.sampled_from(range(len(rects))),
                                        min_size=1)))
        opt = oracles.brute_pierce([rects[i] for i in sorted(F)])[0]
        F, need = solvers._mask(F), len(F) + 1
        assert ctx.independent_lower_bound(F, need) <= opt
        assert ctx.disjoint_lower_bound(F, need) <= opt

    @settings(deadline=None)
    @given(st.lists(st.one_of(SMALL_POINT, LINE_POINT), min_size=1, max_size=7),
           st.data())
    def test_packing_bound_below_disc_cover_optimum(self, pts, data):
        pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))
        ctx = CoverContext(pts)
        F = frozenset(data.draw(st.sets(st.sampled_from(range(len(pts))),
                                        min_size=1)))
        opt = oracles.brute_disccover([pts[i] for i in sorted(F)])[0]
        F, need = solvers._mask(F), len(F) + 1
        assert ctx.independent_lower_bound(F, need) <= opt
        assert ctx.scatter_lower_bound(F, need) <= opt

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(["rects", "points"]), st.data())
    def test_exact_covers_match_brute_force(self, kind, data):
        # base_threshold=1 splits every node of measure above 1, so the
        # search runs on separators with the sides left to the recursion
        if kind == "rects":
            items = data.draw(st.lists(st.one_of(SMALL_RECT, FINE_RECT),
                                       min_size=1, max_size=10))
            items += data.draw(st.lists(st.sampled_from(items), max_size=4))
            ctx, solve = PierceContext(items), pierce_exact
            opt = oracles.brute_pierce(items)[0]
        else:
            items = data.draw(st.lists(
                st.one_of(SMALL_POINT, LINE_POINT, FINE_POINT),
                min_size=1, max_size=7))
            items += data.draw(st.lists(st.sampled_from(items), max_size=3))
            ctx, solve = CoverContext(items), disccover_exact
            opt = oracles.brute_disccover(items)[0]
        for t0 in (SolveConfig().base_threshold, 1):
            # each solver raises InfeasibleSolution on an answer that misses
            assert solve(items, SolveConfig(base_threshold=t0),
                         ctx=ctx).value == opt, t0


def staircase(k, step, width, rise):
    return [Rect(i * step, i * step + width, i * rise) for i in range(k)]


QUARTERS = st.integers(1, 8).map(lambda k: k * SCALE // 4)
MIS_INPUTS = st.one_of(
    st.lists(SMALL_RECT, min_size=1, max_size=20),               # lattice
    st.builds(lambda r, k: [r] * k, SMALL_RECT, st.integers(1, 12)),  # identical
    st.builds(staircase, st.integers(1, 16), QUARTERS, QUARTERS,
              st.integers(0, 4).map(lambda k: k * SCALE // 4)))


def tree_nodes(ctx, t0=1):
    """Every (node, separator) pair of the separator tree of ``ctx``."""
    nodes = []
    separation_profile(ctx, t0, validator=lambda F, res: nodes.append((F, res)))
    return nodes


class TestSeparatorTree:
    @pytest.mark.parametrize("solve, context", [
        (mis_exact, RectContext),
        (pierce_exact, PierceContext),
        (disccover_exact, CoverContext),
    ])
    def test_exact_solvers_separate_each_tree_node_once(self, solve, context,
                                                         monkeypatch):
        calls = 0
        separate_subset = context.separate_subset

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return separate_subset(self, *args, **kwargs)

        monkeypatch.setattr(context, "separate_subset", counting)
        cfg = SolveConfig()
        for seed in (1, 2, 3):
            items = instances.generate(context.kind, 120, seed).items
            ctx = context(items)
            nodes = len(separation_profile(ctx, cfg.base_threshold))
            calls = 0
            solve(items, cfg, ctx=ctx)
            assert 0 < calls <= nodes, seed

    @settings(deadline=None)
    @given(st.sampled_from(["rects", "points"]), st.data())
    def test_restricted_separator_meets_the_contract(self, kind, data):
        if kind == "rects":
            items = data.draw(st.lists(SMALL_RECT, min_size=2, max_size=16))
        else:
            items = data.draw(st.lists(st.one_of(SMALL_POINT, LINE_POINT),
                                       min_size=2, max_size=16))
        items += data.draw(st.lists(st.sampled_from(items), max_size=4))
        ctx = RectContext(items) if kind == "rects" else PointContext(items)
        nodes = tree_nodes(ctx)
        if not nodes:
            return
        node, _ = data.draw(st.sampled_from(nodes))
        cut = ctx.separate_subset(node)
        sub = data.draw(st.sets(st.sampled_from(solvers._ids(node)),
                                min_size=1))
        F = data.draw(st.sampled_from(ctx.components(solvers._mask(sub))))
        r = solvers._restricted_separator(cut, F)
        problems = check_separator(ctx, r, F,
                                   points=getattr(ctx, "points", None))
        assert [p for p in problems if "2/3" not in p] == []
        assert all(r.units)

    @settings(deadline=None)
    @given(MIS_INPUTS, st.data())
    def test_mis_exact_matches_brute_force(self, rects, data):
        rects += data.draw(st.lists(st.sampled_from(rects), max_size=4))
        rects = rects[:24]
        ctx = RectContext(rects)
        opt = oracles.brute_mis(oracles.rect_graph(rects))[0]
        for t0 in (1, 4):
            sol = mis_exact(rects, SolveConfig(base_threshold=t0), ctx=ctx)
            assert verify_independent_rects(rects, sol.chosen)
            assert sol.value == opt, t0


class TestRetire:
    """The PTAS pays for a separator through ``retire``, one covering
    candidate per group of a unit: per unit one corner-grid point when
    piercing, and at most one disc for a measure part or four for a chordal
    unit when covering by discs."""

    @pytest.mark.parametrize("style", ["uniform", "clustered", "chain"])
    def test_pierce_retire_pays_one_point_per_unit(self, style):
        ctx = PierceContext(instances.generate("rects", 150, 41, style).items)
        nodes = tree_nodes(ctx)
        assert nodes
        for _, cut in nodes:
            points, hit = ctx.retire(cut)
            assert len(points) == len(cut.units)
            for p, members in zip(points, cut.units):
                assert all(ctx.rects[i].contains_point(p.x, p.y)
                           for i in solvers._ids(members))
            assert cut.s & ~hit == 0

    @settings(deadline=None)
    @given(st.lists(SMALL_RECT, min_size=1, max_size=12),
           st.lists(st.integers(0, 11), max_size=4))
    @example([Rect(0, SCALE, 0), Rect(SCALE, 2 * SCALE, SCALE)], [0])
    def test_clique_corner_is_a_covering_candidate(self, rects, copies):
        # the rects drawn first that meet every one kept before them, plus
        # copies of kept ones: a pairwise-intersecting family (closed sets,
        # so touching edges and corners meet) inside a larger list
        family = []
        for i, r in enumerate(rects):
            if all(r.intersects(rects[j]) for j in family):
                family.append(i)
        extra = [rects[family[k % len(family)]] for k in copies]
        family += range(len(rects), len(rects) + len(extra))
        rects = rects + extra
        x = min(rects[i].x_hi for i in family)
        y = min(rects[i].y_hi for i in family)
        assert all(rects[i].contains_point(x, y) for i in family)
        ctx = PierceContext(rects)
        mask = solvers._mask(family)
        c = ctx.candidate_covering(mask)
        assert not mask & ~ctx.point_rects[c]
        p = ctx.candidates[c]
        assert all(rects[i].contains_point(p.x, p.y) for i in family)

    @pytest.mark.parametrize("style", ["uniform", "clustered", "chain"])
    def test_cover_retire_pays_per_route(self, style):
        ctx = CoverContext(instances.generate("points", 150, 42, style).items)
        routes = set()
        for _, cut in tree_nodes(ctx):
            routes.add(cut.route)
            discs, hit = ctx.retire(cut)
            per_unit = 1 if cut.route == LENGTH_WINDOW else 4
            assert len(discs) <= per_unit * len(cut.units)
            assert cut.s & ~hit == 0
        assert CHORDAL in routes


class TestInfeasibleSolution:
    """Every solver re-checks its answer and raises a typed error when the
    check fails."""

    @pytest.mark.parametrize("solve, verifier, kind", [
        (mis_exact, "verify_independent_rects", "rects"),
        (mis_ptas, "verify_independent_rects", "rects"),
        (pierce_exact, "verify_piercing", "rects"),
        (pierce_ptas, "verify_piercing", "rects"),
        (disccover_exact, "verify_disc_cover", "points"),
        (disccover_ptas, "verify_disc_cover", "points"),
    ])
    def test_failed_check_raises(self, solve, verifier, kind, monkeypatch):
        items = instances.generate(kind, 12, 3).items
        monkeypatch.setattr(solvers, verifier, lambda *args: False)
        with pytest.raises(InfeasibleSolution, match=solve.__name__):
            solve(items, SolveConfig(epsilon=0.5))

    def test_uncoverable_group_raises(self):
        # with point 0 dropped from every candidate's mask, no candidate
        # covers the group {0}
        ctx = CoverContext(instances.generate("points", 30, 3).items)
        assert ctx.candidate_covering(1) == ctx.point_discs[0][0]
        ctx.disc_points = [m & ~1 for m in ctx.disc_points]
        with pytest.raises(InfeasibleSolution, match="no candidate disc"):
            ctx.candidate_covering(1)

    def test_uncoverable_rect_group_raises(self):
        # with rectangle 0 dropped from every candidate's mask, no candidate
        # pierces the group {0}
        ctx = PierceContext(instances.generate("rects", 30, 3).items)
        assert ctx.candidate_covering(1) == ctx.rect_points[0][0]
        ctx.point_rects = [m & ~1 for m in ctx.point_rects]
        with pytest.raises(InfeasibleSolution, match="no candidate point"):
            ctx.candidate_covering(1)


class TestBitmaskSets:
    """``_divide`` holds vertex sets as int bitmasks (bit v is item v)."""

    @settings(deadline=None)
    @given(st.sampled_from(["rects", "points"]), st.data())
    def test_components_match_components_within(self, kind, data):
        if kind == "rects":
            items = data.draw(st.lists(SMALL_RECT, min_size=1, max_size=24))
        else:
            items = data.draw(st.lists(st.one_of(SMALL_POINT, LINE_POINT),
                                       min_size=1, max_size=24))
        ctx = RectContext(items) if kind == "rects" else PointContext(items)
        sub = data.draw(st.sets(st.integers(0, len(items) - 1)))
        comps = ctx.components(solvers._mask(sub))
        assert [_members(c) for c in comps] == \
            components_within(ctx.G.adj, frozenset(sub))
        assert ctx.mu_of(solvers._mask(sub)) == \
            len({ctx.part_of[v] for v in sub})

    # sha256 of the sorted chosen sets of the sweep below, recorded while the
    # recursion still held its vertex sets as frozensets
    MIS_SWEEP_SHA256 = ("cb31d0430a5c52faa4931aa0450ccf58"
                        "f179eec7831f3f937cd97f6ff63360d3")

    def test_mis_chosen_sets_are_pinned(self):
        h = hashlib.sha256()
        for style in ("uniform", "clustered", "chain"):
            for n in (40, 90, 150):
                for seed in range(3):
                    items = instances.generate("rects", n, seed, style).items
                    ctx = RectContext(items)
                    sols = [mis_exact(items, ctx=ctx)]
                    sols += [mis_ptas(items, SolveConfig(epsilon=e), ctx=ctx)
                             for e in (0.3, 0.5)]
                    for sol in sols:
                        h.update(repr(sorted(sol.chosen)).encode())
        assert h.hexdigest() == self.MIS_SWEEP_SHA256

    # sha256 of the chosen point lists of the sweep below, recorded when
    # the PTAS began to pay each separator unit with the first candidate
    # point piercing it instead of a point built per unit: the exact picks
    # stayed, 36 PTAS picks moved at equal value and 3 (uniform n=150,
    # eps 0.5, seeds 2, 3 and 5) took one point fewer.  Exact and eps 0.3
    # stop at n=90, as when n=150 took them over a minute together.
    PIERCE_SWEEP_SHA256 = ("c737cf30f3ad908220d1798ce0330fba"
                           "1856bb39ba4c76a7460dea0c274bb01e")

    def test_pierce_chosen_points_are_pinned(self):
        h = hashlib.sha256()
        for style in ("uniform", "clustered", "chain"):
            for n in (40, 90, 150):
                for seed in range(10):
                    items = instances.generate("rects", n, seed, style).items
                    ctx = PierceContext(items)
                    sols = [pierce_ptas(items, SolveConfig(epsilon=0.5), ctx=ctx)]
                    if n < 150:
                        sols += [pierce_exact(items, ctx=ctx),
                                 pierce_ptas(items, SolveConfig(epsilon=0.3),
                                             ctx=ctx)]
                    for sol in sols:
                        h.update(repr(sol.points).encode())
        assert h.hexdigest() == self.PIERCE_SWEEP_SHA256

    # sha256 of the chosen disc lists of the sweep below, recorded while the
    # candidate masks and the covering branch-and-bound were frozensets
    DISC_SWEEP_SHA256 = ("22fae6edd43cba7b31944e02f0a906e5"
                         "583346accc2811ccf7fb916c85bd90d1")

    def test_disc_chosen_discs_are_pinned(self):
        h = hashlib.sha256()
        for style in ("uniform", "clustered", "chain"):
            for n in (40, 90):
                for seed in range(10):
                    items = instances.generate("points", n, seed, style).items
                    ctx = CoverContext(items)
                    sols = [disccover_exact(items, ctx=ctx)]
                    sols += [disccover_ptas(items, SolveConfig(epsilon=e),
                                            ctx=ctx)
                             for e in (0.3, 0.5)]
                    for sol in sols:
                        h.update(repr(sol.discs).encode())
        assert h.hexdigest() == self.DISC_SWEEP_SHA256


class TestVerifyIndependentRects:
    def test_touching_rects_intersect(self):
        a = Rect(0, SCALE, 0)
        assert not verify_independent_rects([a, Rect(SCALE, 2 * SCALE, 0)], {0, 1})
        assert not verify_independent_rects([a, Rect(0, SCALE, SCALE)], {0, 1})
        assert not verify_independent_rects([a, Rect(0, SCALE, -SCALE)], {0, 1})
        assert verify_independent_rects([a, Rect(0, SCALE, SCALE + 1)], {0, 1})
        assert verify_independent_rects([a, Rect(SCALE + 1, 3 * SCALE, 0)], {0, 1})

    @settings(deadline=None)
    @given(st.lists(SMALL_RECT, min_size=1, max_size=30), st.data())
    def test_matches_pairwise_definition(self, rects, data):
        chosen = data.draw(st.sets(st.integers(0, len(rects) - 1)))
        ids = sorted(chosen)
        pairwise = not any(rects[a].intersects(rects[b])
                           for i, a in enumerate(ids) for b in ids[i + 1:])
        assert verify_independent_rects(rects, chosen) == pairwise


class TestVerifyPiercing:
    @settings(deadline=None)
    @given(st.lists(SMALL_RECT, max_size=20), st.data())
    def test_matches_all_pairs_check(self, rects, data):
        # lattice points, and corners a tick either side of an edge
        corners = [PointSite(x + dx, y + dy) for r in rects
                   for x in (r.x_lo, r.x_hi) for y in (r.y_lo, r.y_hi)
                   for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        near = st.sampled_from(corners) if corners else SMALL_POINT
        points = data.draw(st.lists(st.one_of(SMALL_POINT, LINE_POINT, near),
                                    max_size=12))
        all_pairs = all(any(r.contains_point(p.x, p.y) for p in points)
                        for r in rects)
        assert verify_piercing(rects, points) == all_pairs


def reference_centre_cells(d):
    """``solvers._centre_cells`` in Fraction arithmetic: the bounds s/rd
    and (s+1)/rd on sqrt(r), and the floor of each coordinate's bounds over
    SCALE."""
    rn, rd = d.r.numerator, d.r.denominator
    s = math.isqrt(rn * rd)
    lo, hi = Fraction(s, rd), Fraction(s + 1, rd)

    def cells(a, b):
        ends = (a + b * lo, a + b * hi)
        return range(math.floor(min(ends) / SCALE),
                     math.floor(max(ends) / SCALE) + 1)

    return [(x, y) for x in cells(d.ax, d.bx) for y in cells(d.ay, d.by)]


class TestVerifyDiscCover:
    # negative and far lattice points, so centres fall on and across cell
    # lines; a fifth-unit lattice adds 3-4-5 unit distances
    POINT = st.builds(lambda x, y, k, far: PointSite(x * SCALE // k + far,
                                                     y * SCALE // k - far),
                      st.integers(-6, 6), st.integers(-6, 6),
                      st.sampled_from([4, 5]),
                      st.sampled_from([0, 10 ** 12]))

    @settings(deadline=None)
    @given(st.lists(POINT, min_size=1, max_size=8), st.data())
    def test_matches_all_pairs_check(self, pts, data):
        cands = [d for d, _ in brute_discs(pts).values()]
        discs = data.draw(st.lists(st.sampled_from(cands), max_size=6))
        # pair discs pass through their generators, half a unit from the
        # centre; probe half a unit from each point, and a tick either way
        probes = pts + [PointSite(p.x + dx * (SCALE // 2 + e), p.y + dy * (SCALE // 2 + e))
                        for p in pts for dx, dy in ((1, 0), (0, -1))
                        for e in (-1, 0, 1)]
        for q in probes:
            assert verify_disc_cover([q], discs) == any(d.covers(q) for d in discs)
        assert verify_disc_cover(probes, discs) == \
            all(any(d.covers(q) for d in discs) for q in probes)

    # whole units times a root with a small denominator: the integer
    # bounds on b*sqrt(r) then span several cells
    WIDE = st.one_of(st.integers(-8, 8).map(lambda k: Fraction(k * SCALE)),
                     st.fractions(-8 * SCALE, 8 * SCALE, max_denominator=5))

    # b is bounded so that a centre spans few cells; a, r and the far
    # offset are not
    @example(Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0),
             0)
    @given(st.fractions(), st.fractions(),
           st.fractions(-8 * SCALE, 8 * SCALE),
           st.fractions(-8 * SCALE, 8 * SCALE),
           st.one_of(st.just(Fraction(0)), st.fractions(min_value=0)),
           st.sampled_from([0, 10 ** 12 * SCALE, -10 ** 12 * SCALE]))
    def test_centre_cells_match_fraction_bounds(self, ax, ay, bx, by, r, far):
        d = geometry.Disc(ax + far, ay - far, bx, by, r)
        assert solvers._centre_cells(d) == reference_centre_cells(d)

    @example(Fraction(0), Fraction(0), Fraction(8 * SCALE), Fraction(0), Fraction(2))
    @given(st.fractions(-3 * SCALE, 3 * SCALE, max_denominator=12),
           st.fractions(-3 * SCALE, 3 * SCALE, max_denominator=12),
           WIDE, WIDE, st.fractions(0, 3, max_denominator=4))
    def test_any_surd_centre(self, ax, ay, bx, by, r):
        d = geometry.Disc(ax, ay, bx, by, r)
        root = Fraction(math.sqrt(r))  # only places the probes
        cx, cy = round(ax + bx * root), round(ay + by * root)
        half = SCALE // 2
        for ox, oy in ((0, 0), (half, 0), (0, -half), (-300000, 400000),
                       (300000, -400000)):
            for e in (-2, -1, 0, 1, 2):
                q = PointSite(cx + ox + e, cy + oy - e)
                assert verify_disc_cover([q], [d]) == d.covers(q)


class TestRecursionShape:
    # sha256 of the trace rows (depth, measure, route, cost) of the sweep
    # below, recorded when the chordal route's sides became the intervals
    # before and after the clique, in place of packed components
    TRACE_SHA256 = ("27d6ade6263f41e43a3cf2fe5f3e94f2"
                    "90a9ebfa6d741e021a11a591d2004158")

    def test_trace_rows_are_pinned(self):
        h = hashlib.sha256()
        half = SolveConfig(epsilon=0.5)
        for style in ("uniform", "clustered", "chain"):
            for seed in range(3):
                def items(kind, n):
                    return instances.generate(kind, n, seed, style).items

                runs = [lambda tr: mis_exact(items("rects", 120), trace=tr),
                        lambda tr: mis_ptas(items("rects", 400), half,
                                            trace=tr),
                        lambda tr: pierce_ptas(items("rects", 150), half,
                                               trace=tr),
                        lambda tr: disccover_ptas(items("points", 150), half,
                                                  trace=tr)]
                for run in runs:
                    rows = []
                    run(lambda *row: rows.append(row))
                    h.update(repr(rows).encode())
        assert h.hexdigest() == self.TRACE_SHA256

    def test_trace_reports_shrinking_measure(self):
        inst = instances.generate("rects", 300, 11)
        rows = []
        mis_ptas(list(inst.items), SolveConfig(epsilon=0.5),
                 trace=lambda d, mu, route, cost: rows.append((d, mu)))
        assert rows
        by_depth = {}
        for d, mu in rows:
            by_depth.setdefault(d, []).append(mu)
        for d in by_depth:
            if d + 1 in by_depth:
                assert max(by_depth[d + 1]) <= max(by_depth[d])

    def test_profile_measures_decrease_geometrically(self):
        inst = instances.generate("rects", 400, 12)
        ctx = RectContext(inst.items)
        rows = separation_profile(ctx)
        assert rows
        for r in rows:
            assert r.cost >= 0 and r.mu > 0 and r.length <= 1

    def test_point_profile_has_unit_boxes(self):
        inst = instances.generate("points", 400, 13)
        ctx = PointContext(inst.items)
        rows = separation_profile(ctx)
        for r in rows:
            assert r.length <= 1

    def test_profile_separates_each_node_once(self, monkeypatch):
        calls = 0
        separate_subset = solvers._BaseContext.separate_subset

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return separate_subset(self, *args, **kwargs)

        monkeypatch.setattr(solvers._BaseContext, "separate_subset", counting)
        for ctx in (RectContext(instances.generate("rects", 300, 14).items),
                    PointContext(instances.generate("points", 300, 15).items)):
            calls = 0
            rows = separation_profile(ctx)
            assert rows and calls == len(rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            SolveConfig(base_threshold=0)

"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""
import math
import random
import time

import networkx as nx
import pytest

from cliquesep import instances, oracles
from cliquesep.geometry import (candidate_discs, greedy_cover_and_is_rects,
                                quarter_cell_partition)
from cliquesep.graphs import Graph, _mask, check_measure_axioms, cover_length
from cliquesep.separator import check_separator
from cliquesep.solvers import (PointContext, RectContext, SolveConfig,
                               disccover_exact, disccover_ptas, mis_exact,
                               mis_ptas, pierce_exact, pierce_ptas,
                               separation_profile, verify_independent_rects)

STYLES = ["uniform", "clustered"]
EPSILONS = [0.1, 0.3, 0.5]


def _report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {detail} — {verdict}")
    assert ok, detail


# --- shared suites (module scope: built once) ------------------------------


@pytest.fixture(scope="module")
def mis_suite():
    out = []
    for seed in range(200):
        inst = instances.generate("rects", 6 + seed % 13, seed,
                                  STYLES[seed % 2])
        ctx = RectContext(inst.items)
        out.append((inst, ctx, oracles.brute_mis(oracles.rect_graph(inst.items))[0]))
    return out


@pytest.fixture(scope="module")
def pierce_suite():
    out = []
    for seed in range(200):
        inst = instances.generate("rects", 5 + seed % 10, 1000 + seed,
                                  STYLES[seed % 2])
        out.append((inst, oracles.brute_pierce(inst.items)[0]))
    return out


@pytest.fixture(scope="module")
def cover_suite():
    out = []
    for seed in range(200):
        inst = instances.generate("points", 4 + seed % 7, 2000 + seed,
                                  STYLES[seed % 2])
        out.append((inst, oracles.brute_disccover(inst.items)[0]))
    return out


@pytest.fixture(scope="module")
def bench_profiles():
    """Separator calls over medium rect and point suites plus large instances,
    each validated against the separator contract."""
    rows = []
    violations = []

    def sweep(ctx, label):
        def validator(F, res):
            for msg in check_separator(ctx, res, F,
                                       getattr(ctx, "points", None)):
                violations.append(f"{label}: {msg}")
        rows.extend(separation_profile(ctx, validator=validator))

    for seed in range(100):
        inst = instances.generate("rects", 50 + 7 * (seed % 20), 3000 + seed,
                                  STYLES[seed % 2])
        sweep(RectContext(inst.items), f"rects-{seed}")
    for seed in range(100):
        inst = instances.generate("points", 50 + 7 * (seed % 20), 4000 + seed,
                                  STYLES[seed % 2])
        sweep(PointContext(inst.items), f"points-{seed}")
    inst = instances.generate("rects", 2000, 42)
    sweep(RectContext(inst.items), "rects-2000")
    inst = instances.generate("rects", 1200, 1, "chain")
    sweep(RectContext(inst.items), "rects-chain-1200")
    inst = instances.generate("points", 1200, 7)
    sweep(PointContext(inst.items), "points-1200")
    return rows, violations


# --- criteria --------------------------------------------------------------


def test_criterion_1_exact_oracle_equivalence(mis_suite, pierce_suite,
                                              cover_suite):
    bad = 0
    total = 0
    for inst, ctx, opt in mis_suite:
        total += 1
        bad += mis_exact(inst.items, ctx=ctx).value != opt
    for inst, opt in pierce_suite:
        total += 1
        bad += pierce_exact(inst.items).value != opt
    for inst, opt in cover_suite:
        total += 1
        bad += disccover_exact(inst.items).value != opt
    _report(1, bad == 0,
            f"exact solvers match oracles on {total - bad}/{total} instances")


def test_criterion_2_ptas_guarantees(mis_suite, pierce_suite, cover_suite):
    bad = 0
    total = 0
    for eps in EPSILONS:
        cfg = SolveConfig(epsilon=eps)
        for inst, ctx, opt in mis_suite:
            total += 1
            bad += mis_ptas(inst.items, cfg, ctx=ctx).value < \
                math.ceil((1 - eps) * opt)
        for inst, opt in pierce_suite:
            total += 1
            bad += pierce_ptas(inst.items, cfg).value > \
                math.floor((1 + eps) * opt)
        for inst, opt in cover_suite:
            total += 1
            bad += disccover_ptas(inst.items, cfg).value > \
                math.floor((1 + eps) * opt)
    _report(2, bad == 0,
            f"PTAS within (1∓ε) bounds on {total - bad}/{total} runs "
            f"(ε ∈ {EPSILONS})")


def test_criterion_3_separator_contract(bench_profiles):
    rows, violations = bench_profiles
    _report(3, len(violations) == 0 and len(rows) > 0,
            f"{len(rows)} separator calls, {len(violations)} contract "
            f"violations (incl. n=2000 and a chain of 1200)")


def test_criterion_4_empirical_cost_bound(bench_profiles):
    rows, _ = bench_profiles
    ratios = [r.cost / math.sqrt(max(1, r.length) * r.mu) for r in rows]
    observed = max(ratios) if ratios else 0.0
    _report(4, observed <= 8.0,
            f"max separator cost / sqrt(l*mu) = {observed:.3f} over "
            f"{len(rows)} calls (bound 8)")


def test_criterion_5_structural_constants(cover_suite):
    bad_len = bad_cover = bad_cand = 0
    for seed in range(60):
        inst = instances.generate("rects", 10 + 3 * seed, 5000 + seed,
                                  STYLES[seed % 2])
        ctx = RectContext(inst.items)
        if cover_length(ctx.G, ctx.strip_mask).value > 1:
            bad_len += 1
    for inst, _ in cover_suite:
        pts = list(inst.items)
        ctx = PointContext(pts)
        if cover_length(ctx.G, ctx.strip_mask).value > 1:
            bad_len += 1
        beta = oracles.brute_clique_cover(ctx.G)
        if len(quarter_cell_partition(pts)) > 16 * beta:
            bad_cover += 1
        if len(candidate_discs(pts, ctx.G)[0]) > 2 * ctx.G.m + ctx.G.n:
            bad_cand += 1
    ok = bad_len == bad_cover == bad_cand == 0
    _report(5, ok,
            f"strip length>1: {bad_len}, disc cover >16*beta: {bad_cover}, "
            f"candidate sets >2|E|+n: {bad_cand}")


def test_criterion_6_order_theory():
    checked = failed = 0
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n > 7:
            break
        G = Graph(n, list(g.edges()))
        val, parts = oracles.brute_length(G, G, witness=True)
        if val > 1:
            continue
        checked += 1
        cov = tuple(_mask(p) for p in parts)
        if not oracles.order_from_length1_cover(G, cov).ok:
            failed += 1
    rng = random.Random(0)
    dim_checked = dim_failed = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        ivs = [(a := rng.randint(0, 20), a + rng.randint(0, 10))
               for _ in range(n)]
        G = oracles.interval_graph(ivs)
        dim = oracles.poset_dimension(oracles.interval_order(ivs))
        dim_checked += 1
        if dim > oracles.brute_length(G, G) + 2:
            dim_failed += 1
    ok = failed == 0 and dim_failed == 0
    _report(6, ok,
            f"{checked} short-cover graphs on <=7 vertices, {failed} order "
            f"failures; {dim_checked} interval orders, {dim_failed} "
            f"dimension-bound failures")


def test_criterion_7_measure_axioms():
    checked = 0
    failures = []
    for seed in range(40):
        inst = instances.generate("rects", 10 + 2 * seed, 6000 + seed,
                                  STYLES[seed % 2])
        ctx = RectContext(inst.items)
        rep = check_measure_axioms(ctx.part_mask, ctx.G, trials=100,
                                   seed=seed)
        checked += rep.checked
        if not rep.ok:
            failures.append(rep.failure)
    for seed in range(40):
        inst = instances.generate("points", 10 + 2 * seed, 7000 + seed,
                                  STYLES[seed % 2])
        ctx = PointContext(inst.items)
        rep = check_measure_axioms(ctx.part_mask, ctx.G, trials=100,
                                   seed=seed)
        checked += rep.checked
        if not rep.ok:
            failures.append(rep.failure)
    ok = checked >= 10 ** 4 and not failures
    _report(7, ok,
            f"measure axioms on {checked} sampled pairs, "
            f"{len(failures)} failures")


def test_criterion_8_scale_sanity():
    inst = instances.generate("rects", 2000, 42)
    start = time.perf_counter()
    ctx = RectContext(inst.items)
    sol = mis_ptas(inst.items, SolveConfig(epsilon=0.5), ctx=ctx)
    elapsed = time.perf_counter() - start
    _, witness = greedy_cover_and_is_rects(inst.items)
    independent = verify_independent_rects(list(inst.items), sol.chosen)
    big_enough = 2 * sol.value >= len(witness)
    ok = elapsed < 60 and independent and big_enough
    _report(8, ok,
            f"n=2000 mis_ptas(eps=0.5): value {sol.value} vs greedy witness "
            f"{len(witness)}, independent={independent}, "
            f"{elapsed:.1f}s (< 60s)")

"""Run one workload for one seed and print its metrics.

``run.py`` starts this file in a fresh interpreter with the checkout's
``src`` on the path.  A pass sets up and solves every instance of the
workload once; passes repeat until ``--seconds`` have elapsed and each timing
is the median over passes.  With ``--trace 1`` untraced and traced passes
alternate: the traced ones give the per-layer metrics and the difference of
the medians is the tracing overhead.  The last line of standard output is
the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import check
import suite
from tracing import Tracer, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CONTEXTS = {"mis_ptas": "RectContext", "mis_exact": "RectContext",
            "pierce_ptas": "PierceContext", "pierce_exact": "PierceContext",
            "disccover_ptas": "CoverContext", "disccover_exact": "CoverContext"}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "bound_gap": "ratio"}


@dataclass
class Expect:
    """What the checks know about one input, computed before any timing."""

    lower: int
    upper: int
    edges: int
    optimum: int | None
    input_changed: bool


@dataclass
class Pass:
    traced: bool
    setup: float = 0.0
    solve: float = 0.0
    cpu: float = 0.0
    case_setup: list = field(default_factory=list)
    case_solve: list = field(default_factory=list)
    values: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (case index, kind, detail)
    layers: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def expectations(inputs, pins) -> list[Expect]:
    out = []
    for inp in inputs:
        case = inp.case
        if case.kind == "rects":
            lower, upper = check.rect_bounds(inp.items)
        else:
            lower, upper = check.point_bounds(inp.items)
        pin = pins.get(case.name, {})
        out.append(Expect(lower, upper, check.edge_count(case.kind, inp.items),
                          pin.get("optimum"), pin.get("base_sha256") != inp.base_sha256))
    return out


def answer(case, sol):
    """(value, feasible) read from a solution, checked by the benchmark."""
    if case.solver.startswith("mis"):
        chosen = sorted(sol.chosen)
        return len(chosen), lambda items: check.independent(items, chosen)
    if case.solver.startswith("pierce"):
        points = [(p.x, p.y) for p in sol.points]
        return len(set(points)), lambda items: check.pierces(items, points)
    centers = [(d.ax, d.ay, d.bx, d.by, d.r) for d in sol.discs]
    return len(set(centers)), lambda items: check.covers_all(items, centers)


def judge(case, expect: Expect, value: int) -> tuple[list[str], float]:
    """Violated conditions and the bound gap of one answer."""
    bad = []
    lo, hi = expect.lower, expect.upper
    maximize = case.solver.startswith("mis")
    if case.exact:
        if expect.optimum is None or value != expect.optimum:
            bad.append(f"pinned-optimum: got {value}, pinned {expect.optimum}")
        if not lo <= value <= hi:
            bad.append(f"bound: {value} outside [{lo}, {hi}]")
    else:
        eps = Fraction(str(case.epsilon))
        if maximize and value < (1 - eps) * lo:
            bad.append(f"bound: {value} < (1-eps)*{lo}")
        if not maximize and value > (1 + eps) * hi:
            bad.append(f"bound: {value} > (1+eps)*{hi}")
    gap = (hi - value) / hi if maximize else (value - lo) / lo
    return bad, gap


def context_stats(ctx) -> dict[str, float]:
    """Sizes read off a built context (traced passes only, after timing)."""
    def edges(name):
        g = getattr(ctx, name, None)
        return g.m if g is not None else 0

    masks = getattr(ctx, "point_rects", None) or getattr(ctx, "disc_points", None) or []
    return {"geometry.g_edges": edges("G"), "geometry.g1_edges": edges("G1"),
            "geometry.g2_edges": edges("G2"), "geometry.candidates": len(masks),
            "geometry.distinct_masks": len(set(masks))}


def run_case(inp, expect, traced, instances, solvers):
    """Set up, solve and check one input.

    Returns (setup s, solve s, cpu s, value, gap, failures, context stats).
    Everything the case built is released when this returns, so the next
    case starts from the same heap.
    """
    case = inp.case
    cfg = solvers.SolveConfig(epsilon=case.epsilon)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    t1 = None
    try:
        inst = instances.parse(inp.text)
        ctx = getattr(solvers, CONTEXTS[case.solver])(inst.items)
        t1 = time.perf_counter()
        sol = getattr(solvers, case.solver)(inst.items, cfg, ctx=ctx)
        t2 = time.perf_counter()
    except Exception as exc:  # a failed solve is counted and the run goes on
        t2 = time.perf_counter()
        failure = (f"exception:{type(exc).__name__}", str(exc)[:200])
        return (t2 - t0 if t1 is None else t1 - t0, 0.0 if t1 is None else t2 - t1,
                cpu_seconds() - cpu0, None, None, [failure], {})
    cpu = cpu_seconds() - cpu0
    stats = context_stats(ctx) if traced else {}
    value, feasible = answer(case, sol)
    failures = []
    if not feasible(inp.items):
        failures.append(("infeasible", f"value {value}"))
    if expect.input_changed:
        failures.append(("input-changed", "base text hash differs from pins.json"))
    bad, gap = judge(case, expect, value)
    failures += [("check", b) for b in bad]
    return t1 - t0, t2 - t1, cpu, value, gap, failures, stats


def run_pass(inputs, expects, traced, tracer, instances, solvers) -> Pass:
    res = Pass(traced)
    stats: dict[str, float] = {}
    if traced:
        tracer.reset()
        tracer.install()
    try:
        for index, (inp, expect) in enumerate(zip(inputs, expects)):
            tracer.request = inp.case.name
            gc.collect()
            setup, solve, cpu, value, gap, failures, case_stats = run_case(
                inp, expect, traced, instances, solvers)
            res.case_setup.append(setup)
            res.case_solve.append(solve)
            res.setup += setup
            res.solve += solve
            res.cpu += cpu
            res.values.append(value)
            if gap is not None:
                res.gaps.append(gap)
            res.failures += [(index, kind, detail) for kind, detail in failures]
            for key, val in case_stats.items():
                stats[key] = stats.get(key, 0) + val
    finally:
        if traced:
            tracer.uninstall()
    if traced:
        res.layers = tracer.metrics()
        cands = stats.get("geometry.candidates", 0)
        res.layers.update({k: stats.get(k, 0) for k in
                           ("geometry.g_edges", "geometry.g1_edges",
                            "geometry.g2_edges", "geometry.candidates")})
        res.layers["geometry.candidates_distinct_ratio"] = (
            stats.get("geometry.distinct_masks", 0) / cands if cands else 0.0)
    return res


def host_record() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "load": list(os.getloadavg())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    import cliquesep
    from cliquesep import instances, solvers
    src = (ROOT / "src").resolve()
    if src not in Path(cliquesep.__file__).resolve().parents:
        print(f"error: imported cliquesep from {cliquesep.__file__}, not {src}",
              file=sys.stderr)
        return 2

    pins = json.loads((HERE / "pins.json").read_text())
    inputs = suite.build(args.workload, args.seed)
    expects = expectations(inputs, pins)
    host = host_record()
    tracer = Tracer()
    passes: list[Pass] = []
    start = time.perf_counter()
    # stop when another pass would end further past the deadline than short
    # of it; a trace run needs one untraced and one traced pass
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(inputs, expects, traced, tracer, instances, solvers))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= args.seconds and \
                (not args.trace or len(passes) >= 2):
            break
    elapsed = time.perf_counter() - start
    host["load_end"] = list(os.getloadavg())

    plain = [ps for ps in passes if not ps.traced]
    traced = [ps for ps in passes if ps.traced]
    med = statistics.median
    spread = max(ps.solve + ps.setup for ps in plain) / min(ps.solve + ps.setup for ps in plain) - 1
    noisy = []
    if max(host["load"][0], host["load_end"][0]) > host["nproc"] - 0.5:
        noisy.append("load")
    if spread > 0.25:
        noisy.append(f"pass spread {spread:.0%}")
    host["noisy"] = noisy

    failures = [(ps_i, f) for ps_i, ps in enumerate(passes) for f in ps.failures]
    failed_solves = {(ps_i, f[0]) for ps_i, f in failures}
    attempted = len(passes) * len(inputs)
    gaps = [g for ps in passes for g in ps.gaps]

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced) in {elapsed:.1f} s")
    print(f"host: python {host['python']}, nproc {host['nproc']}, load "
          f"{host['load'][0]:.2f} -> {host['load_end'][0]:.2f}, "
          f"noisy: {', '.join(noisy) or 'no'}")
    for i, (inp, ex) in enumerate(zip(inputs, expects)):
        setups = [ps.case_setup[i] for ps in plain]
        solves = [ps.case_solve[i] for ps in plain]
        print(f"  {inp.case.name}: n={len(inp.items)} |E|={ex.edges} "
              f"sha256={suite.sha256(inp.text)[:12]} bounds=[{ex.lower},{ex.upper}] "
              f"pinned={ex.optimum} value={plain[0].values[i]} "
              f"setup={med(setups):.3f}s solve={med(solves):.3f}s")
    print("  passes (setup+solve s): " + " ".join(
        f"{ps.setup:.2f}+{ps.solve:.2f}{'T' if ps.traced else ''}" for ps in passes))
    for ps_i, (index, kind, detail) in failures:
        print(f"  FAIL pass {ps_i} {inputs[index].case.name}: {kind}: {detail}")
    print(f"  fail_rate={len(failed_solves) / attempted:.4f} "
          f"({len(failed_solves)} of {attempted} solves)")

    if args.trace:
        layers = {k: med([ps.layers[k] for ps in traced]) for k in traced[0].layers}
        layers["trace.setup_overhead_s"] = (med([ps.setup for ps in traced])
                                            - med([ps.setup for ps in plain]))
        layers["trace.solve_overhead_s"] = (med([ps.solve for ps in traced])
                                            - med([ps.solve for ps in plain]))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        OUT.mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "host": host,
                  "inputs": [{"case": inp.case.name, "kind": inp.case.kind,
                              "style": inp.case.style, "n": len(inp.items),
                              "edges": ex.edges, "sha256": suite.sha256(inp.text),
                              "base_sha256": inp.base_sha256}
                             for inp, ex in zip(inputs, expects)],
                  "unpatched": tracer.unpatched, "metrics": layers,
                  "spans_dropped": tracer.dropped,
                  "span_fields": ["id", "parent", "name", "start", "end", "request"],
                  "spans": tracer.spans}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record))
        print(f"  spans: {len(tracer.spans)} kept, {tracer.dropped} dropped -> {path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": med([ps.setup for ps in plain]),
            "solve_s": med([ps.solve for ps in plain]),
            "cpu_s": med([ps.cpu for ps in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bound_gap": sum(gaps) / len(gaps) if gaps else 1.0,  # 1.0: nothing solved
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failed_solves), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: instance generation, solving with reports, and
the separator-cost benchmark.

Exit codes: 0 success, 2 infeasible solution or failed oracle check,
3 no balanced separator found (diagnostic printed to stderr), 4 input error.
"""
from __future__ import annotations

import argparse
import csv
import glob as globlib
import json
import math
import os
import sys
import time
from typing import Optional

from . import instances, oracles, solvers
from .instances import KIND_POINTS, KIND_RECTS, FormatError, Instance
from .separator import NoSeparatorFound
from .solvers import (InfeasibleSolution, PointContext, RectContext,
                      SolveConfig, separation_profile)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NO_SEPARATOR = 3
EXIT_INPUT = 4

_SOLVERS = {
    "mis-exact": (KIND_RECTS, solvers.mis_exact, False),
    "mis-ptas": (KIND_RECTS, solvers.mis_ptas, True),
    "pierce-exact": (KIND_RECTS, solvers.pierce_exact, False),
    "pierce-ptas": (KIND_RECTS, solvers.pierce_ptas, True),
    "cover-exact": (KIND_POINTS, solvers.disccover_exact, False),
    "cover-ptas": (KIND_POINTS, solvers.disccover_ptas, True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="cliquesep")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded instance file")
    g.add_argument("kind", choices=[KIND_RECTS, KIND_POINTS])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--style", default="uniform",
                   choices=["uniform", "clustered", "chain"])
    g.add_argument("--out", default="-", help="output path, - for stdout")

    s = sub.add_parser("solve", help="run a solver and print a JSON report")
    s.add_argument("file")
    s.add_argument("--solver", required=True, choices=sorted(_SOLVERS))
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--t0", type=int, default=4)
    s.add_argument("--c0", type=int, default=8)
    s.add_argument("--oracle-check", action="store_true",
                   help="compare against the brute-force oracle when feasible")
    s.add_argument("--trace", action="store_true",
                   help="include one report row per separator call")

    b = sub.add_parser("bench-separator",
                       help="profile separator calls over instance files")
    b.add_argument("glob", nargs="+", help="instance file paths or globs")
    b.add_argument("--t0", type=int, default=4)
    b.add_argument("--out", default="-", help="CSV output path, - for stdout")
    return p


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    try:
        inst = instances.generate(args.kind, args.n, args.seed, args.style)
    except ValueError as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _write_text(args.out, instances.serialize(inst))
    except OSError as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _oracle_verdict(inst: Instance, solver: str, value: int,
                    cfg: SolveConfig) -> Optional[dict]:
    """Compare against the matching oracle; None when the instance is too big.

    An exact value must equal the optimum; a PTAS value must meet its
    guarantee, ceil((1-eps)*opt) <= value <= opt for the independent set and
    opt <= value <= floor((1+eps)*opt) for the minimizers, in exact
    arithmetic on eps.
    """
    try:
        if solver.startswith("mis"):
            opt, _ = oracles.brute_mis(oracles.rect_graph(inst.items))
        elif solver.startswith("pierce"):
            opt, _ = oracles.brute_pierce(inst.items)
        else:
            opt, _ = oracles.brute_disccover(inst.items)
    except oracles.TooLargeError:
        return None
    if solver.endswith("exact"):
        ok = value == opt
    elif solver == "mis-ptas":
        ok = math.ceil((1 - cfg.eps_exact()) * opt) <= value <= opt
    else:
        ok = opt <= value <= math.floor((1 + cfg.eps_exact()) * opt)
    return {"optimum": opt, "ok": ok}


def _cmd_solve(args) -> int:
    kind_wanted, fn, needs_eps = _SOLVERS[args.solver]
    if needs_eps and args.epsilon is None:
        print("cliquesep: --epsilon is required for PTAS solvers",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = SolveConfig(epsilon=args.epsilon, base_threshold=args.t0,
                          ptas_leaf_constant=args.c0)
        inst = instances.load(args.file)
    except (OSError, ValueError) as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if inst.kind != kind_wanted:
        print(f"cliquesep: solver {args.solver} needs a {kind_wanted} "
              f"instance, got {inst.kind}", file=sys.stderr)
        return EXIT_INPUT
    rows: list[dict] = []

    def hook(depth, mu, route, cost):
        rows.append({"depth": depth, "mu": mu, "route": route, "cost": cost})

    trace = hook if args.trace else None
    start = time.perf_counter()
    try:
        sol = fn(inst.items, cfg, trace=trace)
    except NoSeparatorFound as exc:
        json.dump(exc.diagnostic, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return EXIT_NO_SEPARATOR
    except InfeasibleSolution as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    wall = time.perf_counter() - start

    report = {
        "solver": args.solver,
        "config": {"epsilon": args.epsilon, "t0": args.t0, "c0": args.c0},
        "n": inst.n,
        "kind": inst.kind,
        "value": sol.value,
        "feasible": True,  # every solver verifies its answer
        "wall_time_s": round(wall, 6),
    }
    if args.trace:
        report["trace"] = rows
    code = EXIT_OK
    if args.oracle_check:
        verdict = _oracle_verdict(inst, args.solver, sol.value, cfg)
        report["oracle"] = verdict
        if verdict is not None and not verdict["ok"]:
            code = EXIT_INFEASIBLE
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def _profile_file(path: str, t0: int):
    inst = instances.load(path)
    if inst.kind == KIND_RECTS:
        ctx = RectContext(inst.items)
    else:
        ctx = PointContext(inst.items)
    return path, separation_profile(ctx, t0)


def _cmd_bench(args) -> int:
    if args.t0 < 1:
        print("cliquesep: --t0 must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    paths: list[str] = []
    for pat in args.glob:
        hits = sorted(globlib.glob(pat))
        if not hits and os.path.exists(pat):
            hits = [pat]
        if not hits and not globlib.has_magic(pat):
            # a wildcard may match nothing; a plain path must exist
            print(f"cliquesep: no such file: {pat}", file=sys.stderr)
            return EXIT_INPUT
        paths.extend(hits)
    try:
        results = [_profile_file(p, args.t0) for p in paths]
    except (OSError, FormatError) as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoSeparatorFound as exc:
        json.dump(exc.diagnostic, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return EXIT_NO_SEPARATOR

    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w",
                                                      encoding="utf-8", newline="")
    except OSError as exc:
        print(f"cliquesep: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        w = csv.writer(out)
        w.writerow(["file", "n", "mu", "length", "cost", "route"])
        max_ratio = 0.0
        any_rows = False
        for path, rows in results:
            for row in rows:
                any_rows = True
                w.writerow([path, row.n, row.mu, row.length, row.cost,
                            row.route])
                ratio = row.cost / math.sqrt(max(1, row.length) * row.mu)
                max_ratio = max(max_ratio, ratio)
        if any_rows:
            w.writerow(["SUMMARY", "", "", "", "max_cost_over_sqrt_l_mu",
                        f"{max_ratio:.4f}"])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())

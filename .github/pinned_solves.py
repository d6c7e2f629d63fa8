"""Pinned end-to-end solves: one row per check, each run through the CLI.

Each row generates an instance (generator seed 42), runs one solver on it
under a wall-time limit, and checks the reported value; some rows also bound
the solver's own peak RSS, and some run ``bench-separator`` on the same
instance and bound its ``max_cost_over_sqrt_l_mu`` by 8 (and, where a row
names a route, require every profiled cut to take it).  Prints one line per
check and exits 1 if any fails.

Run from the repository root:  PYTHONPATH=src python3 .github/pinned_solves.py
"""
import csv
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

# (kind, n, style, solver or None, epsilon, seconds, value, peak RSS MB or
# None, also profile the separator: False, True, or the route every cut of
# the profile must take)
ROWS = [
    ("rects", 300, "uniform", "mis-exact", None, 60, 97, None, False),
    ("rects", 400, "uniform", "mis-exact", None, 60, 123, None, False),
    ("rects", 120, "uniform", "pierce-exact", None, 60, 39, None, False),
    ("rects", 300, "uniform", "pierce-exact", None, 60, 97, None, False),
    ("rects", 2000, "uniform", "mis-ptas", 0.5, 60, 573, None, True),
    ("rects", 2000, "uniform", "pierce-ptas", 0.5, 60, 685, 200, False),
    ("rects", 4000, "clustered", "mis-ptas", 0.5, 60, 141, 45, False),
    ("points", 300, "clustered", "cover-exact", None, 60, 26, None, False),
    ("points", 2000, "uniform", "cover-ptas", 0.5, 60, 927, 60, False),
    ("rects", 8000, "uniform", "mis-ptas", 0.5, 60, 2296, 150, False),
    ("rects", 8000, "chain", "mis-ptas", 0.5, 60, 4000, 60, False),
    ("rects", 8000, "uniform", "pierce-ptas", 0.5, 120, 2800, 150, False),
    ("rects", 8000, "chain", "pierce-ptas", 0.5, 60, 4000, None, False),
    ("points", 8000, "uniform", "cover-ptas", 0.5, 60, 3562, 80, False),
    ("points", 2000, "uniform", None, None, 60, None, None, True),
    # the chordal route makes every cut of a rect chain (1,023 calls, max
    # ratio 0.4082) and 150 of the 435 cuts of a point chain (1.1339)
    ("rects", 8000, "chain", None, None, 60, None, None, "CHORDAL"),
    ("points", 2000, "chain", None, None, 60, None, None, True),
]

CLI = [sys.executable, "-m", "cliquesep.cli"]


def run(argv, seconds, out_path):
    """Run ``argv`` with stdout to ``out_path``, killed after ``seconds``:
    (exit code, wall seconds, peak RSS in MB of that process alone)."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        timer = threading.Timer(seconds, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024


def check_row(tmp, kind, n, style, solver, eps, seconds, value, rss_limit,
              profile) -> bool:
    inst = os.path.join(tmp, f"{kind}-{style}-{n}.inst")
    subprocess.run(CLI + ["generate", kind, "--n", str(n), "--seed", "42",
                          "--style", style, "--out", inst], check=True)
    ok = True
    if solver is not None:
        argv = CLI + ["solve", inst, "--solver", solver]
        if eps is not None:
            argv += ["--epsilon", str(eps)]
        report = inst + ".json"
        code, wall, rss = run(argv, seconds, report)
        line = (f"{solver} {style} {kind} n={n}: exit {code}, "
                f"wall {wall:.1f}/{seconds} s, peak_rss_mb {rss:.1f}")
        if rss_limit is not None:
            line += f"/{rss_limit}"
            ok &= rss <= rss_limit
        ok &= code == 0
        if code == 0:
            with open(report) as f:
                got = json.load(f)["value"]
            line += f", value {got} (pinned {value})"
            ok &= got == value
        print(("ok   " if ok else "FAIL ") + line, flush=True)
    if profile:
        table = inst + ".csv"
        code, wall, _ = run(CLI + ["bench-separator", inst, "--out", table],
                            seconds, os.devnull)
        good = code == 0
        line = (f"bench-separator {style} {kind} n={n}: exit {code}, "
                f"wall {wall:.1f}/{seconds} s")
        if good:
            with open(table) as f:
                rows = list(csv.reader(f))
            row = [r for r in rows if r and r[0] == "SUMMARY"][0]
            line += f", {row[4]} {row[5]} (at most 8)"
            good = row[4] == "max_cost_over_sqrt_l_mu" and float(row[5]) <= 8
            if profile is not True:
                routes = {r[5] for r in rows[1:] if r and r[0] != "SUMMARY"}
                line += f", routes {sorted(routes)} (only {profile})"
                good &= routes == {profile}
        print(("ok   " if good else "FAIL ") + line, flush=True)
        ok &= good
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = [check_row(tmp, *row) for row in ROWS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Covering points with unit-diameter discs from an exact candidate set.

Run: python3 demos/demo_disc_cover.py
"""
import time

from cliquesep import SolveConfig, disccover_exact, disccover_ptas, instances
from cliquesep.geometry import quarter_cell_partition
from cliquesep.oracles import brute_clique_cover, brute_disccover
from cliquesep.solvers import CoverContext


def main():
    small = instances.generate("points", 10, 12)
    ctx = CoverContext(small.items)
    sol = disccover_exact(small.items, ctx=ctx)
    opt, _ = brute_disccover(small.items)
    beta = brute_clique_cover(ctx.G)
    print(f"small instance (n={small.n}): exact={sol.value}, brute={opt}")
    print(f"  candidate discs: {len(ctx.candidates)} (bound 2|E|+n = "
          f"{2 * ctx.G.m + ctx.G.n})")
    cells = len(quarter_cell_partition(small.items))
    print(f"  quarter-cell cover: {cells} discs "
          f"(bound 16*cliquecover = {16 * beta})")
    for d in sol.discs:
        cx, cy = d.center_float()
        print(f"  disc center ~ ({cx / 10**6:.4f}, {cy / 10**6:.4f})")

    big = instances.generate("points", 120, 13)
    t = time.perf_counter()
    exact = disccover_exact(big.items)
    t_exact = time.perf_counter() - t
    t = time.perf_counter()
    approx = disccover_ptas(big.items, SolveConfig(epsilon=0.3))
    t_approx = time.perf_counter() - t
    print(f"\nlarge instance (n={big.n}):")
    print(f"  exact   {exact.value:4d} in {t_exact:.2f}s")
    print(f"  eps=0.3 {approx.value:4d} in {t_approx:.2f}s")


if __name__ == "__main__":
    main()

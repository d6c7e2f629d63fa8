"""Maximum independent set of unit-height rectangles: exact vs approximate.

Run: python3 demos/demo_mis.py
"""
import time

from cliquesep import (SolveConfig, greedy_cover_and_is_rects, instances,
                       mis_exact, mis_ptas)
from cliquesep.solvers import RectContext


def main():
    inst = instances.generate("rects", 120, 5)
    ctx = RectContext(inst.items)
    _, witness = greedy_cover_and_is_rects(inst.items)
    print(f"instance: {inst.n} rectangles, "
          f"{len(ctx.part_mask)} greedy cover parts, "
          f"greedy independent witness {len(witness)}")

    t = time.perf_counter()
    exact = mis_exact(inst.items, ctx=ctx)
    print(f"exact:     {exact.value:4d}  "
          f"({time.perf_counter() - t:.2f}s, verified independent)")

    for eps in (0.5, 0.3, 0.1):
        t = time.perf_counter()
        approx = mis_ptas(inst.items, SolveConfig(epsilon=eps), ctx=ctx)
        ratio = approx.value / exact.value
        print(f"eps={eps:3}:  {approx.value:4d}  "
              f"({time.perf_counter() - t:.2f}s, ratio {ratio:.3f}, "
              f"guarantee {1 - eps:.1f})")


if __name__ == "__main__":
    main()

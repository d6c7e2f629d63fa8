"""Walk through the two separator routes on small rectangle instances.

Run: python3 demos/demo_separator.py
"""
from cliquesep import instances
from cliquesep.solvers import RectContext, separation_profile


def show(title, inst):
    ctx = RectContext(inst.items)
    print(f"\n== {title}: n={inst.n}, measure={len(ctx.part_mask)}")
    rows = separation_profile(ctx)
    if not rows:
        print("  instance is below the leaf threshold; no separators needed")
        return
    print(f"  {'n':>5} {'mu':>4} {'len':>4} {'cost':>5}  route")
    for r in rows:
        print(f"  {r.n:>5} {r.mu:>4} {r.length:>4} {r.cost:>5}  {r.route}")


def main():
    # a horizontal chain: the intersection graph is a path, and a single
    # two-rectangle clique in the middle splits it for cost 1
    show("chain (path graph)", instances.generate("rects", 40, 0, "chain"))

    # scattered rectangles: both routes compete, the cheaper one wins per call
    show("uniform scatter", instances.generate("rects", 300, 1))

    # clustered rectangles: components split off before any separator is paid
    show("clusters", instances.generate("rects", 300, 2, "clustered"))


if __name__ == "__main__":
    main()

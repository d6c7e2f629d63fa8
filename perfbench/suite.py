"""The pinned benchmark suite: workload definitions, the instance generator and
the per-seed transform.

Everything here is the benchmark's own code.  The generator reproduces the
``uniform``, ``clustered`` and ``chain`` styles of ``cliquesep generate`` at
commit a84d35c byte for byte (same random draws, same text), so a later change
to the library's generator cannot change the benchmark's inputs.  The library
only ever receives instance text.

A workload is a fixed list of base instances (a pinned suite).  ``--seed``
moves each instance by whole units (see ``transform``), so the texts differ
per seed while the work, the optima pinned in ``pins.json`` and the bounds do
not, and seed-to-seed spread measures the host rather than the inputs.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

SCALE = 10 ** 6  # ticks per unit, as in the instance format

HEADER = "cliquesep-instance v1"


@dataclass(frozen=True)
class Case:
    """One base instance and the solver run on it."""

    solver: str          # public solver name in cliquesep.solvers
    kind: str            # "rects" or "points"
    style: str           # generator style
    n: int
    gen_seed: int
    epsilon: Optional[float] = None  # PTAS solvers only

    @property
    def name(self) -> str:
        return f"{self.solver}/{self.kind}-{self.style}-n{self.n}-g{self.gen_seed}"

    @property
    def exact(self) -> bool:
        return self.epsilon is None


def _cases(solver, kind, style, n, gen_seeds, epsilon=None):
    return [Case(solver, kind, style, n, g, epsilon) for g in gen_seeds]


# Why each workload exists is in README.md.  Sizes keep one pass near 6 s on
# a 2-core host so a 35 s run repeats the pass several times.
WORKLOADS: dict[str, list[Case]] = {
    "ptas-rects": (
        _cases("mis_ptas", "rects", "uniform", 1000, [1], 0.5)
        + _cases("mis_ptas", "rects", "clustered", 1000, [1, 2], 0.5)
        + _cases("mis_ptas", "rects", "chain", 1200, [1], 0.5)
    ),
    "exact-rects": (
        _cases("mis_exact", "rects", "uniform", 120, range(1, 9))
        + _cases("pierce_exact", "rects", "uniform", 60, range(1, 9))
    ),
    "candidates": (
        _cases("disccover_ptas", "points", "uniform", 150, [1], 0.5)
        + _cases("disccover_exact", "points", "chain", 100, [1])
        + _cases("pierce_ptas", "rects", "uniform", 150, [1], 0.5)
    ),
}


# ---------------------------------------------------------------------------
# generator (mirrors cliquesep.instances at a84d35c)


def _tick(rng: random.Random, lo: float, hi: float) -> int:
    lo_t, hi_t = math.ceil(lo * 1000), math.floor(hi * 1000)
    return rng.randint(lo_t, hi_t) * (SCALE // 1000)


def generate(kind: str, style: str, n: int, seed: int) -> list[tuple[int, ...]]:
    """Rects as (x_lo, x_hi, y_lo), points as (x, y), in scaled ticks."""
    rng = random.Random(seed)
    box = max(2.0, math.sqrt(n))
    items: list[tuple[int, ...]] = []
    if kind == "rects":
        if style == "uniform":
            for _ in range(n):
                x_lo = _tick(rng, 0, box)
                width = _tick(rng, 0.5, 3.0)
                items.append((x_lo, x_lo + width, _tick(rng, 0, box)))
        elif style == "clustered":
            k = max(1, round(math.sqrt(n) / 2))
            centers = [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(k)]
            for _ in range(n):
                cx, cy = centers[rng.randrange(k)]
                x_lo = _tick(rng, cx, cx + 1.5)
                width = _tick(rng, 0.5, 2.0)
                items.append((x_lo, x_lo + width, _tick(rng, cy, cy + 1.5)))
        elif style == "chain":
            for i in range(n):
                x_lo = i * (3 * SCALE // 5)
                items.append((x_lo, x_lo + SCALE, 0))
        else:
            raise ValueError(f"unknown rect style {style!r}")
        return items
    seen: set[tuple[int, int]] = set()

    def add(p):
        if p not in seen:
            seen.add(p)
            items.append(p)

    if style == "uniform":
        while len(items) < n:
            add((_tick(rng, 0, box), _tick(rng, 0, box)))
    elif style == "chain":
        x = y = 0
        while len(items) < n:
            add((x, y))
            x += rng.randint(300, 700) * (SCALE // 1000)
            y += rng.randint(0, 600) * (SCALE // 1000)
    else:
        raise ValueError(f"unknown point style {style!r}")
    return items


def _coord(value: int) -> str:
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), SCALE)
    return sign + f"{whole}.{frac:06d}".rstrip("0").rstrip(".")


def to_text(kind: str, items, meta: dict) -> str:
    lines = [HEADER, f"kind {kind}", "meta " + json.dumps(meta, sort_keys=True)]
    word = "rect" if kind == "rects" else "point"
    lines += [word + " " + " ".join(_coord(v) for v in it) for it in items]
    return "\n".join(lines) + "\n"


def _meta(case: Case) -> dict:
    return {"generator": case.style, "seed": case.gen_seed, "n": case.n}


def base_text(case: Case) -> str:
    items = generate(case.kind, case.style, case.n, case.gen_seed)
    return to_text(case.kind, items, _meta(case))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-seed transform


def transform(case: Case, items, rng: random.Random):
    """Move the instance by a whole number of units in x and y.

    Every coordinate the parser reads changes; stab lines, grid strips and
    item order map onto themselves, so the solvers do the same work and the
    pinned optimum and the bounds still hold.  Relabelling or reflecting was
    tried and rejected: it makes a different branch-and-bound problem, and
    piercing time then differed up to twentyfold between seeds.
    """
    dx, dy = rng.randint(0, 9) * SCALE, rng.randint(0, 9) * SCALE
    if case.kind == "rects":
        return [(x_lo + dx, x_hi + dx, y_lo + dy) for x_lo, x_hi, y_lo in items]
    return [(x + dx, y + dy) for x, y in items]


@dataclass(frozen=True)
class Input:
    case: Case
    text: str            # what the library parses
    items: list          # the same instance as integer tuples, for the checks
    base_sha256: str


def build(workload: str, seed: int) -> list[Input]:
    """The workload's inputs for ``seed``: same seed, same texts."""
    out = []
    for index, case in enumerate(WORKLOADS[workload]):
        items = generate(case.kind, case.style, case.n, case.gen_seed)
        base = to_text(case.kind, items, _meta(case))
        items = transform(case, items, random.Random(f"{workload}/{seed}/{index}"))
        meta = dict(_meta(case), transform_seed=seed)
        out.append(Input(case, to_text(case.kind, items, meta), items, sha256(base)))
    return out

"""Record pins.json: each base instance's text hash and, for exact solvers,
the optimum the library returns on the untransformed base instance.

    PYTHONPATH=src python3 perfbench/record_pins.py

The pinned optima were recorded at commit a84d35c.  Re-record only when a
workload's instance list changes, never to absorb a changed solver answer.
"""
from __future__ import annotations

import json
from pathlib import Path

import suite

from cliquesep import instances, solvers


def main() -> None:
    pins = {}
    for cases in suite.WORKLOADS.values():
        for case in cases:
            text = suite.base_text(case)
            entry = {"base_sha256": suite.sha256(text), "optimum": None}
            if case.exact:
                items = instances.parse(text).items
                entry["optimum"] = getattr(solvers, case.solver)(items).value
            pins[case.name] = entry
            print(case.name, entry["optimum"], flush=True)
    path = Path(__file__).resolve().parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

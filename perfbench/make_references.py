"""Writes the default-seed references that verify.py compares against.

    python3 perfbench/make_references.py

Runs REFERENCE_ROUNDS rounds of every workload at the default seed,
refuses to write anything if a fit fails its invariants, and stores each
fit's outcome under perfbench/references/. Regenerate only on a commit
whose results are trusted: the references are what later commits must
reproduce.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

REFERENCE_ROUNDS = 3


def main() -> int:
    os.makedirs(verify.REFERENCE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        _, lines = run.run_worker(name, workloads.DEFAULT_SEED, "reference",
                                  rounds=REFERENCE_ROUNDS)
        bad = [(line, p) for line, p in verify.verify(lines) if p]
        if bad:
            print(f"{name}: {len(bad)} fits fail their invariants, e.g. "
                  f"{bad[0][1]}", file=sys.stderr)
            return 1
        doc = {"workload": name, "seed": workloads.DEFAULT_SEED,
               "rounds": REFERENCE_ROUNDS,
               "fits": [{k: line[k] for k in
                         ("round", "index", "width", "task", "outcome")}
                        for line in lines]}
        with open(verify.reference_path(name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(lines)} fits")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload completes one tiny round (the smallest fit of each
   family) and every fit passes its invariants.
2. The verifier rejects corrupted copies of real results taken from the
   default-seed references: a flipped class, a root interval shifted off
   its root, a wrong flag and a wrong exit code. Each corruption must be
   caught by the commit-independent invariants alone and, separately, by
   the reference comparison alone.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

TINY_SEED = 1   # not the default seed: tiny rounds have no references


def _first(lines: List[dict], pred: Callable[[dict], bool]) -> dict:
    for line in lines:
        if pred(line):
            return line
    raise LookupError("no reference fit matches")


def _profile(line: dict) -> Optional[dict]:
    rep = line["outcome"].get("report", {})
    return rep if "roots" in rep else None


def flip_class(line: dict):
    rep = _profile(line)
    root = rep["roots"][-1]
    root["class"] = "saddle" if root["class"] == "local_max" else "local_max"


def shift_root(line: dict):
    """Move the last root interval past its root, by twice its width."""
    root = _profile(line)["roots"][-1]
    lo, hi = Fraction(root["lo"]), Fraction(root["hi"])
    w = hi - lo
    root["lo"], root["hi"] = str(hi + w), str(hi + 2 * w)


def flip_boundary(line: dict):
    rep = _profile(line)
    rep["boundary_is_max"] = not rep["boundary_is_max"]


def set_tie(line: dict):
    _profile(line)["tie"] = True


def flip_feasible(line: dict):
    sols = line["outcome"]["report"]["solutions"]
    sol = next(s for s in sols if s["feasible"])
    sol["feasible"] = False


def wrong_exit(line: dict):
    line["outcome"]["exit"] = 0


CORRUPTIONS = [
    ("flipped class", "oneway_ladder", lambda l: _profile(l) is not None,
     flip_class),
    ("root interval shifted off its root", "oneway_ladder",
     lambda l: _profile(l) is not None, shift_root),
    ("root interval shifted (tight width)", "tight_width",
     lambda l: _profile(l) is not None, shift_root),
    ("wrong boundary_is_max flag", "small_models",
     lambda l: _profile(l) is not None, flip_boundary),
    ("wrong tie flag", "small_models", lambda l: _profile(l) is not None,
     set_tie),
    ("wrong feasible flag", "small_models",
     lambda l: l["task"]["kind"] == "twoway"
     and any(s["feasible"] for s in l["outcome"]["report"]["solutions"]),
     flip_feasible),
    ("wrong exit code", "cli_csv", lambda l: l["task"]["exit"] != 0,
     wrong_exit),
]


def main() -> int:
    failures = []
    for name in workloads.WORKLOADS:
        summary, lines = run.run_worker(name, TINY_SEED, "selftest",
                                        rounds=1, tiny=True)
        bad = [p for _, p in verify.verify(lines) if p]
        status = "ok" if lines and not bad else f"FAILED {bad[:1]}"
        print(f"tiny {name}: {len(lines)} fits in "
              f"{summary['round_s'][0]:.2f} s, {status}")
        if status != "ok":
            failures.append(f"tiny {name}")

    for name in workloads.WORKLOADS:
        clean = [p for _, p in verify.verify(verify.reference_lines(name))
                 if p]
        if clean:
            failures.append(f"reference {name} fails its own invariants")

    for label, workload, pick, corrupt in CORRUPTIONS:
        original = _first(verify.reference_lines(workload), pick)
        bad = copy.deepcopy(original)
        corrupt(bad)
        by_invariant = verify.check_outcome(bad)
        by_reference = verify.compare(bad["outcome"], original["outcome"])
        caught = bool(by_invariant) and bool(by_reference)
        print(f"{label}: invariants {'catch' if by_invariant else 'MISS'}, "
              f"reference {'catches' if by_reference else 'MISSES'}"
              + (f" ({by_invariant[0]})" if by_invariant else ""))
        if not caught:
            failures.append(label)

    if failures:
        print("self-test FAILED: " + ", ".join(failures))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""exactvc benchmark: seeded workloads through the public API, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/exactvc. Each run starts
a fresh worker process (perfbench/worker.py) that repeats rounds of the
workload's seeded fits for S seconds, one caller in a closed loop. Every
fit is then checked (perfbench/verify.py) and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one round of fits, tracing off;
  setup_s      median wall time for a fresh interpreter to import
               exactvc.cli;
  peak_rss_mb  peak resident memory of the worker process.
--trace 1 runs the same rounds twice, untraced and then with every
function in spans.TRACED wrapped, and reports per-layer call counts, self
times and the tracing overhead; the spans go to perfbench/out/. Both
modes also print the workload descriptors (degrees, coefficient bits,
roots, fits and CSV size per round) as plain lines.

Fit and import times are wall times rescaled to a reference machine
speed by the calibration kernel timed around each of them (calibrate.py);
a traced run's self times are rescaled by the ratio of its rescaled to
its raw fit time. The raw medians are printed beside wall_s and setup_s.

A failed fit is counted in "failed" against "attempted" instead of being
a metric, since the ratio is 0 on a correct commit.

Other entry points: perfbench/selftest.py (tiny runs of every workload
and corrupted-result checks) and perfbench/make_references.py (rewrites
the default-seed references; run it only on a commit whose results are
trusted).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
IMPORT_TIMEOUT_S = 10
# Two workers run in a traced run; both must end within the 180 s a run
# may take.
WORKER_TIMEOUT_S = 75
# Share of --seconds spent on the untraced pass of a traced run; the
# traced pass repeats the same rounds and takes longer.
UNTRACED_SHARE = 1 / 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> Tuple[List[float], List[float]]:
    """Rescaled and raw wall times of a fresh interpreter importing
    exactvc.cli, each rescaled by the kernel runs around it.

    One untimed import first, so bytecode is compiled as it is for an
    installed package.
    """
    cmd = [sys.executable, "-c", "import exactvc.cli"]
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True,
                   timeout=IMPORT_TIMEOUT_S)
    raw, rescaled = [], []
    cal = calibrate.kernel_seconds()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True,
                       timeout=IMPORT_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        after = calibrate.kernel_seconds()
        rescaled.append(calibrate.normalize(raw[-1], (cal + after) / 2))
        cal = after
    return rescaled, raw


def run_worker(workload: str, seed: int, tag: str, seconds: float = 0.0,
               rounds: int = None, trace: bool = False,
               tiny: bool = False) -> Tuple[dict, List[dict]]:
    """Run one worker process; return its summary and its result lines."""
    os.makedirs(OUT, exist_ok=True)
    results = os.path.join(OUT, f"{workload}-{seed}-{tag}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--results", results, "--trace", str(int(trace))]
    cmd += ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"{workload}-{seed}-spans.jsonl")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(results) as fh:
        lines = [json.loads(line) for line in fh]
    return summary, lines


def check(workload: str, seed: int, lines: List[dict]) -> int:
    """Verify every fit; print the problems; return the number failed."""
    refs = (verify.load_references(workload)
            if seed == workloads.DEFAULT_SEED else None)
    failed = 0
    for line, problems in verify.verify(lines, refs):
        if problems:
            failed += 1
            print(f"FAILED round {line['round']} fit {line['index']} "
                  f"({line['task']['label']}): {'; '.join(problems[:3])}",
                  file=sys.stderr)
    return failed


def normalized_rounds(summary: dict, lines: List[dict]) -> List[float]:
    """Round times with each fit rescaled by the kernel runs around it."""
    cal = summary["cal_s"]
    rounds = [0.0] * summary["rounds"]
    for i, line in enumerate(lines):
        rounds[line["round"]] += calibrate.normalize(
            line["seconds"], (cal[i] + cal[i + 1]) / 2)
    return rounds


def describe(lines: List[dict], rounds: int):
    """Print the workload descriptors (informational, not metrics)."""
    for name, value in verify.describe(lines, rounds).items():
        print(f"{name} = {value:g}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> Tuple[dict, int, int]:
    setup, setup_raw = measure_setup()
    summary, lines = run_worker(args.workload, args.seed, "e2e",
                                seconds=args.seconds)
    failed = check(args.workload, args.seed, lines)
    raw = summary["round_s"]
    rounds = normalized_rounds(summary, lines)
    print(f"wall_s = {statistics.median(rounds):.4f} s (median of "
          f"{len(rounds)} rounds, min {min(rounds):.4f}, max "
          f"{max(rounds):.4f}; raw median {statistics.median(raw):.4f} s)")
    print(f"setup_s = {statistics.median(setup):.4f} s (median of "
          f"{len(setup)} imports; raw median "
          f"{statistics.median(setup_raw):.4f} s)")
    print(f"peak_rss_mb = {summary['peak_rss_mb']:.2f} MB")
    print(f"failed_ratio = {failed}/{len(lines)}")
    describe(lines, len(rounds))
    metrics = {
        "wall_s": _metric(statistics.median(rounds), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(summary["peak_rss_mb"], "MB"),
    }
    return metrics, len(lines), failed


def per_layer(args) -> Tuple[dict, int, int]:
    plain, plain_lines = run_worker(args.workload, args.seed, "untraced",
                                    seconds=args.seconds * UNTRACED_SHARE)
    rounds = plain["rounds"]
    traced, lines = run_worker(args.workload, args.seed, "traced",
                               rounds=rounds, trace=True)
    failed = check(args.workload, args.seed, plain_lines + lines)
    fits = len(lines)
    untraced_s = sum(normalized_rounds(plain, plain_lines)) / rounds
    traced_s = sum(normalized_rounds(traced, lines)) / rounds
    speed = traced_s * rounds / sum(traced["round_s"])
    metrics = {}
    for mod, fn in spans.TRACED:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = _metric(
            traced["calls"].get(name, 0) / fits, "count/fit")
        metrics[f"{name}.self_s"] = _metric(
            traced["self_s"].get(name, 0.0) * speed / rounds, "s")
    calls = traced["calls"].get("enclosure.log_enclosure", 0)
    nones = traced["none_returns"].get("enclosure.log_enclosure", 0)
    metrics["enclosure.log_enclosure.none_ratio"] = _metric(
        nones / calls if calls else 0.0, "ratio")
    self_sum = sum(traced["self_s"].values()) * speed / rounds
    metrics["trace.untraced_wall_s"] = _metric(untraced_s, "s")
    metrics["trace.traced_wall_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    metrics["trace.unattributed_s"] = _metric(
        traced["self_s"].get(spans.FIT_SPAN, 0.0) * speed / rounds, "s")
    metrics["trace.spans_per_round"] = _metric(traced["spans"] / rounds,
                                               "count")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    describe(lines, rounds)
    print(f"self times sum to {self_sum:.4f} s per round; untraced round "
          f"{untraced_s:.4f} s; gap {self_sum - untraced_s:+.4f} s against "
          f"an overhead of {traced_s - untraced_s:.4f} s "
          f"({rounds} rounds each)")
    return metrics, len(plain_lines) + fits, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "exactvc", "__init__.py")):
        print(f"no exactvc sources under {ROOT}/src; run the benchmark from "
              "the root of an exactvc checkout", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed = (per_layer if args.trace
                                      else end_to_end)(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

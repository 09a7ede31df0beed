"""Runs one workload in a fresh process and streams its results.

    python3 perfbench/worker.py --workload NAME --seed N --results PATH
        [--seconds S | --rounds R] [--trace 0|1] [--spans PATH] [--tiny]

Rounds run one after another in this process, one caller and no threads.
Only the fit calls themselves are timed: inputs are generated, CSV files
written and reports serialized between timed sections. Each fit's report
goes to the results file as one JSON line, so memory does not grow with
the number of rounds. The calibration kernel (calibrate.py) runs once
before the first fit and after every fit, outside the fit's timing, so
the i-th result line's fit ran between cal_s[i] and cal_s[i + 1]. The
last line on stdout is a JSON summary: round and kernel times, peak
resident memory and, when traced, per-function self times and call
counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import resource
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from calibrate import kernel_seconds  # noqa: E402
from spans import FIT_SPAN, Recorder  # noqa: E402


def _import_exactvc():
    import exactvc
    import exactvc.cli
    import exactvc.io
    origin = os.path.realpath(exactvc.__file__)
    if not origin.startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        raise SystemExit(f"exactvc imported from {origin}, not from this "
                         "checkout's src/")
    return exactvc


def _run_fit(xv, task: dict, path: str):
    """The timed part of one fit: build the exactvc input, call, return."""
    kind = task["kind"]
    if kind == "oneway":
        s = task["stats"]
        stats = xv.OneWayStats(tuple(s["sizes"]), tuple(s["mults"]),
                               tuple(s["means"]), tuple(s["betweenSS"]),
                               s["withinSS"])
        fit = xv.oneway.ml_fit if task["method"] == "ML" else xv.oneway.reml_fit
        return fit(stats, refine_width=task["width"])
    if kind == "covariates":
        d = task["design"]
        design = xv.covariates.DesignProblem(
            tuple(d["y"]), tuple(tuple(r) for r in d["x"]), tuple(d["sizes"]))
        fit = (xv.covariates.ml_fit if task["method"] == "ML"
               else xv.covariates.reml_fit)
        return fit(design, refine_width=task["width"])
    if kind == "twoway":
        stats = xv.twoway.TwoWayStats(**task["ss"])
        return xv.twoway.fit_twoway(stats, model=task["model"],
                                    refine_width=task["width"])
    if kind == "cli":
        argv = [a.replace("{file}", path) for a in task["argv"]]
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = xv.cli.main(argv)
        return code, out.getvalue()
    raise ValueError(f"unknown fit kind {kind!r}")


def _write_inputs(tasks: List[dict], directory: str) -> List[str]:
    """Write each command-line fit's CSV file; "" for the other fits."""
    paths = []
    for task in tasks:
        path = ""
        if task["kind"] == "cli":
            path = os.path.join(directory, f"{os.getpid()}-{task['file']}")
            with open(path, "w") as fh:
                fh.write(task["text"])
        paths.append(path)
    return paths


def _timed_fit(xv, recorder: Recorder, task: dict, path: str, traced: bool):
    """(result, exception, seconds) of one fit; spans only when traced."""
    recorder.on = traced
    result = error = None
    t0 = time.perf_counter()
    try:
        result = recorder.call(FIT_SPAN, _run_fit, xv, task, path)
    except Exception as exc:  # recorded as a failed fit
        error = exc
    secs = time.perf_counter() - t0
    recorder.on = False
    return result, error, secs


def _outcome(report_fns, task: dict, result, error) -> dict:
    """JSON-ready outcome of one fit, through exactvc's own report format."""
    if error is not None:
        return {"exception": type(error).__name__, "message": str(error)}
    if task["kind"] == "cli":
        code, text = result
        try:
            doc = json.loads(text)
        except ValueError:
            doc = {"unparsed": text[:200]}
        return {"exit": code, "report": doc}
    oneway_report, twoway_report = report_fns
    if task["kind"] == "twoway":
        return {"report": twoway_report(result)}
    return {"report": oneway_report(result, task["method"])}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it was exec'd.

    VmHWM belongs to the process image; ru_maxrss also counts the parent's
    memory at fork time on Linux, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


META_KEYS = ("kind", "label", "method", "model", "M", "M2", "exit",
             "error_kind", "csv_rows", "csv_cells")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds, ignoring --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    xv = _import_exactvc()
    report_fns = (xv.io.oneway_report, xv.io.twoway_report)
    recorder = Recorder()
    if args.trace:
        recorder.install()
    out_dir = os.path.dirname(os.path.abspath(args.results))

    round_s, cal_s = [], [kernel_seconds(1)]
    begin = time.perf_counter()
    with open(args.results, "w") as results:
        k = 0
        while True:
            tasks = workloads.make_round(args.workload, args.seed, k,
                                         tiny=args.tiny)
            paths = _write_inputs(tasks, out_dir)
            done = []
            for task, path in zip(tasks, paths):
                done.append(_timed_fit(xv, recorder, task, path,
                                       bool(args.trace)))
                cal_s.append(kernel_seconds(1))
            round_s.append(sum(secs for _, _, secs in done))
            for i, (task, (result, error, secs)) in enumerate(zip(tasks, done)):
                line = {"round": k, "index": i, "seconds": secs,
                        "width": str(task["width"]),
                        "task": {m: task[m] for m in META_KEYS if m in task},
                        "outcome": _outcome(report_fns, task, result, error)}
                results.write(json.dumps(line) + "\n")
            for path in paths:
                if path:
                    os.remove(path)
            k += 1
            if args.rounds is not None:
                if k >= args.rounds:
                    break
            elif time.perf_counter() - begin >= args.seconds:
                break

    peak_rss_mb = _peak_rss_mb()
    summary = {"rounds": k, "round_s": round_s, "cal_s": cal_s,
               "peak_rss_mb": peak_rss_mb}
    if args.trace:
        summary.update(self_s=recorder.self_s, calls=recorder.calls,
                       none_returns=recorder.none_returns,
                       spans=len(recorder.start))
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

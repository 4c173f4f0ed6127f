"""nilflow benchmark: one run of one workload.

    python3 perfbench/run.py --workload density-heis --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  A run is whole rounds of the workload,
each in a fresh interpreter (worker.py), so that every round starts as a
user's process would: cold imports, a fresh allocator, nothing cached.
The first round fixes how many rounds fill --seconds.  Every round's
outputs are checked.  The last line of standard output is the result:

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s (the first
round's cold set-up), run_s (median round time) and peak_rss_mb (median
peak resident memory of a round's process).  With --trace 1 at least
three rounds alternate untraced and traced, starting untraced; the
metrics are the per-layer ones, averaged over the traced rounds, and the
tracing overhead against the untraced rounds.

Exits non-zero, with no result, when the nilflow sources are missing or a
round's process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175
# One thread: numpy's BLAS would otherwise spin a second thread on small
# batched solves, which on a 2-CPU shared machine measures the scheduler.
SINGLE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


class RoundFailed(RuntimeError):
    pass


def run_round(args, traced, final, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--traced", str(int(traced)),
           "--final", str(int(final))]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            env={**os.environ, **SINGLE_THREAD},
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"round did not finish within {TIMEOUT_S} s of the run")
    if proc.returncode != 0:
        raise RoundFailed(f"round exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RoundFailed("round printed no result") from None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one nilflow benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nilflow" / "__init__.py").is_file():
        print(f"no nilflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        rounds = [run_round(args, False, True, deadline)]
        n = max(3 if args.trace else 1, round(args.seconds / rounds[0]["run_s"]))
        for i in range(1, n):
            rounds.append(run_round(args, args.trace and i % 2 == 1, False, deadline))
    except RoundFailed as e:
        print(e, file=sys.stderr)
        return 1

    untraced = [r for r in rounds if r["layers"] is None]
    traced = [r for r in rounds if r["layers"] is not None]
    fails = [f for r in rounds for f in r["fails"]]
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        fails.append("rounds on the same inputs gave different outputs")
    for f in fails:
        print(f"CHECK FAILED [{args.workload}]: {f}", file=sys.stderr)

    if traced:
        metrics = {name: {"value": statistics.fmean(r["layers"][name]["value"]
                                                    for r in traced),
                          "unit": unit["unit"]}
                   for name, unit in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in untraced), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": rounds[0]["setup_s"], "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MiB"},
        }
    result = {"correct": not fails,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "seed": args.seed, "rounds": rounds}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

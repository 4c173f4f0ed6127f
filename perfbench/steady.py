"""Steadiness of the benchmark: run workloads repeatedly, one seed per run,
and print each metric's median, quartiles and spread.

    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --workloads density-ex5 --runs 5 --first-seed 11

Each run is a separate `run.py` process, as a harness would start it.  The
spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); the failed share is failed / attempted
over all runs of the workload.  Every result is appended as one JSON line
to perfbench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    log = HERE / "out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for name in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= res["correct"]
            results.append(res)
            with log.open("a") as f:
                f.write(json.dumps({"workload": name, "seed": seed,
                                    "seconds": args.seconds, **res}) + "\n")
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in res["metrics"].items()), flush=True)
        report(name, results)
    return 0 if ok else 1


def report(name, results):
    if not results:
        return
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n{name}: {len(results)} runs, failed share {failed}/{attempted}")
    print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for metric, first in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {metric:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {first['unit']}")
    print(flush=True)


if __name__ == "__main__":
    sys.exit(main())

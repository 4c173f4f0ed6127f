"""One round of one workload, in the fresh interpreter that run.py starts.

Set-up (import nilflow, parse the fixture, build the maps) is timed from
the moment run.py started this process.  Then the workload runs one round,
timed; its outputs are checked outside the timed region.  With --traced 1
the set-up and the round run under the tracer, and the process reports its
per-layer metrics.  With --final 1 it also runs the checks that need only
be made once per run (the brute-force covering radii).

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--final", type=int, choices=(0, 1), default=1)
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() when the process was started")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    if not (SRC / "nilflow" / "__init__.py").is_file():
        print(f"nilflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ti = time.perf_counter()
    import nilflow
    import nilflow.cli
    import_s = time.perf_counter() - ti
    if Path(nilflow.__file__).resolve().parent != SRC / "nilflow":
        print(f"imported nilflow from {nilflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl.setup(nilflow, args.seed)
    setup_s = time.monotonic() - t0
    if tracer:
        tracer.remove()
        setup_range = (0, len(tracer))
    wl.prepare_checks(nilflow, args.seed)

    if tracer:
        tracer.install()
    dt, failed, out = wl.run_round(nilflow)
    if tracer:
        tracer.remove()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fails = wl.check_round(nilflow, out)
    digest = wl.digest(out)
    del out
    if args.final:
        fails += wl.final_checks()

    layers = None
    if tracer:
        from tracer import per_layer_metrics
        inputs = wl.layer_inputs()
        layers = per_layer_metrics(
            tracer.arrays(), setup_range, (setup_range[1], len(tracer)),
            import_s=import_s, pair_factor=inputs["pair_factor"],
            seeds=inputs["seeds"])
        fails += traced_count_checks(layers, inputs)
        tracer.write(OUT / f"trace-{wl.name}.npz")

    print(json.dumps({"setup_s": setup_s, "run_s": dt, "peak_rss_mb": peak_mb,
                      "attempted": wl.ops, "failed": failed, "fails": fails,
                      "digest": digest, "layers": layers}))
    return 0


def traced_count_checks(metrics, inputs):
    """Counts the mathematics fixes, as the traced calls saw them."""
    fails = []
    for name, want in (("density.points_enumerated", inputs["points"]),
                       ("dynlab.periodic_points_found", inputs["seeds"])):
        got = metrics[name]["value"]
        if got != want:
            fails.append(f"traced {name} = {got}, expected {want}")
    return fails


if __name__ == "__main__":
    sys.exit(main())

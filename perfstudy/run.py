"""Study benchmark of defectbench: runs one workload and prints its metrics.

    python3 perfstudy/run.py --workload study1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run certifies the workload's
published parameter sets (set-up), then repeats whole rounds of the
workload's studies while another round still fits in --seconds, checks
every round's outputs, and prints one line per metric followed by a JSON
result line.  With --trace 0 the metrics are the end-to-end ones
(setup_s, study_s, peak_rss_mb); with --trace 1 the public functions of
each layer are wrapped and the per-layer metrics are printed instead.

The inputs are the two published parameter sets and carry no randomness:
--seed is accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread, so that the thread count does not depend on the host; on
# the 2-core reference machine it was no slower than the default (README.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def process_age_s() -> float:
    """Seconds since this process started (Linux /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["study1d", "uniform2d", "adaptive2d"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "defectbench", "__init__.py")):
        print(f"defectbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from defectbench import paramfind

    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    correct = True
    with tracer.recording() if tracer else nullcontext():
        for config in workload.configs:
            report = paramfind.verify_configuration(config)
            if not (report.converged and report.certified_ascent == config.ascent):
                print(f"published configuration at b={config.params.b} not "
                      f"certified: ascent {report.certified_ascent}",
                      file=sys.stderr)
                correct = False
    setup_s = process_age_s()

    out_dir = os.path.join(HERE, "out", args.workload)
    round_s, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tracer.round() if tracer else nullcontext():
            rnd = workload.run(out_dir)
        round_s.append(time.perf_counter() - t0)
        if len(round_s) == 1:
            # later rounds add heap fragmentation, not study memory, and
            # their number varies with the machine's speed
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += rnd.attempted
        failed += rnd.failed
        try:
            workload.check(rnd)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        elapsed = time.perf_counter() - start
        if elapsed + round_s[-1] > args.seconds:
            break

    if tracer:
        layer = tracer.metrics()
        layer["trace.study_s"] = statistics.median(round_s)
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}.json"), layer)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "study_s": {"value": statistics.median(round_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(f"workload {args.workload}: {len(round_s)} rounds, "
          f"{attempted} levels, {failed} failed")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_max"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter: set up, time whole cycles, check.

Started by perfbench/run.py, one process per workload run, so that import
time, peak memory and any cache the library keeps cannot leak from one
workload into another.  It writes lines to stdout, each a tag and a JSON
object: ``READY`` once the library is imported and the first cycle of
inputs is built (the end of set-up), ``HOST`` with a host-speed reference
sample taken just after, and ``RESULT`` at the end.  Diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def import_library() -> None:
    """Import purefields from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import purefields

    if not Path(purefields.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"purefields came from {purefields.__file__}, not {SRC}")


def judge(workload, item, result) -> tuple[int, list[str]]:
    """(verdicts, failure reasons) for one op, checked outside the timed region."""
    if isinstance(result, Exception):
        return 1, [f"{item[0]}: raised {result!r}"]
    try:
        return workload.check(item, result)
    except Exception as exc:
        # a result malformed enough to break the check is wrong too
        traceback.print_exc()
        return 1, [f"{item[0]}: check raised {exc!r}"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    stop = parser.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float, help="time whole cycles until this much timed wall")
    stop.add_argument("--cycles", type=int, help="time exactly this many cycles")
    stop.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_library()
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"))
    pending = workload.cycle()
    keys = repr([key for key, _ in pending]).encode()
    emit("READY", {"digest": hashlib.sha256(keys).hexdigest()})
    clock = hostspeed.HostClock()
    clock.sample()
    emit("HOST", {"ref_s": clock.refs[-1]})
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workload.install(tracer, clock)
    tracer.install("purefields")
    # segment start, end and verdict index, kept compact so that peak_rss_mb
    # does not grow with the number of ops a run happens to time
    starts, ends, owners = array("d"), array("d"), array("q")
    ops = attempted = failed = cycles = 0
    timed = 0.0
    try:
        while True:
            for item in pending:
                clock.sample_if_due()
                tracer.op = ops
                start = perf_counter()
                try:
                    verdicts, result = workload.run(item)
                except Exception as exc:
                    # a raised exception is a failed verdict, not a crash
                    traceback.print_exc()
                    verdicts, result = [[(start, perf_counter())]], exc
                for verdict in verdicts:
                    for begin, end in verdict:
                        starts.append(begin)
                        ends.append(end)
                        owners.append(ops)
                        timed += end - begin
                    ops += 1
                # checks and input generation call the library too; keep
                # them out of the per-layer numbers
                tracer.recording = False
                count, failures = judge(workload, item, result)
                tracer.recording = True
                attempted += count
                failed += len(failures)
                for reason in failures:
                    print(f"{args.workload}: wrong verdict: {reason}", file=sys.stderr)
            cycles += 1
            if cycles == args.cycles or (args.seconds is not None and timed >= args.seconds):
                break
            tracer.recording = False
            pending = workload.cycle()
            tracer.recording = True
    finally:
        tracer.restore()
        workload.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock.sample()
    latencies = [0.0] * ops
    for begin, end, owner in zip(starts, ends, owners):
        latencies[owner] += clock.rescale(begin, end)

    summary = {
        "attempted": attempted,
        "failed": failed,
        "cycles": cycles,
        "wall_s": timed,
        "timed_s": sum(latencies),
        "host_ref_s": clock.median_ref(),
        "samples": len(latencies),
        "p50_s": statistics.median(latencies),
        "p90_s": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            if len(latencies) > 1
            else latencies[0]
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        summary["layers"] = tracer.layer_metrics()
        summary["layers"]["trace.ops"] = (len(latencies), "count")
        summary["layers"]["trace.span_cost_s"] = (
            len(tracer.spans) * tracing.span_cost(),
            "s",
        )
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    emit("RESULT", summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

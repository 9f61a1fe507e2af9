"""Time-to-certified-verdict benchmark for purefields.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is large-field, atlas, refute, ledger, or all (each in turn).  One
caller, closed loop, no threads: each op is timed from its call to its
return, and the next starts only after that.  Each workload runs in its
own fresh interpreter (perfbench/worker.py); this process only spawns,
times set-up and reports, and never imports the library.

--trace 0 reports the end-to-end metrics.  Set-up is timed from spawning
the interpreter to the end of input generation, once in each of
SETUP_PROBES extra processes and once in the measured one, and the median
is reported.  Every end-to-end time is rescaled to a nominal host speed
with the reference work in hostspeed.py, timed next to it.  --trace 1 runs the workload with spans around every layer
call and reports per-layer totals; it then reruns the same cycles untraced
in a fresh process, and trace.overhead_s is the difference of the two
timed walls.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it show the same numbers
as a table.  Exit status is 0 when every verdict was right, 1 when some
was wrong, and 2 when a worker crashed, timed out or could not import the
library (the JSON line is then not printed).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("large-field", "atlas", "refute", "ledger")
SETUP_PROBES = 6
# every run of one workload must end well inside three minutes
RUN_BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def _messages(proc, deadline):
    """(tag, payload, arrival time) for each line the worker writes."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffered = b""
    try:
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                raise WorkerFailed("worker ran past the time budget")
            if not selector.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                tag, _, body = line.decode().partition(" ")
                yield tag, json.loads(body), perf_counter()
    finally:
        selector.close()


def spawn(workload, seed, deadline, *, trace=0, stop=("--setup-only",)):
    """Run one worker; returns (set-up seconds, input digest, result or None).

    Set-up is rescaled to the nominal host speed with the reference sample
    the worker takes right after it, like every other time it reports.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), *stop,
    ]
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        ready = host = result = None
        for tag, payload, when in _messages(proc, deadline):
            if tag == "READY":
                ready = (when - start, payload["digest"])
            elif tag == "HOST":
                host = payload["ref_s"]
            elif tag == "RESULT":
                result = payload
        code = proc.wait(timeout=max(deadline - perf_counter(), 0.1))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or host is None or (result is None and "--setup-only" not in stop):
        raise WorkerFailed(f"{' '.join(command)} exited with status {code}")
    setup, digest = ready
    return setup * hostspeed.NOMINAL_S / host, digest, result


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    if trace:
        _, digest, traced = spawn(
            workload, seed, deadline, trace=1, stop=("--seconds", str(seconds))
        )
        _, untraced_digest, untraced = spawn(
            workload, seed, deadline, stop=("--cycles", str(traced["cycles"]))
        )
        digests = {digest, untraced_digest}
        metrics = {name: tuple(value) for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["timed_s"] - untraced["timed_s"], "s")
        result = traced
        failed = traced["failed"] + untraced["failed"]
    else:
        probes = [spawn(workload, seed, deadline) for _ in range(SETUP_PROBES)]
        setup, digest, result = spawn(
            workload, seed, deadline, stop=("--seconds", str(seconds))
        )
        digests = {digest} | {d for _, d, _ in probes}
        metrics = {
            "setup_s": (statistics.median([setup] + [s for s, _, _ in probes]), "s"),
            "verdicts_per_s": (result["samples"] / result["timed_s"], "1/s"),
            "verdict_p50_s": (result["p50_s"], "s"),
            "verdict_p90_s": (result["p90_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        failed = result["failed"]
    if len(digests) != 1:
        print(f"{workload}: seed {seed} generated different inputs", file=sys.stderr)
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
        "samples": result["samples"],
        "cycles": result["cycles"],
        "wall_s": result["wall_s"],
        "host_ref_s": result["host_ref_s"],
    }


def print_table(workload: str, run: dict) -> None:
    print(
        f"{workload}: {run['samples']} verdict latencies over {run['wall_s']:.3f} s "
        f"timed wall ({run['cycles']} cycles); attempted {run['attempted']}, "
        f"failed {run['failed']}, failed_ratio {run['failed'] / run['attempted']:.4f}; "
        f"host reference {run['host_ref_s'] * 1e3:.3f} ms "
        f"(times below rescaled to {hostspeed.NOMINAL_S * 1e3:.3f} ms)"
    )
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = measure(name, args.seed, args.seconds, args.trace)
            print_table(name, runs[name])
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    def prefix(name):
        return f"{name}." if args.workload == "all" else ""

    correct = all(run["correct"] for run in runs.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs.values()),
                "failed": sum(run["failed"] for run in runs.values()),
                "metrics": {
                    prefix(name) + metric: {"value": value, "unit": unit}
                    for name, run in runs.items()
                    for metric, (value, unit) in run["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

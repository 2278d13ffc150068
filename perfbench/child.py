"""One part of one workload, in a fresh process.

Run by ``run.py`` with BLAS/OpenMP threads pinned to 1 in the environment.
Every import happens before the first timer starts; inputs are generated
before set-up and are not timed.  Set-up runs ``SETUP_REPEATS`` times and
reports the median.  The calibration kernel (``calibrate.py``) runs before
set-up, after each set-up and after serving, so that ``run.py`` can give
the host times at reference speed.  The reference sweep of the serving
tiers runs after serving, outside both timers and with the tracer
uninstalled; peak RSS is read before it.  Prints one JSON object on its
last line.

    python3 perfbench/child.py --workload NAME --seed N --part I [--trace] [--spans PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
#: Calibration kernel runs before set-up and after serving.
CALIBRATE_REPEATS = 4
ALLOWED_STATUSES = {workloads.STATUS_OK, workloads.STATUS_OOM, "shed", "cancelled", "failed"}


def check(outcome: workloads.Outcome) -> tuple[list[str], int]:
    """Validate every request's outcome; returns (errors, failed requests)."""
    errors: list[str] = []
    failed = 0
    reported = Counter(rid for rid, _ in outcome.reported)
    for record in outcome.records:
        problems = []
        count = reported.pop(record.rid, 0)
        if count != 1:
            problems.append(f"{count} terminal statuses")
        if record.status not in ALLOWED_STATUSES:
            problems.append(f"status {record.status!r}")
        if record.status == workloads.STATUS_OK:
            top = record.top
            if len(top) != min(record.k, record.n):
                problems.append(f"{len(top)} indices for k={record.k}, n={record.n}")
            if len(set(top)) != len(top):
                problems.append("repeated index")
            if any(not 0 <= i < record.n for i in top):
                problems.append("index out of range")
        if problems:
            failed += 1
            errors.append(f"{record.rid}: {', '.join(problems)}")
    for rid, count in reported.items():
        errors.append(f"{rid}: {count} statuses for a request never submitted")
    return errors, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True, choices=range(workloads.PARTS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this .npz file")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed, args.part)
    tracer = tracing.Tracer()
    calibrate.kernel()  # warm-up, untimed
    calibration = [calibrate.timed() for _ in range(CALIBRATE_REPEATS)]
    if args.trace:
        tracer.install()

    # Set-up is short, so one reading is mostly noise: build the stack
    # several times (once when tracing, so that spans cover one stack) and
    # keep the median.  The previous stack is collected before each timed
    # build, so no build pays for freeing another and only one stack is
    # live at a time.  The last stack serves.
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        stack = None
        gc.collect()
        start = time.process_time()
        stack = workload.setup(inputs)
        setup_times.append(time.process_time() - start)
        calibration.append(calibrate.timed())
    setup_cpu_s = statistics.median(setup_times)
    gc.collect()

    wall = time.perf_counter()
    start = time.process_time()
    outcome = workload.serve(stack)
    serve_cpu_s = time.process_time() - start
    serve_wall_s = time.perf_counter() - wall

    if args.trace:
        tracer.uninstall()
    calibration += [calibrate.timed() for _ in range(CALIBRATE_REPEATS)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.reference(stack, outcome)
    samples, components = workload.summarize(stack, outcome)
    unknown = set(components) - set(workloads.COMPONENTS)
    if unknown:
        raise KeyError(f"components not in workloads.COMPONENTS: {sorted(unknown)}")
    components = {name: components.get(name, 0.0) for name in workloads.COMPONENTS}
    errors, failed = check(outcome)
    errors += outcome.errors
    result = {
        "setup_cpu_s": setup_cpu_s,
        "serve_cpu_s": serve_cpu_s,
        "serve_wall_s": serve_wall_s,
        "calibrate_cpu_s": calibration,
        "peak_rss_mib": peak_rss_mib,
        "samples": samples,
        "digest": workloads.selection_digest(outcome.records),
        "attempted": len(outcome.records),
        "failed": failed,
        "errors": errors[:20],
    }
    if args.trace:
        result["layers"] = {**tracer.layer_metrics(), **components}
        result["fired"] = tracer.fired
        result["spans"] = tracer.num_spans
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

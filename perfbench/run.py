"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is ``workloads.PARTS`` parts.  Each part runs in a fresh child
process (``child.py``) with BLAS and OpenMP threads pinned to 1 and a
fixed hash seed.  A run serves every part once, then goes round the
parts again while children fit in ``--seconds``.  Host metrics are
medians over the children, except ``host_cpu_s``, the sum over the parts
of each part's median serving CPU; virtual-clock metrics pool the
samples of all parts.  Host metrics are given at reference speed: each
child also times the calibration kernel (``calibrate.py``), and the
run's CPU seconds are scaled by ``calibrate.speed_factor``.
A repeated part must produce the same selections and samples.

With ``--trace 1`` part 0 runs once with the layer wrappers installed
(``tracer.py``) and the per-layer metrics come from it; its samples and
selection digest must equal the untraced part 0's, and its extra serving
CPU time is reported as the tracing overhead.

Each part's selection digest is compared with the value recorded for the
seed in ``digests.json`` (``record_digests.py`` writes it).  A failed check
prints the result with ``"correct": false`` and exits with code 1.  Raw
results, with the wall time of every child, go to ``.perfbench_out/``.
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
OUT = ROOT / ".perfbench_out"
#: No further child starts past this much wall time, so that a run ends
#: well within three minutes even with a long ``--seconds``.
RUN_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, part: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--part", str(part)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: child process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_wall_s"] = time.perf_counter() - started
    result["part"] = part
    return result


def consistency_errors(reps: list[dict], traced: dict | None, recorded: list | None) -> list[str]:
    errors = [error for rep in reps for error in rep["errors"]]
    first: dict[int, dict] = {}
    for rep in reps:
        seen = first.setdefault(rep["part"], rep)
        if rep["digest"] != seen["digest"] or rep["samples"] != seen["samples"]:
            errors.append(f"part {rep['part']} differs between repetitions")
    if traced is not None:
        errors += traced["errors"]
        untraced = first[traced["part"]]
        if traced["digest"] != untraced["digest"] or traced["samples"] != untraced["samples"]:
            errors.append("the traced run's selections or samples differ from the untraced run")
    if recorded is not None:
        for part, rep in first.items():
            if rep["digest"] != recorded[part]:
                errors.append(f"part {part}: digest {rep['digest']} != recorded {recorded[part]}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import calibrate
        import workloads
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}")

    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    traced = None
    if args.trace:
        traced = run_child(args.workload, args.seed, 0, spans=OUT / f"spans-{args.workload}.npz")
    # Children go round the parts in turn, so that every part is served
    # about equally often; another child starts while it fits in
    # --seconds.  Untraced runs go round every part; traced runs repeat
    # part 0, untraced, for the comparison and the overhead.
    parts = [0] if args.trace else list(range(workloads.PARTS))
    limit = min(args.seconds, RUN_LIMIT_S)
    reps: list[dict] = []
    while True:
        reps.append(run_child(args.workload, args.seed, parts[len(reps) % len(parts)]))
        elapsed = time.perf_counter() - start
        if len(reps) >= len(parts) and elapsed * (len(reps) + 1) / len(reps) > limit:
            break

    digests = json.loads((HERE / "digests.json").read_text())
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    errors = consistency_errors(reps, traced, recorded)
    children = reps + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = attempted if errors else sum(c["failed"] for c in children)

    # Host times at reference speed (calibrate.py), from the calibration
    # samples of every child of the run.
    speed = calibrate.speed_factor([t for c in children for t in c["calibrate_cpu_s"]])
    # Serving CPU of the whole workload: the sum over the parts of each
    # part's median.  The sum weighs every part's inputs, where a median
    # over unequal parts would rest on the middle two.
    part_cpu_s = sum(
        statistics.median(r["serve_cpu_s"] for r in reps if r["part"] == part) for part in parts
    )
    host_cpu_s = part_cpu_s * speed
    by_part = {r["part"]: r for r in reversed(reps)}
    if args.trace:
        values = {
            name: value * speed if name.endswith(".self_cpu_s") else value
            for name, value in traced["layers"].items()
        }
        values["trace.host_cpu_s"] = traced["serve_cpu_s"] * speed
        values["trace.overhead_cpu_s"] = traced["serve_cpu_s"] * speed - host_cpu_s
        values["trace.spans"] = traced["spans"]
        wanted = spec["per_layer"]
        requests = None
    else:
        values = workloads.metrics_from_samples([by_part[p]["samples"] for p in parts])
        requests = values.pop("requests")
        values["setup_s"] = statistics.median(r["setup_cpu_s"] for r in reps) * speed
        values["host_cpu_s"] = host_cpu_s
        values["host_peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in reps)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digests": [by_part[p]["digest"] for p in parts],
        "recorded_digests": recorded,
        "requests": requests,
        "unscaled": {
            "setup_cpu_s": statistics.median(r["setup_cpu_s"] for r in reps),
            "host_cpu_s": part_cpu_s,
            "speed_factor": speed,
        },
        "children": reps,
        "traced": traced,
        "errors": errors,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1)
    )

    print(f"workload {args.workload}  seed {args.seed}  parts {len(parts)}  children {len(reps)}")
    if requests is not None:
        print(f"PRISM requests completed, pooled over parts: {requests}")
    print(
        "child wall s (reference only): " + " ".join(f"{r['child_wall_s']:.2f}" for r in reps)
    )
    if recorded is None:
        print("selection digest: no recorded value for this seed; repeated parts compared only")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for error in errors[:20]:
        print(f"ERROR {error}")
    correct = not errors
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

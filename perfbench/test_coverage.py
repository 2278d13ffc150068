"""Coverage check of the benchmark's design claims, from one traced run per workload.

Each workload is chosen to exercise some layers and bypass others
(README.md, "Which layer moves which metric").  This check runs part 0
of every workload once with the layer wrappers installed and asserts:

* the numeric forward kernels and weight synthesis are bypassed
  (zero calls) on ``table3-grid`` and ``fleet-traffic``;
* the fleet planes (``core.fleet``, ``core.tenancy``, ``core.data_plane``)
  have zero calls outside ``fleet-traffic``;
* the device scheduler has zero calls on the closed-loop engine workloads;
* the baselines have zero calls on the serving workloads, whose
  reference sweep runs untraced;
* ``long-list`` writes to the SSD and ``fleet-traffic`` does not;
* every wrapped function fires on at least one workload, so a renamed
  public function cannot leave its layer silently unmeasured.

Run with ``python3 perfbench/test_coverage.py`` (exits non-zero on a failed
claim) or ``python3 -m pytest perfbench/test_coverage.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env  # noqa: E402

WORKLOADS = ("table3-grid", "fleet-traffic", "device-gang", "long-list")
SEED = 0


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload]
        + ["--seed", str(SEED), "--part", "0", "--trace"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced child failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def claim_failures(runs: dict[str, dict]) -> list[str]:
    failures = []

    def expect(ok: bool, claim: str) -> None:
        if not ok:
            failures.append(claim)

    layers = {name: run["layers"] for name, run in runs.items()}
    for workload in ("table3-grid", "fleet-traffic"):
        for layer in ("model.forward", "model.weights"):
            calls = layers[workload][f"{layer}.calls"]
            expect(calls == 0, f"{layer}.calls == 0 on {workload} (got {calls})")
    for workload in WORKLOADS:
        if workload == "fleet-traffic":
            continue
        for layer in ("core.fleet", "core.tenancy", "core.data_plane"):
            calls = layers[workload][f"{layer}.calls"]
            expect(calls == 0, f"{layer}.calls == 0 on {workload} (got {calls})")
    for workload in ("table3-grid", "long-list"):
        calls = layers[workload]["core.scheduler.calls"]
        expect(calls == 0, f"core.scheduler.calls == 0 on {workload} (got {calls})")
    for workload in ("fleet-traffic", "device-gang"):
        calls = layers[workload]["baselines.calls"]
        expect(calls == 0, f"baselines.calls == 0 on {workload} (got {calls})")
    expect(layers["long-list"]["device.ssd.write_mib"] > 0, "device.ssd.write_mib > 0 on long-list")
    expect(
        layers["fleet-traffic"]["device.ssd.write_mib"] == 0,
        "device.ssd.write_mib == 0 on fleet-traffic",
    )
    for wrapper in runs[WORKLOADS[0]]["fired"]:
        fired = [name for name, run in runs.items() if run["fired"][wrapper] > 0]
        expect(bool(fired), f"{wrapper} fires on at least one workload")
    for name, run in runs.items():
        expect(not run["errors"], f"{name} passes its correctness checks: {run['errors'][:3]}")
    return failures


def test_design_claims():
    runs = {workload: traced(workload) for workload in WORKLOADS}
    assert claim_failures(runs) == []


if __name__ == "__main__":
    runs = {workload: traced(workload) for workload in WORKLOADS}
    failures = claim_failures(runs)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("coverage check:", "failed" if failures else "all claims hold")
    sys.exit(1 if failures else 0)

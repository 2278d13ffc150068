"""Record the selection digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py FIRST LAST

Runs every part of every workload once per seed, untraced, and writes
the per-part digests into ``digests.json``, keeping values already
recorded.  A recorded value that differs from a fresh one is an error:
selections must not change unless the change to the program says why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import run_child  # noqa: E402

DIGESTS = HERE / "digests.json"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    digests = json.loads(DIGESTS.read_text())
    mismatches = []
    for name in (w["name"] for w in spec["workloads"]):
        for seed in range(args.first, args.last + 1):
            digest = []
            for part in range(workloads.PARTS):
                result = run_child(name, seed, part)
                if result["errors"]:
                    raise SystemExit(f"{name} seed {seed} part {part}: {result['errors'][:3]}")
                digest.append(result["digest"])
            recorded = digests.setdefault(name, {}).get(str(seed))
            if recorded is not None and recorded != digest:
                mismatches.append(f"{name} seed {seed}: digests differ from the recorded ones")
            digests[name][str(seed)] = recorded or digest
    digests = {
        name: dict(sorted(digests[name].items(), key=lambda kv: int(kv[0])))
        for name in sorted(digests)
    }
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

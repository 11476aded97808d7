"""Regenerate ``reference.json``: the pinned outputs ``run.py`` checks against.

Usage (from the repository root)::

    python3 fleetbench/pin_reference.py --seeds 0-15

Runs each workload once per seed and records its fingerprint, per-camera
detection digests and per-camera mAP.  Re-pin only for a change that is
meant to alter the simulated behaviour, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import SRC, run_workload, setup


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    """Pin every workload's outputs for the requested seeds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-15 or 0,3,5")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)

    import checks
    from workloads import WORKLOADS

    reference: dict = {}
    student = None
    for name, workload in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            if student is None:
                _, student, _ = setup(workload, seed)
            cameras = workload.cameras(seed)
            _, run = run_workload(workload, student, cameras)
            reference.setdefault(name, {})[str(seed)] = checks.outputs(run)
            print(f"{name} seed {seed}: {run.fleet.fingerprint()[:16]}", flush=True)
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(checks.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

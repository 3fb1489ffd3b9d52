"""Recompute the committed reference digests.

Run from the repository root after a change that is meant to alter
detections::

    python3 perfbench/digests.py

Each entry is the sha256 of the solo sequential batch-1 detections of a
workload's generated scenes for one seed; the benchmark fails a run on
a committed seed whose reference no longer matches.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS, reference_digest
    digests = {workload: {str(seed): reference_digest(workload, seed)
                          for seed in SEEDS}
               for workload in WORKLOADS}
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the `decide` verdict digests that runs are checked against.

    python3 perfbench/record_digests.py

For each seed in SEEDS, hashes the verdict JSON of the workload's first OPS
queries into `perfbench/digests.json`.  Record from a commit whose verdicts
are trusted: a later run with one of these seeds fails when any of those
verdicts or countermodels changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(100)
OPS = 300


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import oracles
    import workloads
    seeds = {}
    for seed in SEEDS:
        wl = workloads.make("decide", seed, ROOT)
        wl.setup()
        seeds[str(seed)] = oracles.digest([wl.run(wl.op(i))
                                           for i in range(OPS)])
    workloads.DIGESTS.write_text(json.dumps(
        {"decide": {"ops": OPS, "seeds": seeds}}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

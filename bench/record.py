"""Record the output digest of every operation any seed can draw.

Run from the root of a mialib checkout at the commit whose outputs are the
reference:

    python3 bench/record.py

It rewrites ``bench/expected.json`` and refuses to record an operation
whose outcome contradicts its construction.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    run.load_library(root)
    from workloads import catalogue

    digests = {}
    for workload in ("refine", "operators", "files"):
        workdir = run.work_dir(root, workload)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = catalogue(workload, workdir)
        for op in ops:
            result = op.run()
            problem = run.check(op, result, None, set())
            if problem is not None:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = op.outcome(result)[0]
        print(f"{workload}: {len(ops)} operations recorded", flush=True)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

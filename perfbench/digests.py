"""Reprint the output digests stored in benchmark run records.

    python3 perfbench/digests.py                 # every record under perfbench/out/runs
    python3 perfbench/digests.py RECORD.json ... # chosen records

Each line gives the workload, the seed, the git commit of the run and the
sha256 of the workload's first model or prediction file.  Two commits whose
lines agree for the same workload and seed produced identical outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parent / "out" / "runs"


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted(RUNS.glob("*.json"))
    if not paths:
        print(f"no run records under {RUNS}", file=sys.stderr)
        return 1
    for path in paths:
        rec = json.loads(path.read_text())
        sha = rec["environment"]["git_sha"] or "unknown-commit"
        for key, value in sorted(rec["digests"].items()):
            print(f"{rec['workload']}\tseed={rec['seed']}\t{sha[:12]}\t{key}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

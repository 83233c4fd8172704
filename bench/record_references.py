"""Store checked answers as references for their (workload, seed).

    python3 bench/record_references.py

Every benchmark run keeps each answer that passed all its checks in
.bench_out/answers/<workload>-<seed>.json.  This adds those answers to
references.json.  An existing reference is never overwritten; a kept answer
that disagrees with one is reported and the script exits 1.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from run import OUT_DIR, REFERENCES
from workloads import WORKLOADS


def dump(refs: dict) -> str:
    """JSON with one line per (workload, seed), seeds in numeric order."""
    blocks = []
    for w in sorted(refs):
        seeds = sorted(refs[w], key=int)
        lines = [f"    {json.dumps(s)}: {json.dumps(refs[w][s], sort_keys=True)}" for s in seeds]
        blocks.append(f"  {json.dumps(w)}: {{\n" + ",\n".join(lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    added = conflicts = 0
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "answers", "*.json"))):
        workload, _, seed = os.path.basename(path)[: -len(".json")].rpartition("-")
        if workload not in WORKLOADS:
            continue
        with open(path) as fh:
            view = json.load(fh)
        table = refs.setdefault(workload, {})
        if seed not in table:
            table[seed] = view
            added += 1
        elif table[seed] != view:
            print(f"{workload} seed {seed}: kept answer differs from the stored reference", file=sys.stderr)
            conflicts += 1
    with open(REFERENCES, "w") as fh:
        fh.write(dump(refs))
    print(f"added {added} references, {conflicts} conflicts")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check the pinned stdouts of the ribbonsyz CLI against tests/golden/pins.json.

Every pinned stdout has one entry in the manifest: its id, its argv without
the program name, the sha256 of its stdout, where it is checked ("tier1":
the pytest suite and the run-time-dependency CI legs; "ci": the full CI job
only) and why it is pinned.  This reader uses the standard library alone, so
it runs where only the program's run-time dependencies are installed.

    python tests/pins.py run WHERE       run each WHERE entry through the installed ribbonsyz
    python tests/pins.py check ID FILE   check a stdout that an earlier step wrote to FILE

Both exit 1 if a stdout differs from its pin.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).parent / "golden" / "pins.json"
WHERES = ("tier1", "ci")


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text())


def entries(where: str) -> list[dict]:
    return [entry for entry in load() if entry["where"] == where]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _report(entry: dict, got: str) -> bool:
    ok = got == entry["sha256"]
    print(f"{'ok' if ok else 'FAILED'}  {entry['id']}: ribbonsyz {' '.join(entry['argv'])}", flush=True)
    if not ok:
        print(f"    stdout sha256 {got}, pinned {entry['sha256']}", flush=True)
    return ok


def run(where: str) -> bool:
    ok = True
    for entry in entries(where):
        proc = subprocess.run(["ribbonsyz", *entry["argv"]], stdout=subprocess.PIPE)
        if proc.returncode:
            print(f"FAILED  {entry['id']}: exit {proc.returncode}", flush=True)
            ok = False
            continue
        ok &= _report(entry, digest(proc.stdout))
    return ok


def check(pin_id: str, path: str) -> bool:
    by_id = {entry["id"]: entry for entry in load()}
    if pin_id not in by_id:
        sys.exit(f"no pin {pin_id!r} in {MANIFEST}")
    return _report(by_id[pin_id], digest(Path(path).read_bytes()))


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "run" and argv[1] in WHERES:
        return 0 if run(argv[1]) else 1
    if len(argv) == 3 and argv[0] == "check":
        return 0 if check(argv[1], argv[2]) else 1
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

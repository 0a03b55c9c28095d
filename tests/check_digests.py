"""Compare the report digests in a ``bench/run.py`` log with ``digests.json``.

    python3 tests/check_digests.py bench.log

Every ``workload <name>  seed <n>  digest <hex>`` line of the log must
match the digest pinned for that workload and seed.  Exits 1 on a
mismatch, on a workload and seed with no pinned digest, and on a log
with no digest line at all.  A change that means to move report bits
updates ``digests.json`` and lists the changed cells.
"""

import json
import re
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("digests.json")
DIGEST_LINE = re.compile(r"^workload (\S+)\s+seed (\d+)\s+digest (\S+)$", re.MULTILINE)


def main(log_path: str) -> int:
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    found = DIGEST_LINE.findall(Path(log_path).read_text(encoding="utf-8"))
    if not found:
        print(f"{log_path}: no digest lines")
        return 1
    mismatches = 0
    for workload, seed, digest in found:
        expected = pinned.get(workload, {}).get(seed)
        verdict = "ok" if digest == expected else "MISMATCH"
        mismatches += digest != expected
        print(f"{workload} seed {seed}: digest {digest}, pinned {expected}: {verdict}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

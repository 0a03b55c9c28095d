"""Compare report digests with the ones pinned in ``digests.json``.

    python3 tests/check_digests.py bench.log
    python3 tests/check_digests.py desk_grid report.csv

With one argument, every ``workload <name>  seed <n>  digest <hex>`` line
of a ``bench/run.py`` log must match the digest pinned for that workload
and seed.  With two, the SHA-256 of the report file without its ``#``
manifest lines must match the one pinned under that name (``desk_grid`` is
``mvlab simulate`` on the default grid).  Exits 1 on a mismatch, on a
workload, seed or name with no pinned digest, and on a log with no digest
line at all.  A change that means to move report bits updates
``digests.json`` and lists the changed cells.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("digests.json")
DIGEST_LINE = re.compile(r"^workload (\S+)\s+seed (\d+)\s+digest (\S+)$", re.MULTILINE)


def check_log(pinned: dict, log_path: str) -> int:
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


def check_report(pinned: dict, name: str, report_path: str) -> int:
    with open(report_path, encoding="utf-8") as handle:
        body = "".join(line for line in handle if not line.startswith("#"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    expected = pinned.get(name)
    verdict = "ok" if digest == expected else "MISMATCH"
    print(f"{name} {report_path}: sha256 {digest}, pinned {expected}: {verdict}")
    return 0 if digest == expected else 1


def main(argv: list[str]) -> int:
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if len(argv) == 1:
        return check_log(pinned, argv[0])
    if len(argv) == 2:
        return check_report(pinned, *argv)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

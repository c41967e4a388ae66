"""Print a digest of the benchmark's values, to show a change moves none.

For each workload of ``perfbench/workloads.py`` this runs pass 0 of seeds
1-3, the ops the benchmark runs first, and prints the number of values and
the SHA-256 of their ``float.hex`` forms, one per line in op order.  An op
that raises adds a line ``failed`` with the exception's repr, is counted
and is reported on stderr.  Two commits whose digests match returned the
same values bit for bit.

    python tools/value_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, make_pass  # noqa: E402

SEEDS = (1, 2, 3)


def digest(name: str) -> tuple[int, int, str]:
    """(values, failed ops, SHA-256 hex) of pass 0 of SEEDS."""
    wl = WORKLOADS[name]
    sha = hashlib.sha256()
    values = failed = 0
    for seed in SEEDS:
        for op in make_pass(wl, seed, 0):
            try:
                lines = [float.hex(v) for v in wl.execute(op)]
                values += len(lines)
            except Exception as exc:  # a failed op is part of the outcome
                print(f"{name}: seed {seed}: op failed: {exc!r}",
                      file=sys.stderr)
                lines = [f"failed {exc!r}"]
                failed += 1
            sha.update("".join(f"{line}\n" for line in lines).encode())
    return values, failed, sha.hexdigest()


def main() -> None:
    for name in WORKLOADS:
        values, failed, hexdigest = digest(name)
        print(f"{name}: {values} values, {failed} failed, sha256 {hexdigest}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Rewrite the reference reports of every fixed-input operation.

    python3 perfbench/capture_reference.py

Run from the root of a checkout of the commit whose reports are the
reference.  A later change passes the benchmark only if each of these
reports stays byte-identical.
"""

import sys
from pathlib import Path

import checks
import workloads
from run import Runner


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with Runner(Path.cwd(), "capture", 0) as runner:
        for op in workloads.fixed_ops():
            rec = runner.spawn("timed", op)
            bad = [r for r in rec["reasons"] if not r.startswith(("no reference", "report differs"))]
            if bad:
                print(f"{op['name']}: {'; '.join(bad)}", file=sys.stderr)
                return 1
            (checks.REFERENCE_DIR / f"{op['ref']}.json").write_bytes(rec["stdout"])
            print(f"{op['ref']}: {len(rec['stdout'])} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

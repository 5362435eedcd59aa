"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py MODE OP_JSON [TRACE_PATH]

MODE is ``timed``, ``spans`` or ``counts``.  The worker imports ``wres.cli``,
writes ``#perfbench-ready <perf_counter>`` as the first line of stderr (the
clock is CLOCK_MONOTONIC, shared with the parent), runs the operation, writes
``#perfbench-hwm <kB>`` (its peak RSS) to stderr and exits with the
operation's status.  A ``cli`` operation prints exactly what ``wres <argv>``
prints; a ``res_partial`` operation prints a deterministic JSON report of the
six leftover-term functionals.  In the traced modes the worker also writes the
trace record to TRACE_PATH.
"""

import sys
import time


def res_partial_report(boundary, kinds) -> tuple[str, bool]:
    import json

    results = []
    for kind in kinds:
        r = boundary.res_partial(kind)
        results.append({"kind": kind, "raw": r.raw.json_obj(),
                        "igrb_multiple": r.igrb_multiple.json_obj(),
                        "expected": r.expected.json_obj(), "pass": r.passes})
    payload = {"command": "res_partial", "results": results,
               "checks": [{"name": r["kind"], "pass": r["pass"]} for r in results]}
    return json.dumps(payload, sort_keys=True, indent=2), all(r["pass"] for r in results)


def peak_rss_kb():
    """VmHWM of this process.  Unlike the ru_maxrss that wait4 returns, it
    does not start from the parent's RSS at the fork before exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    import json

    mode, op = sys.argv[1], json.loads(sys.argv[2])
    from wres import boundary, cli

    sys.stderr.write(f"#perfbench-ready {time.perf_counter()!r}\n")
    sys.stderr.flush()
    tracer = None
    if mode != "timed":
        from tracing import Tracer

        tracer = Tracer(mode, op["op_id"], op["sample_seed"]).install()
    try:
        if op["kind"] == "res_partial":
            text, ok = res_partial_report(boundary, op["params"]["kinds"])
            print(text)
            return 0 if ok else 1
        return cli.main(op["argv"])
    finally:
        if tracer is not None:
            tracer.finish(sys.argv[3])
        hwm = peak_rss_kb()
        if hwm is not None:
            sys.stderr.write(f"#perfbench-hwm {hwm}\n")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Cold-process benchmark of wres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop with one client: the runner
starts one worker process at a time, each runs a single CLI call (or the
``res_partial`` library call) and exits, so every operation pays what a wres
user pays on every run, and no cache survives from one operation to the next.

Workloads are sequences of blocks (see workloads.py); a timed run issues
operations until ``--seconds`` have passed and at least one block is
complete.  Every report is checked (checks.py).  Times are calibrated
against a host-speed kernel timed between operations (calib.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the traced passes (tracing.py) and prints the per-layer metrics.  The
last line of stdout is the result object; the line before it carries
diagnostics (raw seconds, calibration median and IQR, per-operation
latencies, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import tracing
import workloads
from tracing import EVALS

WORKER = Path(__file__).resolve().parent / "worker.py"
TRACE_FILE = "trace.json"
# A run must end within 180 s; a worker still running at this point is killed
# and the run fails without a result.
RUN_LIMIT_S = 165.0
READY_LINE = re.compile(rb"^#perfbench-ready (\S+)\n", re.M)
HWM_LINE = re.compile(rb"^#perfbench-hwm (\d+)\n", re.M)

# per-operation latencies the diagnostics (and the traced run) report by name
OP_METRICS = ("verify_dim4_s", "verify_dim5_21_s", "verify_dim6_s", "verify_light_s",
              "res_partial_s", "oracle_s", "rw_s", "heat_s")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


class RunTimeout(RuntimeError):
    """The run would not end in time."""


def _alarm(signum, frame):
    raise RunTimeout(f"a worker was still running {RUN_LIMIT_S:.0f} s after the run started")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summary(values) -> dict:
    """Median, the highest listed percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(values)
    out = {"median": statistics.median(values) if values else 0.0, "n": n}
    ordered = sorted(values)
    for pct in (99, 95, 90, 75, 50):
        k = math.ceil(n * pct / 100) - 1  # nearest rank
        if n - 1 - k >= 10:
            out[f"p{pct}"] = ordered[k]
            break
    return out


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.run_dir = root / workloads.RUN_DIR
        self.references = checks.load_references()
        self.cal_points: list[list[float]] = []
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("WRES_", "PYTHON"))}
        # A fixed hash seed makes the traced counts repeat exactly.  One BLAS
        # thread: numpy's and scipy's OpenBLAS pools otherwise spin up at import
        # and make a cold start depend on whether the other core is free.
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def __enter__(self):
        self.run_dir.mkdir(exist_ok=True)
        self._previous_alarm = signal.signal(signal.SIGALRM, _alarm)
        return self

    def __exit__(self, *exc):
        signal.signal(signal.SIGALRM, self._previous_alarm)
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def calibrate(self):
        self.cal_points.append(calib.point())

    def apply_scales(self, recs):
        """Calibrate every record by the kernel times around it (calib.scale)."""
        for r in recs:
            r["scale"] = calib.scale(self.cal_points, r["cal_index"])

    def spawn(self, mode: str, op: dict, importtime: bool = False) -> dict:
        """Run one operation in a fresh worker and check its report."""
        for rel, text in op["files"].items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        trace_path = self.run_dir / TRACE_FILE
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(WORKER), mode, json.dumps(op), str(trace_path)]
        out_path, err_path = self.run_dir / "stdout", self.run_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            signal.setitimer(signal.ITIMER_REAL, max(self.hard_deadline - start, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        ready = None
        marker = READY_LINE.search(stderr)
        if marker:
            ready = float(marker.group(1))
            stderr = stderr[:marker.start()] + stderr[marker.end():]
        # the worker's own peak RSS; wait4's ru_maxrss is at least the
        # runner's RSS at the fork, so it serves only when the worker died
        rss_kb = usage.ru_maxrss
        hwm = HWM_LINE.search(stderr)
        if hwm:
            rss_kb = int(hwm.group(1))
            stderr = stderr[:hwm.start()] + stderr[hwm.end():]
        reasons = checks.check_op(op, proc.returncode, stdout, self.references)
        if ready is None:
            reasons.append("worker did not reach ready")
        rec = {"name": op["name"], "metric": op["metric"], "argv0": argv0(op),
               "latency": end - start, "setup": (ready - start) if ready else 0.0,
               "rss_kb": rss_kb, "bytes": len(stdout), "reasons": reasons,
               "stdout": stdout, "stderr": stderr}
        if mode != "timed" and trace_path.exists():
            rec["trace"] = json.loads(trace_path.read_text())
        elif mode != "timed":
            reasons.append("worker wrote no trace")
        return rec

    def run_op(self, mode: str, op: dict, block: int, index: int, **kw) -> dict:
        """Spawn between two calibration points."""
        op = dict(op, op_id=f"b{block}.{index}.{op['name']}",
                  sample_seed=f"{self.workload}:{self.seed}")
        if not self.cal_points:
            self.calibrate()
        rec = self.spawn(mode, op, **kw)
        self.calibrate()
        rec["block"], rec["cal_index"] = block, len(self.cal_points) - 1
        if rec["reasons"]:
            print(f"FAILED {op['op_id']} ({mode}): {'; '.join(rec['reasons'])}", file=sys.stderr)
            tail = rec["stderr"].decode(errors="replace").strip().splitlines()[-5:]
            for line in tail:
                print(f"  | {line}", file=sys.stderr)
        return rec

    def run_block(self, mode: str, block: int, deadline: float | None = None, **kw):
        """All operations of one block; with a deadline, stop issuing once it passes.
        Returns the records and whether the block completed."""
        recs = []
        ops = workloads.block_ops(self.workload, self.seed, block)
        for i, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                return recs, False
            recs.append(self.run_op(mode, op, block, i, **kw))
        return recs, True

    def warm_up(self) -> list[dict]:
        """Compile the bytecode of a fresh checkout, then check the workload's
        untimed reference operations (block -1) before anything is timed."""
        rec = self.spawn("timed", {"name": "warm-up", "kind": "cli", "argv": ["--help"],
                                   "metric": None, "ref": None, "check": None,
                                   "params": {}, "files": {}})
        if not rec["setup"]:
            raise SetupError("the worker could not import wres:\n"
                             + rec["stderr"].decode(errors="replace"))
        return [self.run_op("timed", op, -1, i)
                for i, op in enumerate(workloads.untimed_ops(self.workload))]


# ---------------------------------------------------------------------------
# end-to-end metrics (timed run)
# ---------------------------------------------------------------------------

def op_latencies(recs) -> dict[str, list[float]]:
    """Calibrated latencies per named metric; verify_light_s sums the three
    light scenarios of a block."""
    out = {name: [] for name in OP_METRICS}
    light: dict[int, list[float]] = {}
    for r in recs:
        value = r["latency"] * r["scale"]
        if r["metric"] == "verify_light_s":
            light.setdefault(r["block"], []).append(value)
        elif r["metric"] in out:
            out[r["metric"]].append(value)
    n_light = sum(1 for _, _, m in workloads.SCENARIOS if m == "verify_light_s")
    out["verify_light_s"] = [sum(v) for v in light.values() if len(v) == n_light]
    return {k: v for k, v in out.items() if v}


def timed_metrics(recs, complete_blocks) -> tuple[dict, dict]:
    recs = [r for r in recs if r["block"] >= 0]
    lat = [r["latency"] * r["scale"] for r in recs]
    setup = [r["setup"] * r["scale"] for r in recs]
    walls = [sum(r["latency"] * r["scale"] for r in recs if r["block"] == b)
             for b in complete_blocks]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_s": statistics.median(lat),
        "peak_rss_mb": max(r["rss_kb"] for r in recs) / 1024.0,
    }
    raw_walls = [sum(r["latency"] for r in recs if r["block"] == b) for b in complete_blocks]
    diag = {
        "blocks": len(complete_blocks),
        "setup_s": summary(setup),
        "wall_s": summary(walls),
        "op_s": summary(lat),
        "raw": {"setup_s": statistics.median(r["setup"] for r in recs),
                "wall_s": statistics.median(raw_walls),
                "op_s": statistics.median(r["latency"] for r in recs)},
        "ops": {name: summary(v) for name, v in op_latencies(recs).items()},
    }
    return values, diag


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------

IMPORT_LINE = re.compile(rb"^import time:\s*(\d+) \|\s*(\d+) \| ( *)(\S+)\s*$", re.M)


def import_costs(stderr: bytes) -> dict[str, float]:
    """Cumulative import seconds of wres, numpy and scipy from -X importtime.

    wres and scipy sum their top-level entries (a lazily imported
    ``scipy.integrate`` is its own entry); numpy is its first entry, at
    whatever depth it was first imported.
    """
    out = {"wres": 0.0, "numpy": 0.0, "scipy": 0.0}
    numpy_seen = False
    for _self_us, cum_us, indent, name in IMPORT_LINE.findall(stderr):
        name, secs, top = name.decode(), int(cum_us) / 1e6, len(indent) == 0
        if top and (name == "wres" or name.startswith("wres.")):
            out["wres"] += secs
        elif top and (name == "scipy" or name.startswith("scipy.")):
            out["scipy"] += secs
        if name == "numpy" and not numpy_seen:
            out["numpy"], numpy_seen = secs, True
    return out


def span_figures(rec) -> tuple[dict, dict, dict]:
    """Per-operation totals from one span record: calls, total and self time
    (seconds, calibrated), by span name."""
    spans = rec["trace"]["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_t = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start) * rec["scale"]
        self_t[name] = self_t.get(name, 0.0) + (end - start - child[i]) * rec["scale"]
    return calls, total, self_t


def _add(acc: dict, items):
    for k, v in items:
        acc[k] = acc.get(k, 0) + v


def traced_metrics(timed_blocks, span_blocks, count_recs, import_recs, block0) -> tuple[dict, dict]:
    """Per-layer figures, named ``<span or counter>.<figure>``.

    From the first span block (deterministic): ``.calls`` of every span,
    ``.distinct_ratio`` (distinct keys / builds) of the memoisable builders,
    the quadrature's integrand ``.evals``.  From all span blocks: ``.self_s``
    and ``.s`` (total), summed over a block, median over blocks.  From the
    counter block: ``.calls`` of the high-volume operators and ``.ns`` per
    replayed call, median over operations.
    """
    m: dict[str, float] = {}
    for name in {p[3] for p in tracing.SPAN_POINTS}:
        m.update({f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.s": 0.0})
    for name in {p[3] for p in tracing.COUNT_POINTS}:
        m.update({f"{name}.calls": 0, f"{name}.ns": 0.0})

    span0 = span_blocks[0]
    calls, distinct = {}, {}
    for r in span0:
        _add(calls, span_figures(r)[0].items())
        _add(distinct, r["trace"]["distinct"].items())
    m.update((f"{k}.calls", v) for k, v in calls.items())
    for key in {p[3] for p in tracing.SPAN_POINTS if p[4] is not None}:
        m[f"{key}.distinct_ratio"] = distinct.get(key, 0) / calls[key] if calls.get(key) else 0.0
    m[EVALS] = sum(r["trace"]["counts"].get(EVALS, 0) for r in span0)

    per_block: dict[str, list[float]] = {}
    for i, blk in enumerate(span_blocks):
        sums = {}
        for r in blk:
            _, total, self_t = span_figures(r)
            _add(sums, ((f"{k}.s", v) for k, v in total.items()))
            _add(sums, ((f"{k}.self_s", v) for k, v in self_t.items()))
        for k, v in sums.items():
            per_block.setdefault(k, [0.0] * len(span_blocks))[i] = v
    m.update((k, statistics.median(v)) for k, v in per_block.items())

    counts, ns = {}, {}
    for r in count_recs:
        _add(counts, r["trace"]["counts"].items())
        for k, v in r["trace"]["ns"].items():
            ns.setdefault(k, []).append(v * r["scale"])
    m.update((f"{k}.calls", v) for k, v in counts.items())
    m.update((f"{k}.ns", statistics.median(v)) for k, v in ns.items())

    # the MatrixRep span is one build
    m["clifford.matrix_rep.builds"] = m["clifford.matrix_rep.calls"]
    m["clifford.matrix_rep.build_s"] = m["clifford.matrix_rep.s"]
    m["cli.report_bytes"] = sum(r["bytes"] for r in span0)

    # import costs: each operation of block 0 charged with its command's cost
    by_kind = {r["argv0"]: r for r in import_recs}
    for lib in ("wres", "numpy", "scipy"):
        per_op = [import_costs(by_kind[argv0(op)]["stderr"])[lib] * by_kind[argv0(op)]["scale"]
                  for op in block0]
        m[f"setup.import_{lib}_s"] = statistics.median(per_op)

    # tracing overhead and the named per-operation latencies, tracing off
    ratios = [sum(r["latency"] * r["scale"] for r in s) / sum(r["latency"] * r["scale"] for r in t)
              for s, t in zip(span_blocks, timed_blocks)]
    m["trace.overhead_ratio"] = statistics.median(ratios)
    lat = op_latencies([r for blk in timed_blocks for r in blk])
    for name in OP_METRICS:
        m[f"op.{name}"] = statistics.median(lat[name]) if name in lat else 0.0
    missing = sorted({x for r in span0 + count_recs for x in r["trace"]["missing"]})
    diag = {"span_blocks": len(span_blocks), "trace_overhead_ratios": ratios,
            "missing_hooks": missing}
    return m, diag


def argv0(op) -> str:
    return op["argv"][0] if op["argv"] else op["kind"]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, seconds: float):
    recs = runner.warm_up()
    deadline = time.perf_counter() + seconds
    complete, block = [], 0
    while True:
        blk, done = runner.run_block("timed", block, None if block == 0 else deadline)
        recs += blk
        if done:
            complete.append(block)
        if not done or time.perf_counter() >= deadline:
            break
        block += 1
    runner.apply_scales(recs)
    values, diag = timed_metrics(recs, complete)
    return recs, values, diag


def traced_run(runner: Runner, seconds: float):
    """Block 0 with tracing off, with spans, with counters, and once per
    command under -X importtime; then more (timed, spans) pairs of block 0
    while time remains."""
    untimed = runner.warm_up()
    deadline = time.perf_counter() + seconds
    block0 = workloads.block_ops(runner.workload, runner.seed, 0)
    timed_blocks = [runner.run_block("timed", 0)[0]]
    span_blocks = [runner.run_block("spans", 0)[0]]
    count_recs = runner.run_block("counts", 0)[0]
    firsts = {}
    for i, op in enumerate(block0):
        firsts.setdefault(argv0(op), (i, op))
    import_recs = [runner.run_op("timed", op, 0, i, importtime=True) for i, op in firsts.values()]
    pair = sum(r["latency"] for r in timed_blocks[0] + span_blocks[0])
    while time.perf_counter() + pair <= deadline:
        timed_blocks.append(runner.run_block("timed", 0)[0])
        span_blocks.append(runner.run_block("spans", 0)[0])
    recs = untimed + [r for blk in timed_blocks + span_blocks for r in blk] + count_recs + import_recs
    runner.apply_scales(recs)
    values, diag = traced_metrics(timed_blocks, span_blocks, count_recs, import_recs, block0)
    return recs, values, diag


def load_metric_specs(root: Path, trace: bool) -> dict[str, str]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wres" / "cli.py").is_file():
        print("error: run from the root of a wres checkout (src/wres/cli.py not found)",
              file=sys.stderr)
        return 2
    specs = load_metric_specs(root, bool(args.trace))
    try:
        with Runner(root, args.workload, args.seed) as runner:
            run = traced_run if args.trace else timed_run
            recs, values, diag = run(runner, args.seconds)
            cal = [x for point in runner.cal_points for x in point]
    except (SetupError, RunTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = sorted(set(specs) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    failed = [r for r in recs if r["reasons"]]
    q1, med, q3 = statistics.quantiles(cal, n=4)
    diag.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibration": {"ref_s": calib.CAL_REF_S, "median_s": med,
                        "iqr_share": (q3 - q1) / med, "samples": len(cal)},
        "failed_ops": len(failed) / len(recs),
        "failures": [{"op": r["name"], "block": r["block"], "reasons": r["reasons"]} for r in failed],
    })
    print(json.dumps({"diagnostics": diag}, sort_keys=True))
    result = {"correct": not failed, "attempted": len(recs), "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

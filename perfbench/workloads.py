"""Seeded operation lists for the three benchmark workloads.

A workload is an endless sequence of blocks.  Block ``i`` of workload ``w``
at seed ``s`` is a pure function of ``(w, s, i)``: the seed fixes the
operation order and every generated input, and the program under test only
ever sees the generated argv and config files.

An operation is a dict:

    name    unique within its block
    kind    "cli" (argv for ``wres``) or "res_partial"
    argv    the ``wres`` command line (cli kind)
    metric  the per-operation latency it feeds, e.g. "verify_dim4_s"
    ref     name of the committed reference report it must match byte for
            byte, or None for seeded inputs
    check   independent check to run on the report: "oracle", "heat", "rw"
            or None
    params  inputs of the independent check
    files   {relative path: text} written before the operation runs
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("boundary-tables", "oracle-suites", "warped-heat")

# Generated inputs live here, relative to the checkout root (see .gitignore).
RUN_DIR = ".perfbench_run"

# The six registered boundary scenarios: (dim, powers, per-op metric).
SCENARIOS = [
    (4, "1,1", "verify_dim4_s"),
    (6, "2,2", "verify_dim6_s"),
    (5, "2,1", "verify_dim5_21_s"),
    (3, "1,1", "verify_light_s"),
    (5, "2,2", "verify_light_s"),
    (4, "2,1", "verify_light_s"),
]

RES_KINDS = ("res11", "res21", "res22", "res23", "res21_51", "res22_51")

# The four runs of scripts/rw_action.py: (warp, curvature, interval).
RW_FIXED = [
    ("1", 0.0, (0.0, 1.0)),
    ("exp(t)", 1.0, (0.0, 1.0)),
    ("2+sin(t)", -1.0, (0.5, 1.5)),
    ("cosh(t)", 1.0, (-0.5, 0.5)),
]

# name -> (config path, p, q, vol); the values repeat what the file says
HEAT_FIXED = {
    "heat_closed": ("perfbench/inputs/heat_closed.cfg", 2, 2, "2"),
    "heat_bounded": ("perfbench/inputs/heat_bounded.cfg", 2, 1, "1"),
}

ORACLE_FIXED = ("7", "50")
ORACLE_COUNT = 100
# Seeds of the timed oracle runs.  A fixed pool gives every oracle run a
# reference report to match byte for byte.  It is a plain range, not a
# filtered one: `wres oracle` fails on some seeds (see README.md, "Known
# failing oracle seed"), and a benchmark run must not fail on the program's
# inputs.
ORACLE_POOL = range(1, 33)
# The pool in four strata by cost, cheapest first: cold-process latencies of
# 2.4-2.9 s, 3.0-3.1 s, 3.1-3.4 s and 3.5-4.4 s (calibrated, median of 2-11
# runs per seed).  A block draws one seed from each, so every block does about
# the same work and a run's medians do not depend on which seeds it drew.
ORACLE_STRATA = (
    (4, 5, 9, 13, 20, 21, 30, 32),
    (1, 11, 12, 17, 23, 24, 28, 29),
    (7, 8, 14, 16, 18, 22, 26, 31),
    (2, 3, 6, 10, 15, 19, 25, 27),
)
ORACLE_PER_BLOCK = len(ORACLE_STRATA)
RW_SEEDED_PER_BLOCK = 2
HEAT_SEEDED_PER_BLOCK = 2


def _op(name, argv=None, *, kind="cli", metric, ref=None, check=None, params=None, files=None):
    return {"name": name, "kind": kind, "argv": argv or [], "metric": metric,
            "ref": ref, "check": check, "params": params or {}, "files": files or {}}


def _scenario_name(dim, powers):
    return f"verify_dim{dim}_{powers.replace(',', '')}"


def fixed_ops() -> list[dict]:
    """Every operation whose report is compared with a committed reference."""
    ops = [_op(_scenario_name(dim, powers),
               ["verify-boundary", "--dim", str(dim), "--powers", powers],
               metric=metric, ref=_scenario_name(dim, powers))
           for dim, powers, metric in SCENARIOS]
    ops.append(_op("res_partial", kind="res_partial", metric="res_partial_s",
                   ref="res_partial", params={"kinds": list(RES_KINDS)}))
    for i, (warp, curv, (a, b)) in enumerate(RW_FIXED):
        ops.append(_op(f"rw_fixed{i}", _rw_argv(warp, curv, (a, b), 1.0), metric="rw_s",
                       ref=f"rw_fixed{i}", check="rw",
                       params={"warp": ["fixed", [warp]], "interval": [a, b], "base_vol": 1.0}))
    for name, (path, p, q, vol) in HEAT_FIXED.items():
        ops.append(_op(name, ["heat", "--config", path], metric="heat_s", ref=name,
                       check="heat", params={"p": p, "q": q, "vol": vol}))
    seed, count = ORACLE_FIXED
    ops.append(_op("oracle_fixed", ["oracle", "--seed", seed, "--count", count],
                   metric=None, ref="oracle_fixed", check="oracle",
                   params={"count": int(count)}))
    ops += [_oracle_op(s) for s in ORACLE_POOL]
    return ops


def _oracle_op(seed: int) -> dict:
    return _op(f"oracle_seed{seed}", ["oracle", "--seed", str(seed), "--count", str(ORACLE_COUNT)],
               metric="oracle_s", ref=f"oracle_seed{seed}", check="oracle",
               params={"count": ORACLE_COUNT})


def _rw_argv(warp, curv, interval, base_vol):
    a, b = interval
    # the "=" form keeps argparse from reading a negative value as an option
    return ["rw", f"--f={warp}", f"--interval={a!r},{b!r}", f"--curv={curv!r}",
            f"--base-vol={base_vol!r}", "--lambda=2"]


def _grid(rng, lo: str, hi: str, step: str) -> Fraction:
    """A value in [lo, hi] on a grid of ``step`` (quarters print exactly with %g)."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    return lo + step * rng.randint(0, int((hi - lo) / step))


def seeded_warp(rng: random.Random) -> dict:
    """A warp from a family that stays positive on every interval.

    Returns the warp text for ``wres rw`` and the parameters the benchmark's
    own evaluator uses for the independent check.
    """
    family = rng.choice(["sin+", "sin-", "exp", "cosh"])
    if family in ("sin+", "sin-"):
        c0 = _grid(rng, "1.5", "3", "0.25")
        c1 = _grid(rng, "0.25", str(c0 - Fraction(1, 2)), "0.25")
        c2 = _grid(rng, "0.5", "3", "0.25")
        sign = "+" if family == "sin+" else "-"
        text = f"{float(c0):g}{sign}{float(c1):g}*sin({float(c2):g}*t)"
        coeffs = [float(c0), float(c1) if sign == "+" else -float(c1), float(c2)]
        return {"text": text, "family": "sin", "coeffs": coeffs}
    c = _grid(rng, "0.25", "1.5", "0.25")
    text = f"{family}({float(c):g}*t)"
    return {"text": text, "family": family, "coeffs": [float(c)]}


def seeded_rw(rng: random.Random, name: str) -> dict:
    warp = seeded_warp(rng)
    a = float(_grid(rng, "-1", "0.5", "0.25"))
    b = a + float(_grid(rng, "0.5", "1.5", "0.25"))
    curv = float(rng.choice([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]))
    base_vol = float(rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))
    return _op(name, _rw_argv(warp["text"], curv, (a, b), base_vol), metric="rw_s",
               check="rw", params={"warp": [warp["family"], warp["coeffs"]],
                                   "interval": [a, b], "base_vol": base_vol})


_CLOSED_KEYS = ("r", "r2", "ric2", "riem2", "rfperp2")
_BOUNDARY_KEYS = ("L_aa", "L2_abab", "L2_aabb", "R_aNaN", "r_N", "L3_aabbcc",
                  "L3_ababcc", "L3_abbcac", "R_aNaN_L_bb", "R_aNbN_L_ab",
                  "R_abcb_L_ac", "L_aa_bb", "r_L_aa")


def _rational(rng) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 8)}"


def seeded_heat(rng: random.Random, name: str, block: int) -> dict:
    p, q = rng.randint(1, 3), rng.randint(0, 3)
    vol = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
    lines = [f"p = {p}", f"q = {q}", f"vol = {vol}"]
    lines += [f"{key} = {_rational(rng)}" for key in _CLOSED_KEYS]
    if rng.random() < 0.5:
        lines.append(f"bvol = {rng.randint(1, 9)}/{rng.randint(1, 4)}")
        lines += [f"{key} = {_rational(rng)}" for key in _BOUNDARY_KEYS]
    path = f"{RUN_DIR}/b{block}_{name}.cfg"
    return _op(name, ["heat", "--config", path], metric="heat_s", check="heat",
               params={"p": p, "q": q, "vol": vol}, files={path: "\n".join(lines) + "\n"})


def untimed_ops(workload: str) -> list[dict]:
    """Reference operations a run checks once, before timing starts.

    The oracle-suites blocks hold only ``--count 100`` runs from the seed
    pool, so that the timed figures are medians over those alone; the
    ``--count 50`` reference report is checked here instead.
    """
    if workload == "oracle-suites":
        return [op for op in fixed_ops() if op["name"] == "oracle_fixed"]
    return []


def block_ops(workload: str, seed: int, block: int) -> list[dict]:
    """Operation list of one block (one pass over the workload)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{block}")
    fixed = {op["name"]: op for op in fixed_ops()}
    if workload == "boundary-tables":
        ops = [fixed[_scenario_name(d, p)] for d, p, _ in SCENARIOS] + [fixed["res_partial"]]
    elif workload == "oracle-suites":
        ops = [fixed[f"oracle_seed{rng.choice(stratum)}"] for stratum in ORACLE_STRATA]
    else:
        ops = [fixed[f"rw_fixed{i}"] for i in range(len(RW_FIXED))]
        ops += [fixed[name] for name in HEAT_FIXED]
        ops += [seeded_rw(rng, f"rw{i}") for i in range(RW_SEEDED_PER_BLOCK)]
        ops += [seeded_heat(rng, f"heat{i}", block) for i in range(HEAT_SEEDED_PER_BLOCK)]
    ops = [dict(op) for op in ops]
    rng.shuffle(ops)
    return ops

"""Correctness checks on one operation's report.

An operation fails on a nonzero exit, a report that is not JSON, any report
check that is false, a fixed-input report that is not byte-identical to its
committed reference, or a failed independent check.  The independent checks
recompute one figure per report with code that shares nothing with wres.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Evaluators for the fixed warps of the rw runs, written with math directly.
_FIXED_WARPS = {
    "1": lambda t: 1.0,
    "exp(t)": math.exp,
    "2+sin(t)": lambda t: 2.0 + math.sin(t),
    "cosh(t)": math.cosh,
}


def load_references() -> dict[str, bytes]:
    return {path.stem: path.read_bytes() for path in sorted(REFERENCE_DIR.glob("*.json"))}


def warp_function(spec):
    family, coeffs = spec
    if family == "fixed":
        return _FIXED_WARPS[coeffs[0]]
    if family == "sin":
        c0, c1, c2 = coeffs
        return lambda t: c0 + c1 * math.sin(c2 * t)
    if family == "exp":
        c, = coeffs
        return lambda t: math.exp(c * t)
    if family == "cosh":
        c, = coeffs
        return lambda t: math.cosh(c * t)
    raise ValueError(f"unknown warp family {family!r}")


def simpson(fn, a: float, b: float, intervals: int = 4096) -> float:
    """Composite Simpson rule; the warps are smooth, so this is far below 1e-9."""
    h = (b - a) / intervals
    inner = [fn(a + k * h) * (4.0 if k % 2 else 2.0) for k in range(1, intervals)]
    return h / 3.0 * math.fsum([fn(a), fn(b), *inner])


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_oracle(report: dict, params: dict) -> str | None:
    suites = report.get("suites") or []
    if not suites:
        return "oracle report has no suites"
    for suite in suites:
        if suite.get("count") != params["count"]:
            return f"suite {suite.get('name')}: count {suite.get('count')} != {params['count']}"
        if suite.get("failures") != 0:
            return f"suite {suite.get('name')}: {suite.get('failures')} failures"
    return None


def check_heat(report: dict, params: dict) -> str | None:
    """a0 = total_dim * vol * (4 pi)^(-n/2), with n = 2p+q and total_dim = 2^(p+q)."""
    p, q = params["p"], params["q"]
    n, total_dim = 2 * p + q, 2 ** (p + q)
    coef = Fraction(total_dim) * Fraction(params["vol"]) / 2 ** n
    unit = [f"pi^{Fraction(-n, 2)}"]
    a0 = report["coefficients"]["a0"]
    if Fraction(a0["coef"]) != coef or a0["unit"] != unit:
        return f"heat a0 is {a0['coef']} {a0['unit']}, expected {coef} {unit}"
    want = float(coef) * math.pi ** (-n / 2)
    if not _close(a0["numeric"]["re"], want, 1e-12) or a0["numeric"]["im"] != 0:
        return f"heat a0 numeric {a0['numeric']} != {want!r}"
    return None


def rw_a0(params: dict) -> float:
    """a0 = 8 * base_vol * (4 pi)^-2 * integral of f^3 over the interval."""
    f = warp_function(params["warp"])
    a, b = params["interval"]
    return 8.0 * params["base_vol"] * (4.0 * math.pi) ** -2 * simpson(lambda t: f(t) ** 3, a, b)


def check_rw(report: dict, params: dict) -> str | None:
    got, want = report["coefficients"]["a0"], rw_a0(params)
    if not _close(got, want, 1e-9):
        return f"rw a0 {got!r} differs from independent quadrature {want!r}"
    return None


CHECKS = {"oracle": check_oracle, "heat": check_heat, "rw": check_rw}


def check_op(op: dict, returncode: int, stdout: bytes, references: dict[str, bytes]) -> list[str]:
    """Reasons the operation failed; an empty list means it passed."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return reasons + ["report is not JSON"]
    if not isinstance(report, dict):
        return reasons + ["report is not a JSON object"]
    failed = [c.get("name", "?") for c in report.get("checks", []) if c.get("pass") is not True]
    if failed:
        reasons.append(f"report checks failed: {failed}")
    if op["ref"] is not None:
        ref = references.get(op["ref"])
        if ref is None:
            reasons.append(f"no reference report {op['ref']!r}")
        elif ref != stdout:
            reasons.append(f"report differs from reference {op['ref']!r}")
    if op["check"] is not None:
        try:
            reason = CHECKS[op["check"]](report, op["params"])
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"independent check {op['check']!r} could not run: {exc!r}"
        if reason:
            reasons.append(reason)
    return reasons

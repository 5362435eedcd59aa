"""Command-line front end: verification scenarios, curvature-file heat
coefficients, warped-model evaluations, and the randomized oracle suites.

Each subcommand returns its report, and ``main`` writes it and derives the
exit status from the report's ``checks``: 0 when every check passes, 1 when
one fails.  Bad input exits 2 with a single ``error:`` line on stderr.

JSON reports are deterministic: keys sorted, rationals printed as "num/den",
complex values as {"re","im"}, and no timing data.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import boundary, heat, oracles, warped
from .symbolic import UnitValue


class BadInput(Exception):
    """Input the program rejects: ``main`` prints ``error: <message>`` and exits 2."""


def _uv_obj(v: UnitValue, numeric_units: dict | None = None):
    """The exact value, plus its float rendering when every unit has a
    numeric value and the result fits a float."""
    obj = v.json_obj()
    try:
        z = v.numeric(numeric_units)
    except (KeyError, OverflowError):
        return obj
    if math.isfinite(z.real) and math.isfinite(z.imag):
        obj["numeric"] = {"re": z.real, "im": z.imag}
    return obj


# ---------------------------------------------------------------------------
# verify-boundary
# ---------------------------------------------------------------------------

def cmd_verify_boundary(args) -> dict:
    p1, p2 = args.powers
    try:
        scenario = boundary.get_scenario(args.dim, p1, p2)
    except KeyError as exc:
        raise BadInput(exc.args[0]) from exc

    extrapolation = False
    if args.p is not None or args.q is not None:
        if len(scenario.model.algebra.families) == 1:
            raise BadInput("signature override not supported for this scenario")
        from .clifford import AlgebraSignature
        from .symbols import foliation_model
        p = args.p if args.p is not None else scenario.model.algebra.families[0][1]
        q = args.q if args.q is not None else scenario.model.algebra.families[1][1]
        if p < 0 or q < 1:
            raise BadInput(f"signature ({p},{q}) needs p >= 0 and q >= 1")
        if p + q != args.dim:
            raise BadInput(f"signature ({p},{q}) does not match dimension {args.dim}")
        scenario = boundary.Scenario(**{
            **vars(scenario), "name": scenario.name + f"-sig{p}.{q}",
            "model": foliation_model(p, q, AlgebraSignature(p, q).total_dim),
            "expected_cases": {}, "labels": dict(scenario.labels),
            "notes": "unverified extrapolation beyond the pinned signature"})
        extrapolation = True

    t0 = time.perf_counter()
    report = boundary.phi_total(scenario)
    elapsed = time.perf_counter() - t0

    checks = ([] if extrapolation else
              [{"name": name, "expected": exp, "got": got, "pass": ok}
               for name, exp, got, ok in report.checks])
    payload = {
        "command": "verify-boundary",
        "inputs": {"dim": args.dim, "powers": [p1, p2], "scenario": scenario.name,
                   "extrapolation": extrapolation},
        "cases": [
            {"label": label,
             "index": {"r": c.r, "l": c.l, "k": c.k, "j": c.j, "alpha": c.alpha},
             "value": _uv_obj(v)}
            for label, c, v in report.cases
        ],
        "total": _uv_obj(report.total),
        "total_over_boundary": _uv_obj(report.total_over_boundary),
        "checks": checks,
    }
    ok = all(c["pass"] for c in checks)
    print(f"# scenario {scenario.name}: {len(report.cases)} cases, "
          f"{'all checks pass' if ok else 'CHECK FAILURES'} "
          f"({elapsed:.3f}s)", file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------

# Bounds on heat config values, checked before anything is built exactly: a
# decimal exponent e makes an integer of about 3.3 e bits, and dimensions
# p, q, n make 2^(p+q) and the 2^-n folded into (4 pi)^(-n/2).
MAX_DECIMAL_EXPONENT = 1000
MAX_DIMENSION = 1000

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _parse_value(val: str) -> Fraction:
    match = _EXPONENT.search(val)
    if match and abs(int(match.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Fraction(val)


def _parse_config(path: str) -> dict:
    values: dict[str, Fraction] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            try:
                frac = _parse_value(val)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad value {val!r}: {exc}") from exc
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = frac
    return values


def cmd_heat(args) -> dict:
    try:
        cfg = _parse_config(args.config)
    except ValueError as exc:  # a malformed line, or bytes that are not text
        raise BadInput(str(exc)) from exc

    meta = {}
    for key in ("p", "q", "n", "total_dim"):
        if key in cfg:
            meta[key] = cfg.pop(key)
    bad = [k for k, v in meta.items() if v < 0 or v.denominator != 1]
    if bad:
        raise BadInput(f"{', '.join(bad)} must be nonnegative integers")
    big = [k for k in ("p", "q", "n") if meta.get(k, 0) > MAX_DIMENSION]
    if big:
        raise BadInput(f"{', '.join(big)} must be at most {MAX_DIMENSION}")
    if "p" in meta and "q" in meta:
        # the heat-formula convention: leaf dimension 2p, trace dim 2^(p+q)
        p, q = int(meta["p"]), int(meta["q"])
        n, total_dim = 2 * p + q, 2 ** (p + q)
        clash = [f"{k} = {meta[k]}" for k, v in (("n", n), ("total_dim", total_dim))
                 if k in meta and meta[k] != v]
        if clash:
            raise BadInput(f"config gives {', '.join(clash)} but p = {p}, q = {q} give "
                           f"n = 2p+q = {n}, total_dim = 2^(p+q) = {total_dim}")
    elif "n" in meta and "total_dim" in meta:
        n, total_dim = int(meta["n"]), int(meta["total_dim"])
    else:
        raise BadInput("config needs either p and q, or n and total_dim")

    try:
        data = heat.CurvatureData.from_mapping(cfg)
    except KeyError as exc:
        raise BadInput(exc.args[0]) from exc

    bounded = data.bvol != 0
    if bounded:
        hc = heat.boundary_coeffs(None, data, n=n, total_dim=total_dim)
    else:
        hc = heat.interior_coeffs(None, data, n=n, total_dim=total_dim)
    payload = {
        "command": "heat",
        "inputs": {"config": args.config, "n": n, "total_dim": total_dim,
                   "bounded": bounded},
        "coefficients": {
            "a0": _uv_obj(hc.a0), "a1": _uv_obj(hc.a1), "a2": _uv_obj(hc.a2),
            "a3": _uv_obj(hc.a3), "a4": _uv_obj(hc.a4),
        },
        "checks": [],
    }
    if hc.a4_alt is not None:
        payload["coefficients"]["a4_alt_bracket"] = _uv_obj(hc.a4_alt)
    return payload


# ---------------------------------------------------------------------------
# rw
# ---------------------------------------------------------------------------

def cmd_rw(args) -> dict:
    try:
        return _rw_report(args)
    except (OverflowError, ZeroDivisionError) as exc:  # overflow, or underflow to 0.0
        raise BadInput(f"value out of floating-point range: {exc}") from exc
    except ValueError as exc:  # WarpSyntaxError and WarpDomainError included
        raise BadInput(str(exc)) from exc


def _rw_report(args) -> dict:
    if args.cutoff_scale is not None and not args.cutoff_scale > 0:
        raise ValueError(f"--lambda must be positive (got {args.cutoff_scale})")
    tol = warped.QUAD_TOL
    warp = warped.parse_warp(args.f)
    a, b = args.interval
    model = warped.RWModel(a, b, warp, curv=args.curv, base_vol=args.base_vol)
    coeffs = warped.rw_spectral_coeffs(model)
    volumes = warped.rw_lower_volumes(model, coeffs)
    # node-doubling convergence diagnostic on the volume integrand
    g1, g2 = warped.gauss_legendre_check(model.volume_element, a, b)

    converged = abs(g1 - g2) <= max(abs(g2), 1.0) * max(1e3 * tol, 1e-12)
    payload = {
        "command": "rw",
        "inputs": {"f": args.f, "parsed": warp.to_string(),
                   "interval": [a, b], "curv": args.curv,
                   "base_vol": args.base_vol, "quad_tol": tol},
        "coefficients": coeffs.as_dict(),
        "consistency": coeffs.diagnostics,
        "lower_volumes": volumes,
        "convergence": {"gauss_legendre_64": g1, "gauss_legendre_128": g2,
                        "converged": converged},
        "checks": [{"name": "quadrature-convergence", "pass": bool(converged)}],
    }
    if args.cutoff_scale is not None:
        L = args.cutoff_scale
        moments = heat.spectral_moments(lambda s: math.exp(-s))
        payload["spectral_action"] = {"cutoff": "exp(-s)", "scale": L,
                                      "asymptotic": warped.asymptotic_action(coeffs, moments, L)}
    return payload


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> dict:
    if args.count < 0:
        raise BadInput(f"--count must be nonnegative (got {args.count})")
    results = []
    if args.count > 0:
        results.append(oracles.run_trace_oracle(args.seed, args.count))
        results.append(oracles.run_quadrature_oracle(args.seed, args.count))
        results.append(oracles.run_ad_oracle(args.seed, args.count))
    payload = {
        "command": "oracle",
        "inputs": {"seed": args.seed, "count": args.count},
        "suites": results,
        "checks": [{"name": r["name"], "pass": r["pass"]} for r in results],
    }
    return payload


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _powers(text: str) -> tuple[int, int]:
    try:
        p1, p2 = (int(x) for x in text.split(","))
        return p1, p2
    except ValueError:
        raise argparse.ArgumentTypeError("powers must look like '1,1'")


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _interval(text: str) -> tuple[float, float]:
    a, comma, b = text.partition(",")
    if not comma:
        raise argparse.ArgumentTypeError("interval must look like '0,1'")
    return _finite(a), _finite(b)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wres",
        description="Exact boundary-residue tables, heat coefficients and "
                    "warped-model spectral actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    vb = sub.add_parser("verify-boundary", help="run a registered boundary scenario")
    vb.add_argument("--dim", type=int, required=True,
                    help="boundary dimension scenario (3, 4, 5 or 6)")
    vb.add_argument("--powers", type=_powers, required=True, metavar="P1,P2")
    vb.add_argument("--p", type=int, default=None, help="override leaf dimension")
    vb.add_argument("--q", type=int, default=None, help="override codimension")
    vb.add_argument("--json", metavar="PATH", default=None)
    vb.set_defaults(fn=cmd_verify_boundary)

    he = sub.add_parser("heat", help="heat coefficients from a curvature file")
    he.add_argument("--config", required=True, metavar="FILE")
    he.add_argument("--json", metavar="PATH", default=None)
    he.set_defaults(fn=cmd_heat)

    rw = sub.add_parser("rw", help="warped-model spectral action")
    rw.add_argument("--f", required=True, metavar="EXPR")
    rw.add_argument("--interval", type=_interval, required=True, metavar="A,B")
    rw.add_argument("--curv", type=_finite, default=0.0)
    rw.add_argument("--base-vol", type=_finite, default=1.0)
    rw.add_argument("--lambda", dest="cutoff_scale", type=_finite, default=None)
    rw.add_argument("--json", metavar="PATH", default=None)
    rw.set_defaults(fn=cmd_rw)

    orc = sub.add_parser("oracle", help="randomized oracle suites")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--count", type=int, default=100)
    orc.add_argument("--json", metavar="PATH", default=None)
    orc.set_defaults(fn=cmd_oracle)
    return parser


# Options whose values may start with "-": argparse reads a spaced "-1,1" or
# "-1e-3" as an option name unless it is joined as "--interval=-1,1".
_NUMERIC_OPTIONS = ("--interval", "--curv", "--base-vol", "--lambda", "--powers")


def _is_number_list(text: str) -> bool:
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _join_numeric_values(argv: list[str]) -> list[str]:
    out, i = [], 0
    while i < len(argv):
        if argv[i] in _NUMERIC_OPTIONS and i + 1 < len(argv) and _is_number_list(argv[i + 1]):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = _join_numeric_values(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # a float that overflowed to inf
            raise BadInput(str(exc)) from exc
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (BadInput, OSError) as exc:  # OSError: e.g. a --json path in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())

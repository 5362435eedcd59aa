"""Command-line front end: verification scenarios, curvature-file heat
coefficients, warped-model evaluations, and the randomized oracle suites.

Each subcommand returns its report, and ``main`` writes it and derives the
exit status from the report's ``checks``: 0 when every check passes, 1 when
one fails.  Bad input, a usage error included, exits 2 with a single
``error:`` line on stderr.  A reader that closes stdout early (``| head``)
is not an error: the rest of the output is dropped and the status stands.
Each subcommand imports the wres modules it runs, so a process loads only
what its command uses.

JSON reports are deterministic: keys sorted, rationals printed as "num/den",
complex values as {"re","im"}, and no timing data.  A report holds its exact
values as they are, and ``main`` renders each of them.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace


class BadInput(Exception):
    """Input the program rejects: ``main`` prints ``error: <message>`` and exits 2."""


def _uv_obj(v):
    """``main``'s rendering of a report's exact value: its JSON object, plus
    its float rendering when every unit has a numeric value and the result
    fits a float."""
    obj = v.json_obj()
    try:
        z = v.numeric()
    except (KeyError, OverflowError):
        return obj
    if math.isfinite(z.real) and math.isfinite(z.imag):
        obj["numeric"] = {"re": z.real, "im": z.imag}
    return obj


# ---------------------------------------------------------------------------
# verify-boundary
# ---------------------------------------------------------------------------

def cmd_verify_boundary(args) -> dict:
    from . import boundary

    p1, p2 = args.powers
    try:
        scenario = boundary.get_scenario(args.dim, p1, p2, args.p, args.q)
    except (KeyError, ValueError) as exc:
        raise BadInput(exc.args[0]) from exc

    t0 = time.perf_counter()
    report = boundary.phi_total(scenario)
    elapsed = time.perf_counter() - t0

    payload = {
        "command": "verify-boundary",
        "inputs": {"dim": args.dim, "powers": [p1, p2], "scenario": scenario.name,
                   "extrapolation": args.p is not None or args.q is not None},
        "cases": [
            {"label": label,
             "index": {"r": c.r, "l": c.l, "k": c.k, "j": c.j, "alpha": c.alpha},
             "value": v}
            for label, c, v in report.cases
        ],
        "total": report.total,
        "total_over_boundary": report.total_over_boundary,
        "checks": report.checks,
    }
    status = "all checks pass" if report.all_pass else "CHECK FAILURES"
    print(f"# scenario {scenario.name}: {len(report.cases)} cases, {status} "
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

# \d: Fraction reads every Unicode decimal digit, and so does int()
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


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
    from . import heat

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
    for key, partner in (("p", "q"), ("q", "p")):
        if key in meta and partner not in meta:
            raise BadInput(f"config gives {key} without {partner}")
    if "p" in meta:
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
        data = heat.CurvatureData(**cfg)
    except TypeError as exc:  # a key that names no curvature field
        raise BadInput(exc.args[0]) from exc
    negative = [k for k in ("vol", "bvol") if getattr(data, k) < 0]
    if negative:
        raise BadInput(f"{', '.join(negative)} must be nonnegative")
    unread = [k for k in heat.BOUNDARY_FIELDS if k in cfg]
    if unread and data.bvol == 0:
        raise BadInput(f"boundary invariants need bvol > 0: {', '.join(unread)}")

    bounded = data.bvol != 0
    if bounded:
        hc = heat.boundary_coeffs(data, n, total_dim)
    else:
        hc = heat.interior_coeffs(data, n, total_dim)
    payload = {
        "command": "heat",
        "inputs": {"config": args.config, "n": n, "total_dim": total_dim,
                   "bounded": bounded},
        "coefficients": {"a0": hc.a0, "a1": hc.a1, "a2": hc.a2, "a3": hc.a3, "a4": hc.a4},
        "checks": [],
    }
    if hc.a4_alt is not None:
        payload["coefficients"]["a4_alt_bracket"] = hc.a4_alt
    return payload


# ---------------------------------------------------------------------------
# rw
# ---------------------------------------------------------------------------

def cmd_rw(args) -> dict:
    try:
        return _rw_report(args)
    except (OverflowError, ZeroDivisionError) as exc:  # overflow, or underflow to 0.0
        # a float power's OverflowError is (errno, text): the text alone
        raise BadInput(f"value out of floating-point range: {exc.args[-1]}") from exc
    except ValueError as exc:  # WarpSyntaxError and WarpDomainError included
        raise BadInput(str(exc)) from exc


def _rw_report(args) -> dict:
    from . import heat, warped

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
    from . import oracles

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
# command line
# ---------------------------------------------------------------------------

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _powers(text: str) -> tuple[int, int]:
    try:
        p1, p2 = (int(x) for x in text.split(","))
        return p1, p2
    except ValueError:
        raise ValueError("powers must look like '1,1'") from None


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _interval(text: str) -> tuple[float, float]:
    a, comma, b = text.partition(",")
    if not comma:
        raise ValueError("interval must look like '0,1'")
    return _finite(a), _finite(b)


REQUIRED = object()  # the default of a flag that must be given

_JSON = ("--json", "json", str, None, "PATH", "write the report to PATH, not stdout")

# command -> (handler, help line, flags); a flag is (name, destination,
# converter, default or REQUIRED, metavar, help)
COMMANDS = {
    "verify-boundary": (cmd_verify_boundary, "run a registered boundary scenario", (
        ("--dim", "dim", _int, REQUIRED, "N", "boundary dimension scenario (3, 4, 5 or 6)"),
        ("--powers", "powers", _powers, REQUIRED, "P1,P2", "symbol powers of the scenario"),
        ("--p", "p", _int, None, "P", "override leaf dimension"),
        ("--q", "q", _int, None, "Q", "override codimension"),
        _JSON)),
    "heat": (cmd_heat, "heat coefficients from a curvature file", (
        ("--config", "config", str, REQUIRED, "FILE", "'key = value' lines, '#' comments"),
        _JSON)),
    "rw": (cmd_rw, "warped-model spectral action", (
        ("--f", "f", str, REQUIRED, "EXPR", "warp function of t"),
        ("--interval", "interval", _interval, REQUIRED, "A,B", "the interval of t"),
        ("--curv", "curv", _finite, 0.0, "C", "constant curvature of the base"),
        ("--base-vol", "base_vol", _finite, 1.0, "V", "volume of the base"),
        ("--lambda", "cutoff_scale", _finite, None, "L", "cutoff scale of the spectral action"),
        _JSON)),
    "oracle": (cmd_oracle, "randomized oracle suites", (
        ("--seed", "seed", _int, 0, "N", "seed of the random inputs"),
        ("--count", "count", _int, 100, "N", "inputs per suite"),
        _JSON)),
}

_HELP = ("-h", "--help")


def usage(command: str | None = None) -> str:
    """The help text of one command, or of all of them."""
    lines = [f"usage: wres {command or '<command>'} [--flag value | --flag=value]...", ""]
    if command is None:
        lines += ["Exact boundary-residue tables, heat coefficients and "
                  "warped-model spectral actions.", ""]
    for name in [command] if command else COMMANDS:
        _, help_line, flags = COMMANDS[name]
        lines.append(f"wres {name}: {help_line}")
        for flag, _, _, default, metavar, text in flags:
            if default is REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default {default})"
            lines.append(f"  {flag + ' ' + metavar:<18}{text}")
        lines.append("")
    lines.append("A value may start with '-', as in --interval -1,1.")
    return "\n".join(lines)


def parse_args(argv: list[str]):
    """The command and its flag values as a namespace, or the usage text when
    ``-h`` or ``--help`` stands where a command or a flag may.

    The grammar is ``wres <command> [--flag value | --flag=value]...``.  The
    token after a flag is its value even when it starts with "-", a repeated
    flag keeps its last value, and only exact flag names are accepted.  Every
    usage error raises BadInput.
    """
    if not argv:
        raise BadInput(f"no command given; choose from {', '.join(COMMANDS)}")
    command = argv[0]
    if command in _HELP:
        return usage()
    if command not in COMMANDS:
        raise BadInput(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    flags = {spec[0]: spec for spec in COMMANDS[command][2]}
    values = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if token in _HELP:
            return usage(command)
        name, joined, value = token.partition("=")
        if name not in flags:
            raise BadInput(f"unrecognized argument {token!r} for {command}")
        if not joined:
            i += 1
            if i == len(argv):
                raise BadInput(f"argument {name}: expected one value")
            value = argv[i]
        _, dest, convert, _, _, _ = flags[name]
        try:
            values[dest] = convert(value)
        except ValueError as exc:
            raise BadInput(f"argument {name}: {exc}") from None
        i += 1
    missing = [flag for flag, dest, _, default, _, _ in flags.values()
               if default is REQUIRED and dest not in values]
    if missing:
        raise BadInput(f"{command} needs {', '.join(missing)}")
    for _, dest, _, default, _, _ in flags.values():
        values.setdefault(dest, default)
    return SimpleNamespace(command=command, **values)


def _print(text: str) -> None:
    """Print ``text`` to stdout.  If the reader has closed the pipe, drop
    the rest: stdout is pointed at the null device, so neither this write
    nor the flush at exit raises."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h or --help
            _print(args)
            return 0
        report = COMMANDS[args.command][0](args)
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                              default=_uv_obj)
        except ValueError as exc:  # a float that overflowed to inf, or an exact
            # integer with more digits than str() converts
            raise BadInput("a report value is too long to print, "
                           "or a float in it is not finite") from exc
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        else:
            _print(text)
    except (BadInput, OSError) as exc:  # OSError: e.g. a --json path in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())

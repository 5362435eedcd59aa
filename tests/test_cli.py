"""Command-line front end: exit codes, report schema, and determinism."""

import argparse
import contextlib
import copy
import errno
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres import boundary, cli, oracles, warped
from wres.cli import main
from wres.symbolic import UnitValue

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_boundary_dim4(tmp_path):
    out = tmp_path / "b4.json"
    assert run(["verify-boundary", "--dim", "4", "--powers", "1,1",
                "--json", str(out)]) == 0
    doc = read(out)
    assert doc["command"] == "verify-boundary"
    assert len(doc["cases"]) == 5
    assert doc["total"]["coef"] == "0"
    labels = {c["label"] for c in doc["cases"]}
    assert labels == {"aI", "aII", "aIII", "b", "c"}
    values = {c["label"]: c["value"] for c in doc["cases"]}
    assert values["aII"]["coef"] == "-3/4"
    assert set(values["aII"]["unit"]) == {"pi", "h'(0)", "Omega3", "dx'"}
    assert all(ch["pass"] for ch in doc["checks"])


def test_verify_boundary_dim5(tmp_path):
    out = tmp_path / "b5.json"
    assert run(["verify-boundary", "--dim", "5", "--powers", "2,2",
                "--json", str(out)]) == 0
    doc = read(out)
    total = doc["total_over_boundary"]
    assert total["coef"] == {"re": "0", "im": "1/8"}
    assert set(total["unit"]) == {"pi", "Omega3", "l~2^q", "Vol_dM"}


def test_verify_boundary_unregistered(capsys):
    assert run(["verify-boundary", "--dim", "9", "--powers", "1,1"]) == 2
    assert "unregistered scenario" in capsys.readouterr().err


def test_verify_boundary_signature_override(tmp_path):
    # the row's own signature reproduces the registered report: its cases,
    # total and checks; only the inputs say that a signature was given
    out = tmp_path / "ext.json"
    assert run(["verify-boundary", "--dim", "4", "--powers", "1,1",
                "--p", "2", "--q", "2", "--json", str(out)]) == 0
    doc = read(out)
    assert doc["inputs"].pop("extrapolation") is True
    assert doc["inputs"].pop("scenario") == "dim4-powers11-sig2.2"
    assert run(["verify-boundary", "--dim", "4", "--powers", "1,1", "--json", str(out)]) == 0
    registered = read(out)
    assert registered["inputs"].pop("extrapolation") is False
    assert registered["inputs"].pop("scenario") == "dim4-powers11"
    assert doc == registered
    assert run(["verify-boundary", "--dim", "4", "--powers", "1,1",
                "--p", "3", "--q", "3", "--json", str(out)]) == 2


# --p/--q runs on signatures that no registered scenario has, pinned byte for
# byte; .github/check_references.sh reruns the same commands
EXTRAPOLATIONS = [(4, "1,1", 1, 3), (6, "2,2", 3, 3), (6, "2,2", 0, 6), (5, "2,2", 2, 3)]


def _extrapolation_argv(dim, powers, p, q):
    return ["verify-boundary", "--dim", str(dim), "--powers", powers,
            "--p", str(p), "--q", str(q)]


def _extrapolation_ref(dim, powers, p, q):
    return f"verify_dim{dim}_{powers.replace(',', '')}_sig{p}.{q}"


@pytest.mark.parametrize("dim,powers,p,q", EXTRAPOLATIONS,
                         ids=[_extrapolation_ref(*args) for args in EXTRAPOLATIONS])
def test_extrapolation_matches_reference(dim, powers, p, q, capsys):
    assert run(_extrapolation_argv(dim, powers, p, q)) == 0
    name = _extrapolation_ref(dim, powers, p, q) + ".json"
    reference = (ROOT / "tests" / "reference" / name).read_bytes()
    assert capsys.readouterr().out.encode() == reference


def test_extrapolation_status_reads_its_checks(capsys):
    # an extrapolation checks the registered values per unit trace, so its
    # timing line says its checks pass, as a registered scenario's does
    assert run(_extrapolation_argv(6, "2,2", 0, 6)) == 0
    err = capsys.readouterr().err
    assert err.startswith("# scenario dim6-powers22-sig0.6: 5 cases, all checks pass (")
    assert run(["verify-boundary", "--dim", "6", "--powers", "2,2"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("# scenario dim6-powers22: 5 cases, all checks pass (")


def test_heat_command(tmp_path):
    cfg = tmp_path / "heat.cfg"
    cfg.write_text("# flat closed manifold\np = 2\nq = 2\nr = 1\nvol = 1\n")
    out = tmp_path / "heat.json"
    assert run(["heat", "--config", str(cfg), "--json", str(out)]) == 0
    doc = read(out)
    assert doc["coefficients"]["a2"]["coef"] == "-1/48"
    assert doc["coefficients"]["a2"]["unit"] == ["pi^-3"]
    assert doc["coefficients"]["a1"]["coef"] == "0"


def test_heat_bounded_config(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("p = 1\nq = 2\nr = 1\nvol = 1\nbvol = 1\nL_aa = 1/2\nr_N = 2\n")
    out = tmp_path / "hb.json"
    assert run(["heat", "--config", str(cfg), "--json", str(out)]) == 0
    doc = read(out)
    assert "a4_alt_bracket" in doc["coefficients"]
    assert doc["coefficients"]["a1"]["coef"] != "0"


def test_heat_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = 2\nq = 2\nwhat_is_this = 1\n")
    assert run(["heat", "--config", str(bad)]) == 2
    assert "what_is_this" in capsys.readouterr().err

    malformed = tmp_path / "mal.cfg"
    malformed.write_text("p = 2\nq == oops\n")
    assert run(["heat", "--config", str(malformed)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err  # positioned at line 2

    missing = tmp_path / "miss.cfg"
    missing.write_text("r = 1\n")
    assert run(["heat", "--config", str(missing)]) == 2


def test_rw_command(tmp_path):
    out = tmp_path / "rw.json"
    assert run(["rw", "--f", "1", "--interval", "0,1", "--curv", "0",
                "--json", str(out)]) == 0
    doc = read(out)
    assert doc["coefficients"]["a2"] == 0.0
    assert doc["convergence"]["converged"] is True

    assert run(["rw", "--f", "exp(t)", "--interval", "0,1", "--curv", "1",
                "--lambda", "2.0", "--json", str(out)]) == 0
    doc = read(out)
    assert "spectral_action" in doc
    assert set(doc["spectral_action"]["asymptotic"]) == {"printed", "derived"}
    assert "a4_printed_bracket" in doc["coefficients"]
    assert "a4_derived_bracket" in doc["coefficients"]


def test_rw_domain_error(capsys):
    assert run(["rw", "--f", "ln(t)", "--interval", "0,1"]) == 2
    assert "ln of nonpositive" in capsys.readouterr().err


def test_rw_syntax_error(capsys):
    assert run(["rw", "--f", "nope(t)", "--interval", "0,1"]) == 2
    assert "unknown identifier" in capsys.readouterr().err


def test_oracle_command(tmp_path):
    out = tmp_path / "o.json"
    assert run(["oracle", "--seed", "7", "--count", "40", "--json", str(out)]) == 0
    doc = read(out)
    assert len(doc["suites"]) == 3
    assert all(s["pass"] for s in doc["suites"])


def test_oracle_empty(tmp_path):
    out = tmp_path / "o0.json"
    assert run(["oracle", "--count", "0", "--json", str(out)]) == 0
    assert read(out)["suites"] == []


@pytest.mark.parametrize("argv", [
    ["oracle", "--seed", "7", "--count", "30"],
    ["verify-boundary", "--dim", "6", "--powers", "2,2"],
    ["verify-boundary", "--dim", "3", "--powers", "1,1"],
    ["rw", "--f", "2+sin(t)", "--interval", "0.5,1.5", "--curv", "-1",
     "--base-vol", "2"],
    ["heat", "--config", "CFG"],
])
def test_byte_identical_json(argv, tmp_path):
    if argv[0] == "heat":
        cfg = tmp_path / "h.cfg"
        cfg.write_text("p = 2\nq = 2\nr = 3/2\nvol = 2\n")
        argv = ["heat", "--config", str(cfg)]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(argv + ["--json", str(out1)]) == 0
    assert run(argv + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _cli_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


RW_EXP = ["rw", "--f", "exp(t)", "--interval", "0,1"]


@pytest.mark.parametrize("argv,config,env,code,message", [
    pytest.param(["heat"], "p = 5/2\nq = 2\nr = 1\n", {}, 2, "nonnegative integers",
                 id="heat-fractional-p"),
    pytest.param(["heat"], "p = -3\nq = 2\nr = 1\n", {}, 2, "nonnegative integers",
                 id="heat-negative-p"),
    pytest.param(["heat"], "n = 4\ntotal_dim = 1/2\n", {}, 2, "nonnegative integers",
                 id="heat-fractional-total-dim"),
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1e400\nvol = 1\n", {}, 0, "",
                 id="heat-value-beyond-float"),
    # each value parses, but a2 holds r vol, 4401 digits, more than str() converts
    pytest.param(["heat"], f"p = 2\nq = 2\nr = {'9' * 2200}\nvol = {'9' * 2200}\n", {}, 2,
                 "error: a report value is too long to print", id="heat-value-too-long-to-print"),
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1e10000000\n", {}, 2, "decimal exponent",
                 id="heat-exponent-1e10000000"),
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1e999999999\n", {}, 2, "decimal exponent",
                 id="heat-exponent-1e999999999"),
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1e-999999999\n", {}, 2, "decimal exponent",
                 id="heat-exponent-negative"),
    # Fraction reads any Unicode decimal digit: here the fullwidth 2000
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1e\uff12\uff10\uff10\uff10\n", {}, 2,
                 "decimal exponent", id="heat-exponent-fullwidth-digits"),
    pytest.param(["heat"], "p = 1000000000\nq = 2\nr = 1\n", {}, 2, "p must be at most",
                 id="heat-huge-p"),
    pytest.param(["heat"], "p = 2\nq = 1000000000\nr = 1\n", {}, 2, "q must be at most",
                 id="heat-huge-q"),
    pytest.param(["heat"], "n = 1000000000\ntotal_dim = 4\nr = 1\n", {}, 2,
                 "n must be at most", id="heat-huge-n"),
    pytest.param(["heat"], "p = 2\nq = 2\nn = 5\nr = 1\n", {}, 2,
                 "config gives n = 5 but p = 2, q = 2 give", id="heat-n-disagrees-with-p-q"),
    pytest.param(["heat"], "p = 2\nq = 2\ntotal_dim = 3\nr = 1\n", {}, 2,
                 "config gives total_dim = 3 but", id="heat-total-dim-disagrees-with-p-q"),
    pytest.param(["heat"], "p = 2\nq = 2\nn = 6\ntotal_dim = 16\nr = 1\n", {}, 0, "",
                 id="heat-n-total-dim-agree-with-p-q"),
    # a lone p or q names its missing partner, also beside n and total_dim
    pytest.param(["heat"], "p = 7\nn = 4\ntotal_dim = 8\nr = 1\nvol = 1\n", {}, 2,
                 "error: config gives p without q\n", id="heat-p-without-q"),
    pytest.param(["heat"], "q = 7\nn = 4\ntotal_dim = 8\nr = 1\nvol = 1\n", {}, 2,
                 "error: config gives q without p\n", id="heat-q-without-p"),
    pytest.param(["heat"], "p = 2\nr = 1\n", {}, 2,
                 "error: config gives p without q\n", id="heat-p-alone"),
    pytest.param(["heat"], "p = 2\nq = 2\nr = 1\ndelta_r = 1\n", {}, 2,
                 "unknown curvature keys: ['delta_r']", id="heat-delta-r-unknown"),
    pytest.param(["heat"], "p = 2\nq = 2\nvol = -3\nbvol = -2\n", {}, 2,
                 "error: vol, bvol must be nonnegative\n", id="heat-volumes-negative"),
    pytest.param(["heat"], "p = 2\nq = 2\nvol = 1\nbvol = -1/2\n", {}, 2,
                 "error: bvol must be nonnegative\n", id="heat-bvol-negative"),
    # bvol = 0 selects the closed-manifold formulas
    pytest.param(["heat"], "p = 2\nq = 2\nvol = 0\nbvol = 0\n", {}, 0, "",
                 id="heat-volumes-zero"),
    # only the boundary terms read these invariants, so without bvol they would be dropped
    pytest.param(["heat"], "p = 2\nq = 1\nr = 1\nvol = 1\nL_aa = 5\nr_N = 3\n", {}, 2,
                 "error: boundary invariants need bvol > 0: L_aa, r_N\n",
                 id="heat-boundary-invariants-without-bvol"),
    pytest.param(["heat"], "p = 2\nq = 2\nbvol = 0\nr_bd = 1\nL3_ababcc = 0\n", {}, 2,
                 "error: boundary invariants need bvol > 0: L3_ababcc, r_bd\n",
                 id="heat-boundary-invariants-bvol-zero"),
    pytest.param(["verify-boundary", "--dim", "4", "--powers", "1,1", "--p", "4", "--q", "0"],
                 None, {}, 2, "signature", id="verify-q-zero"),
    pytest.param(["verify-boundary", "--dim", "4", "--powers", "1,1", "--p", "-1", "--q", "5"],
                 None, {}, 2, "signature", id="verify-p-negative"),
    pytest.param(["verify-boundary", "--dim", "6", "--powers", "2,2", "--p", "7", "--q", "-1"],
                 None, {}, 2, "signature", id="verify-q-negative"),
    # a spin model has one generator family and so no (p, q); a p that does
    # not fit the dimension is rejected before a model that large is built
    pytest.param(["verify-boundary", "--dim", "5", "--powers", "2,1", "--p", "1"], None, {}, 2,
                 "error: signature override not supported for this scenario\n",
                 id="verify-spin-signature"),
    pytest.param(["verify-boundary", "--dim", "4", "--powers", "1,1", "--p", "1000000000"],
                 None, {}, 2, "error: signature (1000000000,2) does not match dimension 4\n",
                 id="verify-p-huge"),
    pytest.param(["rw", "--f", "exp(exp(exp(t)))", "--interval", "0,3"], None, {}, 2,
                 "floating-point range", id="rw-warp-overflow"),
    pytest.param(RW_EXP + ["--lambda", "1e200"], None, {}, 2, "floating-point range",
                 id="rw-lambda-overflow"),
    pytest.param(["rw", "--f", "((t)^5)^-1", "--interval", "0,1"], None, {}, 2,
                 "floating-point range", id="rw-inverse-underflow"),
    pytest.param(["rw", "--f", "((0.5)^11)^33", "--interval", "0,1"], None, {}, 2,
                 "floating-point range", id="rw-warp-underflow"),
    # a float power overflows with (errno, text): the error line gives the text alone
    pytest.param(["rw", "--f", "t", "--interval", "0,1e308", "--curv", "1"], None, {}, 2,
                 f"error: value out of floating-point range: {os.strerror(errno.ERANGE)}\n",
                 id="rw-interval-power-overflow"),
    pytest.param(RW_EXP + ["--curv", "inf"], None, {}, 2, "finite", id="rw-curv-inf"),
    pytest.param(["rw", "--f", "2+t", "--interval", "-1,1"], None, {}, 0, "",
                 id="rw-spaced-negative-interval"),
    pytest.param(RW_EXP + ["--curv", "-1e-3"], None, {}, 0, "", id="rw-spaced-negative-exponent"),
    pytest.param(RW_EXP + ["--lambda", "0"], None, {}, 2, "--lambda must be positive",
                 id="rw-lambda-zero"),
    pytest.param(["rw", "--f", "2+t", "--interval", "0,1", "--lambda", "-2"], None, {}, 2,
                 "--lambda must be positive", id="rw-lambda-negative"),
    # an integrand of rounding noise: the quadrature ends with ier != 0 but prints nothing
    pytest.param(["rw", "--f", "t", "--interval", "0.5,1.5", "--curv", "-1"], None, {}, 0, "",
                 id="rw-noise-integrand-silent"),
    # f = (t-0.5)^2 + 1e-120 is positive, but f^3 underflows to 0 at the midpoint
    # node: only the boundary-only r_{;N} formula divides by it, and that formula
    # is evaluated at the two ends alone
    pytest.param(["rw", "--f", "(t-0.5)^2+0." + "0" * 119 + "1", "--interval", "0,1"],
                 None, {}, 0, "", id="rw-interior-cube-underflow"),
    pytest.param(RW_EXP + ["--base-vol", "0"], None, {}, 2, "--base-vol must be positive",
                 id="rw-base-vol-zero"),
    pytest.param(RW_EXP + ["--base-vol", "-1"], None, {}, 2, "--base-vol must be positive",
                 id="rw-base-vol-negative"),
    # the volume integrand overflows to inf: a range error, not non-convergence
    pytest.param(["rw", "--f", "2+sin(t)", "--interval", "0,1", "--base-vol", "1e308"], None, {},
                 2, "error: value out of floating-point range: quadrature estimate inf\n",
                 id="rw-base-vol-overflow"),
    pytest.param(["rw", "--f", "(" * 600 + "t" + ")" * 600, "--interval", "0,1"], None, {}, 2,
                 "nested deeper than 100 levels (at offset 100)", id="rw-600-parentheses"),
    # nesting 100 and AST depth 100, the deepest warp the limits allow
    pytest.param(["rw", "--f", "(" * 100 + "+".join(["t"] * 100) + ")" * 100,
                  "--interval", "0.5,1.5"], None, {}, 0, "", id="rw-deepest-warp"),
    pytest.param(["rw", "--f", "+".join(["t"] * 1501), "--interval", "0,1"], None, {}, 2,
                 "nested deeper than 100 levels (at offset 199)", id="rw-1501-term-sum"),
    pytest.param(["oracle", "--count", "-3", "--seed", "1"], None, {}, 2,
                 "--count must be nonnegative", id="oracle-negative-count"),
    # usage errors: one error line as well, no usage text
    pytest.param([], None, {}, 2, "no command given", id="usage-no-command"),
    pytest.param(["bogus"], None, {}, 2, "unknown command 'bogus'", id="usage-unknown-command"),
    pytest.param(RW_EXP + ["--nope", "1"], None, {}, 2, "unrecognized argument '--nope'",
                 id="usage-unknown-flag"),
    pytest.param(["rw", "--f", "exp(t)", "--int", "0,1"], None, {}, 2,
                 "unrecognized argument '--int'", id="usage-flag-prefix"),
    pytest.param(["rw", "--f", "exp(t)", "--interval"], None, {}, 2,
                 "argument --interval: expected one value", id="usage-flag-without-value"),
    pytest.param(["verify-boundary", "--dim", "4"], None, {}, 2, "needs --powers",
                 id="usage-missing-required"),
    pytest.param(["oracle", "--count", "x"], None, {}, 2, "invalid int value: 'x'",
                 id="usage-bad-int"),
    pytest.param(["rw", "--f", "exp(t)", "--interval", "0"], None, {}, 2,
                 "interval must look like '0,1'", id="usage-bad-interval"),
    pytest.param(["verify-boundary", "--dim", "4", "--powers", "a,b"], None, {}, 2,
                 "powers must look like '1,1'", id="usage-bad-powers"),
    pytest.param(["--help"], None, {}, 0, "", id="help"),
    pytest.param(["rw", "--help"], None, {}, 0, "", id="rw-help"),
])
def test_exit_contract(argv, config, env, code, message, tmp_path):
    # bad input exits 2 with a one-line error; no traceback ever reaches stderr
    if config is not None:
        (tmp_path / "in.cfg").write_text(config)
        argv = argv + ["--config", "in.cfg"]
    proc = subprocess.run([sys.executable, "-m", "wres.cli", *argv], cwd=tmp_path,
                          env=_cli_env(env), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    if code == 0:
        assert proc.stderr == ""
        if "--help" in argv:
            assert proc.stdout.startswith("usage: wres ")
        else:
            json.loads(proc.stdout)
    if code == 2:
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def _wrong_expected_total(monkeypatch):
    real = boundary.get_scenario

    def wrong(*args):
        scenario = copy.copy(real(*args))
        scenario.expected_total = UnitValue(7)
        return scenario
    monkeypatch.setattr(boundary, "get_scenario", wrong)


def _negative_jet_tolerance(monkeypatch):
    monkeypatch.setattr(oracles, "JET_REL_TOL", -1.0)


def _far_apart_gauss_legendre(monkeypatch):
    monkeypatch.setattr(warped, "gauss_legendre_check", lambda fn, a, b: (1.0, 2.0))


@pytest.mark.parametrize("argv,force_failure", [
    pytest.param(["verify-boundary", "--dim", "3", "--powers", "1,1"], _wrong_expected_total,
                 id="verify-boundary-wrong-total"),
    pytest.param(_extrapolation_argv(4, "1,1", 1, 3), _wrong_expected_total,
                 id="verify-boundary-extrapolation-wrong-total"),
    pytest.param(["oracle", "--seed", "7", "--count", "3"], _negative_jet_tolerance,
                 id="oracle-negative-jet-tolerance"),
    pytest.param(RW_EXP, _far_apart_gauss_legendre, id="rw-not-converged"),
])
def test_failed_check_exits_1_with_its_report(argv, force_failure, monkeypatch, capsys,
                                              tmp_path):
    # exit 1 means a report check failed: the report is still printed, or written
    # with --json, and one of its checks reads false
    force_failure(monkeypatch)
    assert main(argv) == 1
    printed, err = capsys.readouterr()
    assert "error:" not in err
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert any(not check["pass"] for check in json.loads(printed)["checks"])


def _closed_pipe():
    """The write end of a pipe whose reader has already gone, as after
    ``| head`` has read what it wanted."""
    r, w = os.pipe()
    os.close(r)
    return w


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["verify-boundary", "--dim", "3", "--powers", "1,1"],
], ids=["help", "report"])
def test_closed_stdout_is_not_bad_input(argv, tmp_path):
    # the rest of the output is dropped, the status is the report's, and
    # stderr holds no error line (verify-boundary's timing line stays)
    w = _closed_pipe()
    try:
        proc = subprocess.run([sys.executable, "-m", "wres.cli", *argv], cwd=tmp_path,
                              env=_cli_env(), stdout=w, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 0, proc.stderr
    assert all(line.startswith("# scenario ") for line in proc.stderr.splitlines()), proc.stderr
    if argv == ["--help"]:
        assert proc.stderr == ""


def test_closed_stdout_keeps_a_failed_check_status(monkeypatch):
    _wrong_expected_total(monkeypatch)
    with os.fdopen(_closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["verify-boundary", "--dim", "3", "--powers", "1,1"]) == 1
        # stdout now writes to the null device
        print("more")


def test_heat_value_too_large_for_a_float(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("p = 2\nq = 2\nr = 1e400\nvol = 1\n")
    out = tmp_path / "big.json"
    assert run(["heat", "--config", str(cfg), "--json", str(out)]) == 0
    doc = read(out)["coefficients"]
    assert doc["a2"]["coef"] == str(Fraction(-10 ** 400, 48))
    assert "numeric" not in doc["a2"]
    assert "numeric" in doc["a0"]


def test_cosphere_measure_label_renders_no_float():
    # Omega3 is the measure of S^3 in the dim-5 tables and of S^2 in the dim-4 one
    obj = cli._uv_obj(UnitValue(Fraction(1, 4), {"pi": 1, "Omega3": 1}))
    assert obj == {"coef": "1/4", "unit": ["Omega3", "pi"]}


def _perfbench_module(name):
    """A module of the benchmark, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("op", _perfbench_module("workloads").fixed_ops(),
                         ids=lambda op: op["name"])
def test_report_matches_reference(op, monkeypatch, capsys):
    # every operation the benchmark compares with a committed reference report
    monkeypatch.chdir(ROOT)
    if op["kind"] == "res_partial":
        text, ok = _perfbench_module("worker").res_partial_report(
            boundary, op["params"]["kinds"])
        assert ok
        print(text)
    else:
        assert main(op["argv"]) == 0
    reference = (ROOT / "perfbench" / "reference" / f"{op['ref']}.json").read_bytes()
    assert capsys.readouterr().out.encode() == reference


def test_benchmark_hooks_resolve():
    # the traced benchmark replaces each hooked name where its callers look
    # it up: in a class's own namespace, else on the module; a renamed one
    # would drop its per-layer metric from the traced runs
    tracing = _perfbench_module("tracing")
    points = [(module, cls, attr) for module, cls, attr, *_ in tracing.SPAN_POINTS]
    points += [(module, cls, attr) for module, cls, attrs, *_ in tracing.COUNT_POINTS
               for attr in attrs]
    missing = []
    for module, cls, attr in points:
        owner = importlib.import_module(module)
        if cls is None:
            hooked = getattr(owner, attr, None)
        else:
            hooked = vars(getattr(owner, cls)).get(attr)
        if not callable(hooked):
            missing.append(f"{module}:{cls or ''}.{attr}")
    assert missing == []


@pytest.mark.parametrize("script", ["boundary_tables", "rw_action"])
def test_example_script_output(script):
    # each example script exits 0 and prints its recorded tables byte for byte
    proc = subprocess.run([sys.executable, str(Path("scripts") / f"{script}.py")], cwd=ROOT,
                          env=_cli_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "reference" / f"{script}.txt").read_bytes()


def _modules_loaded(code, cwd):
    """The modules a fresh process has loaded after running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                          cwd=cwd, env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (code, proc.stderr)
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    """The modules a bare interpreter loads at start-up on its own."""
    return _modules_loaded("pass", tmp_path_factory.mktemp("bare"))


_LAZY = {"wres.heat", "wres.warped", "wres.oracles"}
# code generation: wres declares its records by hand
_CODEGEN = {"dataclasses", "inspect"}
# no numpy or scipy (the quadrature is a port), no argument parser and no
# translation machinery
_NEVER = {"numpy", "scipy", "argparse", "gettext", "locale"} | _CODEGEN


@pytest.fixture(scope="module")
def cli_import_added(bare_modules, tmp_path_factory):
    """The modules ``import wres.cli`` adds to a bare interpreter."""
    return _modules_loaded("import wres.cli", tmp_path_factory.mktemp("cli")) - bare_modules


def test_import_footprint(cli_import_added, bare_modules, tmp_path):
    """``import wres`` adds only itself, and ``import wres.cli`` loads no
    numpy, scipy, argument parser or translation machinery and none of the
    modules its subcommands import on demand."""
    assert _modules_loaded("import wres", tmp_path) - bare_modules == {"wres"}
    assert cli_import_added & ((_NEVER - _CODEGEN) | _LAZY) == set()


def test_cli_generates_no_code_at_import(cli_import_added):
    """``import wres.cli`` leaves dataclasses and inspect unloaded."""
    assert cli_import_added & _CODEGEN == set()


@pytest.mark.parametrize("argv,unused", [
    pytest.param(["verify-boundary", "--dim", "3", "--powers", "1,1"], _LAZY,
                 id="verify-boundary"),
    pytest.param(["rw", "--f", "exp(t)", "--interval", "0,1", "--curv", "1", "--lambda", "2"],
                 {"wres.oracles"}, id="rw"),
    pytest.param(["heat", "--config", "closed.cfg"], {"wres.oracles", "wres.warped"}, id="heat"),
    pytest.param(["oracle", "--seed", "7", "--count", "5"], set(), id="oracle"),
])
def test_command_import_footprint(argv, unused, bare_modules, tmp_path):
    """Each subcommand, run in a fresh process, loads none of ``_NEVER`` and
    none of the modules it does not use, beyond what a bare interpreter
    loads."""
    (tmp_path / "closed.cfg").write_text("p = 2\nq = 2\nr = 1\nr2 = 3/2\nvol = 2\n")
    code = ("from wres.cli import main\n"
            f"assert main({argv + ['--json', 'out.json']!r}) == 0")
    added = _modules_loaded(code, tmp_path) - bare_modules
    assert added & (_NEVER | unused) == set()


def test_every_package_name_imports():
    import wres

    code = "\n".join(f"from wres import {name}" for name in wres.__all__)
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in wres.__all__:
        assert getattr(wres, name).__module__.startswith("wres."), name
    with pytest.raises(AttributeError):
        wres.no_such_name  # noqa: B018


CONFIG_KEYS =["p", "q", "n", "total_dim", "r", "r2", "riem2", "vol", "bvol", "L_aa",
               "r_N", "r_bd", "nope"]
text_chars = st.characters(blacklist_categories=("Cs",))
exact_values = st.one_of(
    st.integers(0, 12).map(str),
    st.fractions(max_denominator=10 ** 6).map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-1200, 1200)))
# weighted towards values heat accepts, so that many examples reach the formulas
config_values = st.one_of(
    exact_values, exact_values, exact_values, exact_values, exact_values, exact_values,
    st.integers().map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-10 ** 12, 10 ** 12)),
    st.floats().map(repr),
    st.text(text_chars, max_size=8),
)


def _config_text(entries, with_pq, junk):
    if with_pq:
        entries = {"p": "2", "q": "2", **entries}
    return "\n".join([f"{k} = {v}" for k, v in entries.items()] + junk)


config_texts = st.builds(
    _config_text,
    st.dictionaries(st.sampled_from(CONFIG_KEYS), config_values, max_size=4),
    st.booleans(),
    st.lists(st.one_of(st.just("# note"), st.text(text_chars, max_size=12)), max_size=1))


def _main_quietly(argv):
    """cli.main's exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(config_texts)
@settings(max_examples=200, deadline=None)
def test_heat_exit_contract_fuzz(tmp_path_factory, text):
    cfg = tmp_path_factory.mktemp("heat") / "fuzz.cfg"
    cfg.write_bytes(text.encode())
    code, _ = _main_quietly(["heat", "--config", str(cfg)])
    assert code in (0, 2)


WARP_TOKENS = ["t", "1", "2", "0", "0.5", "3.25", "99999", "(", ")", "+", "-", "*", "/",
               "^", "^-", "sin(", "cos(", "exp(", "ln(", "nope(", " ", ".", "e", "#"]
warp_exprs = st.recursive(
    st.sampled_from(["t", "1", "2", "0", "0.5", "3.25", "99999"]),
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}({})".format,
                  st.sampled_from(["sin", "cos", "exp", "ln", "sinh", "cosh"]), inner),
        st.builds("({})^{}".format, inner, st.integers(-4, 40))),
    max_leaves=6)
warp_texts = st.one_of(
    warp_exprs,
    warp_exprs.map("2+{}".format),
    st.lists(st.sampled_from(WARP_TOKENS), min_size=1, max_size=12).map("".join))


@given(warp_texts, st.sampled_from(["0,1", "0.5,1.5", "-1,1", "1,0", "0,0"]),
       st.sampled_from(["0", "1", "-1"]))
@settings(max_examples=120, deadline=None)
def test_rw_exit_contract_fuzz(warp, interval, curv):
    code, out = _main_quietly(["rw", f"--f={warp}", f"--interval={interval}",
                               "--curv", curv])
    assert code in (0, 1, 2)
    if code == 1:  # only the convergence check may fail
        assert json.loads(out)["convergence"]["converged"] is False


# Whole-argv fuzzing: each subcommand's flags with valid and hostile values.  A
# value "@name" is the file "name" in a scratch directory ("@" is the directory).
JSON_PATHS = ["@out.json", "@out.json", "@missing/out.json", "@"]
ARGV_FLAGS = {
    "verify-boundary": {
        "--dim": ["3", "3", "5", "5", "4", "6", "9", "0", "-2", "x", ""],
        "--powers": ["1,1", "1,1", "2,2", "2,2", "2,1", "0,0", "1", "a,b", "1,1,1", "-1,1"],
        "--p": ["0", "1", "2", "-1", "x", "1000000000"],
        "--q": ["0", "1", "2", "3", "-1"],
        "--json": JSON_PATHS,
    },
    "heat": {
        "--config": ["@flat.cfg", "@bounded.cfg", "@bad.cfg", "@binary.cfg",
                     "@missing.cfg", "@"],
        "--json": JSON_PATHS,
    },
    "rw": {
        "--f": ["t", "1", "2+sin(t)", "exp(t)", "ln(t)", "nope(t)", "(t", "", "t^-1",
                "exp(exp(exp(t)))"],
        "--interval": ["1,2", "0,1", "1,0", "0,0", "nan,1", "1e309,2", "0", "a,b",
                       "1e-300,1", "-1,1"],
        "--curv": ["0", "1", "-1", "1e308", "nan", "inf", "x"],
        "--base-vol": ["1", "2", "0", "-1", "nan", "1e308"],
        "--lambda": ["2", "1e100", "-1", "0", "nan"],
        "--json": JSON_PATHS,
    },
    "oracle": {
        "--seed": ["0", "7", "-5", "x", "99999999999999999999"],
        "--count": ["0", "1", "2", "-3", "x", "1.5", ""],
        "--json": JSON_PATHS,
    },
}
# required flags are left out now and then; --count always appears, since its
# default (100) takes about a second
REQUIRED_FLAGS = {"--dim", "--powers", "--config", "--f", "--interval"}
STRAY_ARGS = ["--nope", "-", "--", "", "--help", "extra"]
FUZZ_FILES = {
    "flat.cfg": b"p = 2\nq = 2\nr = 1\nvol = 1\n",
    "bounded.cfg": b"p = 1\nq = 2\nr = 1\nvol = 1\nbvol = 1\nL_aa = 1/2\n",
    "bad.cfg": b"p = 2\nq == oops\n",
    "binary.cfg": b"p = \xff\xfe\n",
}


def _fuzz_argv(choose, command=None):
    """argv from ``choose``, a function that picks one item of a sequence."""
    if command is None:
        command = choose([*ARGV_FLAGS, "bogus"])
    argv = [command]
    for flag, values in ARGV_FLAGS.get(command, {}).items():
        if flag == "--count" or choose((True,) * 7 + (False,) if flag in REQUIRED_FLAGS
                                       else (True, False)):
            argv += [flag, choose(values)]
    if choose((False,) * 7 + (True,)):
        argv.insert(choose(range(len(argv) + 1)), choose(STRAY_ARGS))
    return argv


def _fuzz_dir(root):
    for name, data in FUZZ_FILES.items():
        (root / name).write_bytes(data)
    return root


def _resolve(argv, root):
    return [str(root / a[1:]) if a.startswith("@") else a for a in argv]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_argv_exit_contract_fuzz(tmp_path_factory, data):
    root = _fuzz_dir(tmp_path_factory.mktemp("argv"))
    argv = _resolve(_fuzz_argv(lambda seq: data.draw(st.sampled_from(seq))), root)
    code, _ = _main_quietly(argv)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("command", list(ARGV_FLAGS))
def test_argv_fuzz_sample_prints_no_traceback(command, tmp_path):
    # one fixed fuzzed argv per subcommand, run as the real program
    argv = _fuzz_argv(random.Random(command).choice, command)
    argv = _resolve(argv, _fuzz_dir(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "wres.cli", *argv], cwd=tmp_path,
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


# The argparse command line that cli.parse_args replaced, kept as the reference
# of what every valid command line means.  Its converters were the same
# functions, raising argparse.ArgumentTypeError instead of ValueError.
def _argparse_parser():
    parser = argparse.ArgumentParser(prog="wres")
    sub = parser.add_subparsers(dest="command", required=True)
    vb = sub.add_parser("verify-boundary")
    vb.add_argument("--dim", type=int, required=True)
    vb.add_argument("--powers", type=cli._powers, required=True)
    vb.add_argument("--p", type=int, default=None)
    vb.add_argument("--q", type=int, default=None)
    vb.add_argument("--json", default=None)
    he = sub.add_parser("heat")
    he.add_argument("--config", required=True)
    he.add_argument("--json", default=None)
    rw = sub.add_parser("rw")
    rw.add_argument("--f", required=True)
    rw.add_argument("--interval", type=cli._interval, required=True)
    rw.add_argument("--curv", type=cli._finite, default=0.0)
    rw.add_argument("--base-vol", type=cli._finite, default=1.0)
    rw.add_argument("--lambda", dest="cutoff_scale", type=cli._finite, default=None)
    rw.add_argument("--json", default=None)
    orc = sub.add_parser("oracle")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--count", type=int, default=100)
    orc.add_argument("--json", default=None)
    return parser


def _join_numeric_values(argv):
    """argparse reads a spaced "-1,1" or "-1e-3" as an option name, so these
    values were joined to their option as "--interval=-1,1"."""
    def is_number_list(text):
        try:
            for part in text.split(","):
                float(part)
        except ValueError:
            return False
        return True

    out, i = [], 0
    while i < len(argv):
        if (argv[i] in ("--interval", "--curv", "--base-vol", "--lambda", "--powers")
                and i + 1 < len(argv) and is_number_list(argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _argparse_values(argv):
    """The argparse reading of argv as a dict, or None when it rejects argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = _argparse_parser().parse_args(_join_numeric_values(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None
    return vars(args)


def _parse_values(argv):
    try:
        return vars(cli.parse_args(argv))
    except cli.BadInput:
        return None


def _readme_argvs():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.replace("[", "").replace("]", ""))[1:]
            for line in block.splitlines() if line.startswith("wres ")]


# per flag, values to pass spaced and joined; negative numbers included
FLAG_VALUES = {
    "--dim": ["4", "-2"], "--powers": ["2,1", "-1,1"], "--p": ["2", "-1"], "--q": ["0", "-3"],
    "--json": ["out.json"], "--config": ["in.cfg"], "--f": ["exp(t)", "2+t"],
    "--interval": ["0,1", "-1,1", "-0.5,0.5", "1e-3,2"], "--curv": ["1", "-1", "-1e-3", "-1.0"],
    "--base-vol": ["2", "-1", "0.5"], "--lambda": ["2", "-2", "1e-3"],
    "--seed": ["7", "-5", "99999999999999999999"], "--count": ["0", "-3"],
}
BASE_ARGVS = {
    "verify-boundary": ["verify-boundary", "--dim", "4", "--powers", "1,1"],
    "heat": ["heat", "--config", "h.cfg"],
    "rw": ["rw", "--f", "t", "--interval", "0.5,1.5"],
    "oracle": ["oracle"],
}


def _valid_argvs():
    workloads = _perfbench_module("workloads")
    argvs = [op["argv"] for op in workloads.fixed_ops() if op["kind"] == "cli"]
    for seed in (1, 2, 3):
        argvs += [op["argv"] for block in range(3)
                  for op in workloads.block_ops("warped-heat", seed, block)]
    argvs += _readme_argvs()
    for command, base in BASE_ARGVS.items():
        argvs.append(base)
        for flag, *_ in cli.COMMANDS[command][2]:
            for value in FLAG_VALUES[flag]:
                argvs += [base + [flag, value], base + [f"{flag}={value}"]]
    return argvs


def test_parser_agrees_with_argparse_on_valid_command_lines():
    argvs = _valid_argvs()
    assert len(argvs) > 100
    for argv in argvs:
        values = _parse_values(argv)
        assert values is not None, argv
        assert values == _argparse_values(argv), argv


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--nope"], ["rw", "--nope", "1"], BASE_ARGVS["rw"] + ["--nope=1"],
    BASE_ARGVS["rw"] + ["extra"], BASE_ARGVS["oracle"] + ["--count"],
    ["rw", "--f", "t", "--interval"], ["verify-boundary", "--dim", "4"],
    ["verify-boundary", "--powers", "1,1"], ["heat"], ["rw", "--interval", "0,1"],
    ["oracle", "--count", "x"], ["oracle", "--seed", "1.5"], ["oracle", "--count="],
    ["verify-boundary", "--dim", "x", "--powers", "1,1"],
    ["rw", "--f", "t", "--interval", "0"], ["rw", "--f", "t", "--interval", "a,b"],
    ["rw", "--f", "t", "--interval", "nan,1"], ["rw", "--f", "t", "--interval=1e309,2"],
    BASE_ARGVS["rw"] + ["--curv", "inf"],
    ["verify-boundary", "--dim", "4", "--powers", "1"],
    ["verify-boundary", "--dim", "4", "--powers", "1,1,1"],
    ["verify-boundary", "--dim", "4", "--powers=a,b"],
], ids=shlex.join)
def test_parser_and_argparse_both_reject(argv):
    assert _argparse_values(argv) is None
    assert _parse_values(argv) is None
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [["-h"], ["oracle", "--seed", "1", "-h"]])
def test_help_prints_usage(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: wres ")
    commands = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    for command in commands:
        for flag, *_ in cli.COMMANDS[command][2]:
            assert f"  {flag} " in out

"""Warped-product model: parser, order-3 jets, the curvature contractions
against a finite-difference oracle, and the spectral-action coefficients."""

import importlib.util
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wres import oracles, warped
from wres.heat import SPINOR, bracket, v_nk
from wres.oracles import fd_jet, random_warp_ast, run_ad_oracle, tame_warp_jets
from wres.quadpack import gauss_legendre
from wres.warped import (
    Jet3,
    RWModel,
    WarpDomainError,
    WarpFunction,
    WarpSyntaxError,
    gauss_legendre_check,
    parse_warp,
    quad_adaptive,
    rw_lower_volumes,
    rw_spectral_coeffs,
    warped_geometry,
)

ROOT = Path(__file__).resolve().parents[1]

# frozen regression values for f = exp(t), c = 1, vol = 1 on [0, 1]
# (computed once by the adaptive-quadrature path at the default tolerance)
FROZEN_EXP_RUN = {
    "a0": 0.3222948652511527,
    "a1": -0.9466727236248029,
    "a2": 0.6010651433296574,
    "a3": 0.4680552355754839,
    "a4_interior": 0.20867496999979693,
    "a4_printed_bracket": -0.9926904580134643,
    "a4_derived_bracket": -0.8098871918883441,
}
FROZEN_EXP_VOLUMES = {
    "vol_top_weighted": 3.3978801407034878,
    "vol_top_plain": 0.3222948652511527,
    "vol_mid": -0.04116915272310072,
}


# ---------------------------------------------------------------------------
# parser and jets
# ---------------------------------------------------------------------------

def test_parse_and_roundtrip():
    for text in ("exp(0.5*t)", "1", "sin(t)+2", "t^3/(1+t^2)", "2.5*cosh(t)-ln(4+t)"):
        f = parse_warp(text)
        g = parse_warp(f.to_string())
        for t in (0.1, 0.7, 1.9):
            assert g.derivatives(t) == f.derivatives(t)


def test_constant_and_exponential_jets():
    one = parse_warp("1")
    assert one.derivatives(0.7) == (1.0, 0.0, 0.0, 0.0)
    cube = parse_warp("t^3")
    assert cube.derivatives(2.0) == (8.0, 12.0, 12.0, 6.0)
    f = parse_warp("exp(0.5*t)")
    d = f.derivatives(0.0)
    assert d[1] == pytest.approx(0.5 * d[0], abs=1e-15)
    for k in range(4):
        assert d[k] == pytest.approx(0.5 ** k, abs=1e-15)


def test_third_derivative_against_finite_differences():
    f = parse_warp("sin(t)+2")
    t = 0.3
    jet = f.derivatives(t)
    fd = fd_jet(lambda x: math.sin(x) + 2, t)
    assert abs(jet[3] - fd[3]) <= 1e-6


@pytest.mark.parametrize("text,offset_hint", [
    ("foo(t)", "unknown identifier"),
    ("1..5", "malformed number"),
    ("sin(t,1)", "unexpected character"),
    ("2*", "unexpected token"),
    ("sin(t", "arity mismatch"),
    ("t^t", "exponent must be an integer"),
    # superscript two is a digit but not a decimal one, which Fraction rejects
    ("2\u00b2", "unexpected character '\u00b2' (at offset 1)"),
    ("t^\u00b2", "unexpected character '\u00b2' (at offset 2)"),
    # the message names the source text of the token, or the end of input
    ("1e400", "trailing input 'e400' (at offset 1)"),
    ("t end", "trailing input 'end' (at offset 2)"),
    ("2 3", "trailing input '3' (at offset 2)"),
    ("t+", "unexpected token: end of input (at offset 2)"),
    # a name starts with a letter or '_': digits that are not decimal start none
    ("\u00bd", "unexpected character '\u00bd' (at offset 0)"),
    ("\u2177*t", "unexpected character '\u2177' (at offset 0)"),
    # a titlecase letter is a letter
    ("\u01c5(t)", "unknown identifier '\u01c5' (at offset 0)"),
    ("_x", "unknown identifier '_x' (at offset 0)"),
    (".", "unexpected character '.' (at offset 0)"),
    ("5.", "malformed number (at offset 0)"),
    ("1.2.3", "malformed number (at offset 0)"),
    # the whole warp is scanned before it is parsed
    ("t t $", "unexpected character '$' (at offset 4)"),
])
def test_parse_errors_carry_offsets(text, offset_hint):
    with pytest.raises(WarpSyntaxError) as err:
        parse_warp(text)
    assert offset_hint in str(err.value)
    assert "offset" in str(err.value)


@pytest.mark.parametrize("text,ast", [
    # Unicode decimal digits are digits, as Fraction reads them
    ("\u0663*t", ("*", ("num", Fraction(3)), ("t",))),
    ("\U0001d7d9+t", ("+", ("num", Fraction(1)), ("t",))),
    (".5*t", ("*", ("num", Fraction(1, 2)), ("t",))),
    # any Unicode whitespace separates tokens
    ("t\u2003+\u00a01", ("+", ("t",), ("num", Fraction(1)))),
])
def test_scanner_accepts(text, ast):
    assert parse_warp(text).ast == ast


def test_every_warp_the_jet_oracle_prints_parses_back():
    for seed in range(1, 9):
        rng = random.Random(seed)
        for _ in range(100):
            ast, tame = random_warp_ast(rng)
            parsed = parse_warp(warped._ast_to_string(ast))
            assert parse_warp(parsed.to_string()).ast == parsed.ast
            for t, (jet, _) in tame.items():
                drawn = jet.derivatives()
                scale = max(1.0, *(abs(v) for v in drawn))
                assert max(abs(a - b) for a, b in zip(parsed.derivatives(t), drawn)) \
                    <= 1e-12 * scale, (parsed.to_string(), t)


def test_domain_errors():
    with pytest.raises(WarpDomainError):
        parse_warp("ln(t)").derivatives(0.0)
    with pytest.raises(WarpDomainError):
        parse_warp("1/t").derivatives(0.0)
    with pytest.raises(WarpDomainError):
        warped_geometry(RWModel(0.0, 1.0, parse_warp("t-2")), 0.5)


def test_ad_against_fd_100_random():
    report = run_ad_oracle(seed=2024, count=100)
    assert report["pass"], report


def test_ad_oracle_skips_subtrees_lost_to_rounding():
    # this seed used to draw sin(exp(4^3)+t), where exp(64)+t rounds to exp(64)
    report = run_ad_oracle(seed=1148509388, count=100)
    assert report["failures"] == 0, report


def test_tame_filter_bounds_every_subtree_in_its_single_pass():
    probes = oracles.PROBES
    steps = (-4e-3, -2e-3, -1e-3, 0.0, 1e-3, 2e-3, 4e-3)
    warp = parse_warp("sin(exp(4^3) + t)")
    # every jet is tame, and exp(64) + t rounds to exp(64), so both stencils
    # see a constant and agree: only the bound on the subtree exp(64) rejects it
    for t in probes:
        assert all(abs(v) <= 1 for v in warp.derivatives(t))
        assert len({warp(t + k) for k in steps}) == 1
    assert tame_warp_jets(warp.ast) is None
    # an accepted warp comes with exactly the probes, each with its jet and
    # the finite differences at step 1e-3 that fd_jet gives from the warp
    square = parse_warp("t^2")
    tame = tame_warp_jets(square.ast)
    assert set(tame) == set(probes)
    for t, (jet, fd) in tame.items():
        assert _bits(jet) == _bits(square.jet(t))
        assert [v.hex() for v in fd] == [v.hex() for v in fd_jet(square, t)]


def test_ad_oracle_names_its_first_failure(monkeypatch):
    assert "first_failure" not in run_ad_oracle(seed=3, count=3)
    # a negative tolerance fails every input
    monkeypatch.setattr(oracles, "JET_REL_TOL", -1.0)
    report = run_ad_oracle(seed=3, count=3)
    assert report["failures"] == 3 and not report["pass"]
    rng = random.Random(3)
    probes = oracles.PROBES
    ast, _ = random_warp_ast(rng)
    t = probes[rng.randrange(len(probes))]
    assert report["first_failure"] == {"index": 0, "t": t, "warp": warped._ast_to_string(ast)}
    # the text replays: rw --f parses it to a warp with the same values
    replayed = parse_warp(report["first_failure"]["warp"])
    assert replayed.derivatives(t) == pytest.approx(WarpFunction(ast).derivatives(t), rel=1e-12)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _walk(node, t):
    """A walk of the warp AST node by node, the reference for its compiled form."""
    op = node[0]
    if op == "num":
        return Jet3(float(node[1]))
    if op == "t":
        return t
    if op == "pow":
        return _walk(node[1], t) ** node[2]
    if op == "call":
        return warped.JET_RULES.functions[node[1]](_walk(node[2], t))
    lhs = _walk(node[1], t)
    return _BINARY[op](lhs, _walk(node[2], t))


def _bits(jet):
    return tuple(float(v).hex() for v in jet.derivatives())


def _stencil(t):
    """The points at which the jet oracle's filter evaluates the warp around
    probe t, as ``fd_jet`` computes them for steps 2e-3 and 1e-3."""
    points = []
    for h in (2e-3, 1e-3):
        fd_jet(lambda x: points.append(x) or 0.0, t, h=h)
    return points


def test_compiled_warp_matches_a_walk_of_the_tree():
    # the float evaluator knows the names of the warp vocabulary, no more
    assert list(warped.VALUE_RULES.functions) == list(warped._FUNCTIONS)
    rng = random.Random(77)
    for _ in range(300):
        ast, tame = random_warp_ast(rng)
        warp = WarpFunction(ast)
        value = warped.compile_ast(ast, rules=warped.VALUE_RULES)
        assert set(tame) == set(oracles.PROBES)
        for t, (jet, _) in tame.items():
            expected = _bits(_walk(ast, Jet3.variable(t)))
            assert _bits(warp.jet(t)) == expected == _bits(jet), (warp.to_string(), t)
            # the float evaluator at the stencil points has the bits of the
            # jet's value there
            for x in _stencil(t):
                assert value(x).hex() == _walk(ast, Jet3.variable(x)).value.hex(), \
                    (warp.to_string(), x)
    for text, exc in (("ln(t-2)", WarpDomainError), ("1/(t-t)", WarpDomainError),
                      ("exp(exp(exp(t)))", OverflowError)):
        warp = parse_warp(text)
        with pytest.raises(exc):
            _walk(warp.ast, Jet3.variable(2.0))
        with pytest.raises(exc):
            warp.jet(2.0)
        with pytest.raises(exc):
            warped.compile_ast(warp.ast, rules=warped.VALUE_RULES)(2.0)


def _reference_tame_warp_jets(ast, probes):
    """The jet oracle's filter with a jet at every stencil point: whether it
    accepts the AST, and each probe's jet and finite differences at step 1e-3."""
    subtree_values = []
    probe_jet = warped.compile_ast(ast, lambda jet: subtree_values.append(jet.d[0]))
    point_jet = warped.compile_ast(ast)
    jets = {}

    def value(x):
        if x not in jets:
            jets[x] = point_jet(Jet3.variable(x))
        return jets[x].value

    try:
        for t in probes:
            subtree_values.clear()
            jet = jets[t] = probe_jet(Jet3.variable(t))
            if not all(math.isfinite(v) and abs(v) < 1e4 for v in jet.derivatives()):
                return None
            if any(abs(v) >= 1e8 for v in subtree_values):
                return None
            coarse = fd_jet(value, t, h=2e-3)
            fine = fd_jet(value, t, h=1e-3)
            scale = max(1.0, *(abs(v) for v in fine))
            if max(abs(a - b) for a, b in zip(coarse, fine)) > 2.5e-7 * scale:
                return None
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    return {t: (jets[t], fd_jet(value, t)) for t in probes}


def test_tame_filter_decides_as_a_filter_with_jets_at_every_stencil_point(monkeypatch):
    filtered = oracles.tame_warp_jets
    drawn = []

    def compared(ast):
        probes = oracles.PROBES
        got, want = filtered(ast), _reference_tame_warp_jets(ast, probes)
        assert (got is None) == (want is None), warped._ast_to_string(ast)
        if got is not None:
            assert set(got) == set(want)
            for t in probes:
                (jet, fd), (ref_jet, ref_fd) = got[t], want[t]
                assert _bits(jet) == _bits(ref_jet), (warped._ast_to_string(ast), t)
                assert [v.hex() for v in fd] == [v.hex() for v in ref_fd], \
                    (warped._ast_to_string(ast), t)
        drawn.append(got is not None)
        return got

    monkeypatch.setattr(oracles, "tame_warp_jets", compared)
    # seed 1148509388 draws sin(exp(4^3)+t), which only the subtree bound rejects
    seeds = (4, 1, 7, 2, 1148509388)
    for seed in seeds:
        assert run_ad_oracle(seed, 100)["pass"]
    assert drawn.count(True) == 100 * len(seeds) and drawn.count(False) > 0


def test_jet_sums_and_differences_keep_the_composed_bits():
    """Jet3 + and - agree bit for bit with a sum of the negated operand,
    component by component, signed zeros, infinities and subnormals
    included."""
    specials = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, 1.0, -1.0]
    rng = random.Random(1512)

    def draw():
        if rng.random() < 0.5:
            return rng.choice(specials)
        return rng.choice((1.0, -1.0)) * rng.random() * 10.0 ** rng.randint(-320, 300)

    def composed_sum(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(x):
        return tuple(-a for a in x)

    for _ in range(3000):
        x, y = (tuple(draw() for _ in range(4)) for _ in range(2))
        jx, jy = Jet3(*x), Jet3(*y)
        for got, want in ((jx + jy, composed_sum(x, y)), (jx - jy, composed_sum(x, neg(y)))):
            assert [v.hex() for v in got.d] == [v.hex() for v in want], (x, y)


def _loop_power(x, k, one, inverse):
    """The reference power: binary exponentiation that also squares x after
    the top bit of k, a square whose result no step uses."""
    if k < 0:
        return inverse(_loop_power(x, -k, one, inverse))
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _outcome(fn):
    """The float bits of what ``fn()`` returns, or the type it raises."""
    try:
        value = fn()
    except Exception as exc:  # the types are compared, whichever they are
        return type(exc)
    return tuple(float(v).hex() for v in (value.d if isinstance(value, Jet3) else (value,)))


def test_jet_and_value_powers_keep_the_loop_bits():
    """Jet3 ** k and ``VALUE_RULES.power`` give the bits and the errors of a
    binary-exponentiation loop that also takes the unused last square, on
    jets with zeros, infinities and subnormals."""
    specials = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, 1.0, -1.0]
    rng = random.Random(3061)

    def draw():
        if rng.random() < 0.5:
            return rng.choice(specials)
        return rng.choice((1.0, -1.0)) * rng.random() * 10.0 ** rng.randint(-320, 300)

    kinds = set()
    for _ in range(400):
        jet = Jet3(*(draw() for _ in range(4)))
        for k in range(-6, 10):
            got = _outcome(lambda: jet ** k)
            assert got == _outcome(lambda: _loop_power(jet, k, Jet3(1.0), Jet3.inverse))
            v = jet.value
            assert (_outcome(lambda: warped.VALUE_RULES.power(v, k))
                    == _outcome(lambda: _loop_power(v, k, 1.0, warped._reciprocal)))
            kinds.add(got if isinstance(got, type) else tuple)
    # the draws reach every outcome: values and each error of an inverse
    assert kinds == {tuple, WarpDomainError, ZeroDivisionError, OverflowError}


# ---------------------------------------------------------------------------
# warped curvature data
# ---------------------------------------------------------------------------

def test_product_metric_degeneration():
    model = RWModel(0.0, 1.0, parse_warp("1"), curv=0.25)
    d = warped_geometry(model, 0.5)
    for name in ("L_aa", "L2_abab", "L2_aabb", "L3_aabbcc", "R_aNaN",
                 "R_aNaN_L_bb", "R_aNbN_L_ab", "R_abcb_L_ac", "r_N", "r_L_aa"):
        assert getattr(d, name) == 0
    assert float(d.r) == model.base_r
    assert float(d.ric2) == model.base_ric2


def test_constant_curvature_contractions():
    model = RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0)
    t = 0.4
    f = math.exp(t)
    d = warped_geometry(model, t)
    assert float(d.r) == pytest.approx(6.0 / f ** 2 + 12.0, rel=1e-12)
    assert float(d.L_aa) == pytest.approx(-3.0, rel=1e-12)
    assert float(d.R_aNaN) == pytest.approx(3.0, rel=1e-12)
    assert float(d.L2_aabb) == pytest.approx(9.0, rel=1e-12)
    assert float(d.L3_abbcac) == pytest.approx(-3.0, rel=1e-12)
    assert float(d.ric2) == pytest.approx(12.0 + 12.0, rel=1e-12)


def test_orientation_flip():
    model = RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=0.0)
    plus = warped_geometry(model, 1.0, normal_sign=1)
    minus = warped_geometry(model, 1.0, normal_sign=-1)
    assert float(minus.L_aa) == -float(plus.L_aa)
    assert float(minus.L3_aabbcc) == -float(plus.L3_aabbcc)
    assert float(minus.r_N) == -float(plus.r_N)
    assert float(minus.L2_abab) == float(plus.L2_abab)
    assert float(minus.R_aNaN) == float(plus.R_aNaN)


# ---------------------------------------------------------------------------
# finite-difference curvature oracle (metric dt^2 + f(t)^2 delta on R^3)
# ---------------------------------------------------------------------------

def _metric(f, pt):
    t = pt[0]
    v = f(t) ** 2
    return np.diag([1.0, v, v, v])


def _christoffel(f, pt, h=1e-5):
    g = _metric(f, pt)
    ginv = np.linalg.inv(g)
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        dg[k] = (_metric(f, pt + e) - _metric(f, pt - e)) / (2 * h)
    gamma = np.zeros((4, 4, 4))
    for l in range(4):
        for i in range(4):
            for j in range(4):
                gamma[l, i, j] = 0.5 * sum(
                    ginv[l, m] * (dg[i][j, m] + dg[j][i, m] - dg[m][i, j])
                    for m in range(4))
    return gamma


def _riemann(f, pt, h=1e-4):
    """R(d_i, d_j) d_k = R^l_{kij} d_l via centered differences of Christoffels."""
    gamma = _christoffel(f, pt)
    dgamma = np.zeros((4, 4, 4, 4))
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        dgamma[m] = (_christoffel(f, pt + e) - _christoffel(f, pt - e)) / (2 * h)
    riem = np.zeros((4, 4, 4, 4))  # [l, k, i, j]
    for l in range(4):
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    riem[l, k, i, j] = (
                        dgamma[i][l, j, k] - dgamma[j][l, i, k]
                        + sum(gamma[l, i, e] * gamma[e, j, k]
                              - gamma[l, j, e] * gamma[e, i, k] for e in range(4)))
    return riem


def test_curvature_against_finite_differences():
    warp = parse_warp("1+t/10")
    f = lambda t: warp(t)
    t0 = 0.0
    pt = np.array([t0, 0.3, -0.2, 0.1])
    f0, f1, f2, f3 = warp.derivatives(t0)
    riem = _riemann(f, pt)

    # curvature operator on the lifted fields: R(d_t, X) d_t = (f''/f) X
    for a in (1, 2, 3):
        got = riem[:, 0, 0, a]
        want = np.zeros(4)
        want[a] = f2 / f0
        assert np.allclose(got, want, atol=1e-6)
    # R(X, d_t) Y = <X, Y> (f''/f) d_t with <X, X> = f^2
    for a in (1, 2, 3):
        got = riem[:, a, a, 0]
        want = np.zeros(4)
        want[0] = f0 * f2
        assert np.allclose(got, want, atol=1e-6)
    # R(X, Y) d_t = 0
    assert np.allclose(riem[:, 0, 1, 2], 0.0, atol=1e-6)
    # the purely tangential part for the flat base: the displayed closed form
    # holds with the opposite curvature-operator orientation
    got = riem[:, 2, 1, 2]  # R(d_x, d_y) d_y
    want = np.zeros(4)
    want[1] = -f1 * f1
    assert np.allclose(got, want, atol=1e-6)

    # second fundamental form of the slice: <nabla_{e_a} e_a, d_t> = -f'/f
    gamma = _christoffel(f, pt)
    for a in (1, 2, 3):
        l_aa = gamma[0, a, a] / f0 ** 2  # orthonormalized
        assert abs(l_aa - (-f1 * f0) / f0 ** 2) <= 1e-6
    data = warped_geometry(RWModel(-1.0, 1.0, warp), t0)
    assert float(data.L_aa) == pytest.approx(3 * (-f1 / f0), abs=1e-12)
    # R_aNaN contraction from the numeric tensor (orthonormal frames)
    r_anan = sum(riem[0, a, a, 0] / f0 ** 2 for a in (1, 2, 3))
    assert abs(r_anan - float(data.R_aNaN)) <= 1e-6


# ---------------------------------------------------------------------------
# spectral-action coefficients
# ---------------------------------------------------------------------------

def test_flat_model_coefficients():
    model = RWModel(0.0, 1.0, parse_warp("1"), curv=0.0)
    co = rw_spectral_coeffs(model)
    assert co.a2 == pytest.approx(0.0, abs=1e-14)
    assert co.a3 == pytest.approx(0.0, abs=1e-14)
    assert co.a4_interior == pytest.approx(0.0, abs=1e-14)
    assert co.a4_printed == pytest.approx(0.0, abs=1e-14)
    assert co.a4_derived == pytest.approx(0.0, abs=1e-14)
    assert co.a0 == pytest.approx(8 / (16 * math.pi ** 2), rel=1e-12)


def test_generic_path_agreement_a0_a2():
    for text, c in (("exp(t)", 1.0), ("1+t/10", 0.3), ("2+sin(t)", -1.0)):
        co = rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp(text), curv=c))
        for key, got in (("residual_a0", co.a0), ("residual_a1", co.a1),
                         ("residual_a2", co.a2)):
            assert co.diagnostics[key] <= 1e-9 * max(1.0, abs(got)), (text, key)


def test_a3_agreement_reported():
    # the bracket identity makes the generic a3 agree as well; report only
    co = rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0))
    assert co.diagnostics["residual_a3"] <= 1e-9 * max(1.0, abs(co.a3))


def test_frozen_regression_exp_run():
    co = rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0))
    got = co.as_dict()
    for key, want in FROZEN_EXP_RUN.items():
        assert got[key] == pytest.approx(want, rel=1e-9), key
    vols = rw_lower_volumes(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0), co)
    for key, want in FROZEN_EXP_VOLUMES.items():
        assert vols[key] == pytest.approx(want, rel=1e-9), key
    assert vols["vol_low_parity_flag"] is True


def test_lower_volumes_flat():
    model = RWModel(0.0, 1.0, parse_warp("1"), curv=0.0)
    vols = rw_lower_volumes(model, rw_spectral_coeffs(model))
    assert vols["vol_mid"] == pytest.approx(0.0, abs=1e-14)
    assert vols["vol_low"] == 0.0
    assert vols["vol_top_weighted"] == pytest.approx(vols["vol_top_plain"], rel=1e-12)


# The lower volumes of the four scripts/rw_action.py models as computed when
# rw_lower_volumes ran its own four quad_adaptive calls (against the warped
# volume element: 1, the scalar curvature, the interior a4 bracket and f^3).
SEPARATE_LOWER_VOLUMES = [
    (("1", 0.0, 0.0, 1.0),
     {"vol_top_weighted": 0.05066059182116889, "vol_top_plain": 0.05066059182116889,
      "vol_mid": -0.0}),
    (("exp(t)", 1.0, 0.0, 1.0),
     {"vol_top_weighted": 3.3978801407034878, "vol_top_plain": 0.3222948652511527,
      "vol_mid": -0.04116915272310072}),
    (("2+sin(t)", -1.0, 0.5, 1.5),
     {"vol_top_weighted": 25.87369332698407, "vol_top_plain": 1.1304578591859904,
      "vol_mid": 0.024063143128820415}),
    (("cosh(t)", 1.0, -0.5, 0.5),
     {"vol_top_weighted": 0.06625121602842735, "vol_top_plain": 0.05757692108194564,
      "vol_mid": -0.006479680185520715}),
]


@pytest.mark.parametrize("run, want", SEPARATE_LOWER_VOLUMES,
                         ids=[run[0] for run, _ in SEPARATE_LOWER_VOLUMES])
def test_lower_volumes_reuse_coefficient_integrals(run, want, monkeypatch):
    text, curv, a, b = run
    model = RWModel(a, b, parse_warp(text), curv=curv)
    coeffs = rw_spectral_coeffs(model)
    calls = []
    inner = warped.quad_adaptive

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(warped, "quad_adaptive", counted)
    vols = rw_lower_volumes(model, coeffs)
    assert len(calls) == 1  # only f^3 against the volume element
    assert vols == {"vol_top_k": 4, "vol_mid_k": 2, "vol_low_k": 0, "vol_low": 0.0,
                    "vol_low_parity_flag": True, **want}
    assert str(vols["vol_mid"]) == str(want["vol_mid"])  # the sign of -0.0 too


def test_interior_a4_matches_stated_warped_bracket():
    # the generic interior bracket evaluated on warped data coincides with the
    # stated warped closed form:
    #   (5/4) r~^2 - 2 Ric_M^2 + (23/4) Riem_M^2 - 45 (f''/f)^2
    model = RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0)
    from wres.warped import quad_adaptive
    c = model.curv

    def generic(t):
        d = warped_geometry(model, t)
        return float(Fraction(5, 4) * d.r2 - 2 * d.ric2
                     - Fraction(7, 4) * d.riem2 + Fraction(15, 2) * d.rfperp2)

    def stated(t):
        f0, f1, f2, _ = model.warp.derivatives(t)
        r_tilde = 6 * c / f0 ** 2 + 6 * (f2 / f0 + (f1 / f0) ** 2)
        return (1.25 * r_tilde ** 2 - 2 * (12 * c * c) + 5.75 * (12 * c * c)
                - 45 * (f2 / f0) ** 2)

    for t in (0.1, 0.5, 0.9):
        assert generic(t) == pytest.approx(stated(t), rel=1e-12)
    g = quad_adaptive(lambda t: generic(t) * model.warp(t) ** 3, 0, 1)
    s = quad_adaptive(lambda t: stated(t) * model.warp(t) ** 3, 0, 1)
    assert g == pytest.approx(s, rel=1e-10)


def test_rw_builds_each_end_geometry_once(monkeypatch):
    # the exact CurvatureData is built at t = a and t = b only; the interior
    # quadrature points use the float formulas
    calls = []
    inner = warped.warped_geometry

    def counted(model, t, normal_sign=1):
        calls.append((t, normal_sign))
        return inner(model, t, normal_sign)

    monkeypatch.setattr(warped, "warped_geometry", counted)
    rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0))
    assert calls == [(0.0, 1), (1.0, -1)]


def test_rw_evaluates_the_warp_once_per_quadrature_point(monkeypatch):
    jets, points = [], []
    jet, quad = WarpFunction.jet, warped.quad_adaptive

    def counted_jet(self, t):
        jets.append(t)
        return jet(self, t)

    def counted_quad(fn, *args, **kwargs):
        return quad(lambda t: points.append(t) or fn(t), *args, **kwargs)

    monkeypatch.setattr(WarpFunction, "jet", counted_jet)
    monkeypatch.setattr(warped, "quad_adaptive", counted_quad)
    rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0))
    # one jet per quadrature point, plus two at each end: its geometry and its volume element
    assert len(jets) == len(points) + 4


def test_rw_table_prefactors_keep_the_float_forms():
    # at the trace dimension 8, c * float(prefactor) gives the bits of the
    # former literal forms -c_b / 4, c_i / 12, -c_b / 384 and c_i / 360
    c_i = 8.0 * (4.0 * math.pi) ** -2.0
    c_b = 8.0 * (4.0 * math.pi) ** -1.5
    v2 = complex(v_nk(4, 2).numeric()).real
    assert c_i * float(SPINOR[4].prefactor) == c_i / 360.0
    for text, curv, a, b in (("1", 0.0, 0.0, 1.0), ("exp(t)", 1.0, 0.0, 1.0),
                             ("2+sin(t)", -1.0, 0.5, 1.5)):
        model = RWModel(a, b, parse_warp(text), curv=curv)
        co = rw_spectral_coeffs(model)
        r_int = co.r_int
        ends = [(warped_geometry(model, t, s), model.volume_element(t))
                for t, s in ((a, 1), (b, -1))]

        def end_sum(pointwise):
            return warped._boundary_sum(ends, pointwise)

        a3_bracket = end_sum(lambda d: float(bracket(SPINOR[3].boundary, d, True)))
        a4_bracket = end_sum(lambda d: float(bracket(SPINOR[4].boundary, d, True)))
        want = {
            "a1": -0.25 * c_b * end_sum(lambda d: 1.0),
            "a2": (c_i / 12.0) * (-r_int + 4.0 * end_sum(lambda d: float(d.L_aa))),
            "a3": (-c_b / 384.0) * a3_bracket,
            "a4_derived": co.a4_interior + (c_i / 360.0) * a4_bracket,
            "vol_mid": -v2 * (c_i / 12.0) * r_int,
        }
        got = {**vars(co), **rw_lower_volumes(model, co)}
        for name, value in want.items():
            assert got[name].hex() == value.hex(), (text, name)


def _seeded_curvature_points(count=240, seed=20261018):
    """(warp, curv, t) drawn from the benchmark's four seeded warp families,
    plus f = t with curv = -1 across [0.5, 1.5]."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    points = [(workloads.seeded_warp(rng)["text"], rng.choice([-1.0, 0.0, 0.5, 1.0]),
               rng.uniform(-1.0, 2.0)) for _ in range(count)]
    return points + [("t", -1.0, 0.5 + k / 40) for k in range(41)]


def test_float_integrands_equal_the_exact_geometry_path():
    # the interior integrands must give, to the bit, what the exact
    # CurvatureData path gave: r~ from the float prelude, and the a4 bracket
    # summed exactly and rounded once (a float-arithmetic bracket moves last bits)
    for text, curv, t in _seeded_curvature_points():
        model = RWModel(-1.0, 2.0, parse_warp(text), curv=curv)
        d = warped_geometry(model, t)
        jet = model.warp.derivatives(t)
        assert warped._warp_curvature(model, t, jet)[6] == float(d.r), (text, curv, t)
        assert warped._a4_integrand(model, t, jet) == float(
            Fraction(5, 4) * d.r2 - 2 * d.ric2 - Fraction(7, 4) * d.riem2
            + Fraction(15, 2) * d.rfperp2), (text, curv, t)


def test_model_guards():
    with pytest.raises(ValueError):
        RWModel(1.0, 0.0, parse_warp("1"))
    from wres.symbols import foliation_model
    with pytest.raises(ValueError):
        foliation_model(3, 0, 8)


def test_quadrature_node_doubling_invariance():
    f = parse_warp("exp(t)")
    integrand = lambda t: f(t) ** 3 * (1.0 + math.sin(3 * t) ** 2)
    adaptive = quad_adaptive(integrand, 0.0, 1.0)
    g1, g2 = gauss_legendre_check(integrand, 0.0, 1.0)
    assert abs(g1 - g2) <= 1e-10 * max(1.0, abs(g2))
    assert adaptive == pytest.approx(g2, rel=1e-10)


def _numpy_gauss_legendre_check(fn, a, b, nodes=64):
    """The node-doubling check as it was computed with numpy (the reference)."""
    def with_n(n):
        x, w = np.polynomial.legendre.leggauss(n)
        xs = 0.5 * (b - a) * x + 0.5 * (a + b)
        return 0.5 * (b - a) * float(sum(wi * fn(xi) for xi, wi in zip(xs, w)))

    return with_n(nodes), with_n(2 * nodes)


@pytest.mark.parametrize("n", [64, 128])
def test_gauss_legendre_table_is_numpys(n):
    x, w = np.polynomial.legendre.leggauss(n)
    rule = gauss_legendre(n)
    assert len(rule) == n
    for i, (xi, wi) in enumerate(rule):
        assert type(xi) is float and type(wi) is float
        assert xi == x[i] and wi == w[i], i


def _warp_volume(text, base_vol=1.0):
    """The integrand the rw report checks: f^3 times the base volume."""
    f = parse_warp(text)
    return lambda t: f(t) ** 3 * base_vol


GAUSS_LEGENDRE_CASES = [
    # the four scripts/rw_action.py runs
    (_warp_volume("1"), 0.0, 1.0),
    (_warp_volume("exp(t)"), 0.0, 1.0),
    (_warp_volume("2+sin(t)"), 0.5, 1.5),
    (_warp_volume("cosh(t)"), -0.5, 0.5),
    # one warp of each seeded benchmark family
    (_warp_volume("2.25+0.75*sin(1.5*t)", 0.5), -1.0, 0.25),
    (_warp_volume("3-1.25*sin(2.75*t)", 2.0), 0.5, 2.0),
    (_warp_volume("exp(1.25*t)"), -0.75, 0.75),
    (_warp_volume("cosh(0.5*t)", 2.0), -1.0, -0.25),
    # plain integrands, including negative ends, integer ends and b < a
    (math.exp, -2.0, 3.0),
    (math.sin, -1.0, 2.0),
    (lambda t: math.cos(10.0 * t), -math.pi, math.pi),
    (lambda t: 1.0 / (1.0 + t * t), -5.0, 5.0),
    (lambda t: t ** 5 - 3.0 * t, -1.5, 0.5),
    (lambda t: t ** 20, -1.0, 1.0),
    (lambda t: math.exp(-t * t), -3.0, 3.0),
    (math.sqrt, 0.0, 2.0),
    (math.log1p, 0.0, 1.0),
    (abs, -1.0, 2.0),
    (lambda t: 1.0, 0, 1),
    (lambda t: 2, -3, 4),
    (math.exp, 1.0, 0.0),
    (lambda t: math.sinh(t) * math.cos(3.0 * t), -0.3, 1e-3),
]


@pytest.mark.parametrize("case", GAUSS_LEGENDRE_CASES)
def test_gauss_legendre_check_equals_numpy_reference(case):
    fn, a, b = case
    got = gauss_legendre_check(fn, a, b)
    want = _numpy_gauss_legendre_check(fn, a, b)
    assert got == want
    assert all(type(v) is float for v in got)


def test_warp_derivatives_helper():
    f = parse_warp("exp(2*t)")
    d = f.derivatives(0.5)
    for k in range(4):
        assert d[k] == pytest.approx(2.0 ** k * math.exp(1.0), rel=1e-14)


def test_no_unary_minus_in_grammar():
    # the grammar has no unary minus; subtraction must be binary
    with pytest.raises(WarpSyntaxError):
        parse_warp("-t")
    assert parse_warp("0-t").derivatives(2.0) == (-2.0, -1.0, 0.0, 0.0)


def test_base_volume_scales_linearly():
    f = parse_warp("exp(t)")
    one = rw_spectral_coeffs(RWModel(0.0, 1.0, f, curv=1.0, base_vol=1.0))
    two = rw_spectral_coeffs(RWModel(0.0, 1.0, f, curv=1.0, base_vol=2.0))
    for key in ("a0", "a1", "a2", "a3", "a4_printed_bracket"):
        assert two.as_dict()[key] == pytest.approx(2 * one.as_dict()[key], rel=1e-12)

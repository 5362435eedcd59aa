"""Symbol builders at the boundary point: closed forms, jets, derivative
oracle, and the normal-coordinate reduction."""

from fractions import Fraction

import pytest

from wres.boundary import get_scenario, registered_scenarios
from wres.clifford import CliffordElement
from wres.symbolic import GR_I, U_H1, GaussianRational, RationalXi, ScalarPoly
from wres.symbols import (
    conn,
    connection_word,
    foliation_model,
    h1_poly,
    omega,
    sigma0_DF,
    sigma_minus1_Dinv,
    sigma_minus2_Dinv,
    sigma_minus3_Dsq,
    spin_model,
    symbol_jet,
    trace_product,
)

from references import evaluate_rational, reduce_unit_norm, sigma1_D


@pytest.fixture(scope="module")
def model():
    return foliation_model(2, 2)


def _zero_connection(expr: CliffordElement, drop_h1=False) -> CliffordElement:
    def clean(poly: ScalarPoly) -> ScalarPoly:
        out = poly
        for s in sorted(poly.symbols()):
            if s.startswith("g_") or (drop_h1 and s == U_H1):
                out = out.subs_many({s: ScalarPoly.zero()})
        return out
    return expr.map_coeffs(lambda c: c.map_coeffs(clean))


def test_leading_symbol_at_unit_coordinate(model):
    # at a1 = 1 (others 0): i (c(f1) + xi c(dxn)) / (1 + xi^2)
    s = sigma_minus1_Dinv(model).val
    subs = {"a1": ScalarPoly.one(), "a2": ScalarPoly.zero(), "b1": ScalarPoly.zero()}
    s = s.map_coeffs(lambda c: c.map_coeffs(lambda p: p.subs_many(subs)))
    inv = RationalXi.inv_norm_sq(1)
    want = CliffordElement(model.algebra, {
        ((0, 0),): inv * GR_I,
        ((1, 1),): RationalXi.xi() * inv * GR_I,
    })
    assert s == want


def test_second_xi_derivative_closed_form(model):
    # i [ -(6 xi c(dxn) + 2 c(xi')) / |xi|^4 + 8 xi^2 c(xi) / |xi|^6 ]
    got = sigma_minus1_Dinv(model).val.dxi(2)
    Cp, N = model.c_xi_prime(), model.c_dxn()
    xi = RationalXi.xi()
    inv2, inv3 = RationalXi.inv_norm_sq(2), RationalXi.inv_norm_sq(3)
    want = ((Cp * (-2) + N * (xi * -6)).map_coeffs(lambda c: c * inv2)
            + (Cp + N * xi).map_coeffs(lambda c: c * (inv3 * (xi * xi * 8)))) * GR_I
    assert got == want


def test_projected_normal_derivative(model):
    # pi+ d_{x_n} sigma_{-1} = i h'(0) (c(xi') + i c(dxn)) / (4 (xi - i)^2)
    got = sigma_minus1_Dinv(model).component(1).pi_plus()
    Cp, N = model.c_xi_prime(), model.c_dxn()
    quarter = RationalXi([Fraction(1, 4)], 2, 0)
    want = (Cp + N * GR_I).map_coeffs(lambda c: c * (quarter * (h1_poly() * GR_I)))
    assert got == want


def test_projected_leading_symbol(model):
    # pi+ sigma_{-1} = (c(xi') + i c(dxn)) / (2 (xi - i))
    got = sigma_minus1_Dinv(model).val.pi_plus()
    Cp, N = model.c_xi_prime(), model.c_dxn()
    half = RationalXi([Fraction(1, 2)], 1, 0)
    want = (Cp + N * GR_I).map_coeffs(lambda c: c * half)
    assert got == want


def test_symbol_jet_is_built_once_per_model():
    first, second = foliation_model(2, 2), foliation_model(2, 2)
    jet = symbol_jet(first, 1, -1)
    assert symbol_jet(first, 1, -1) is jet
    assert jet == sigma_minus1_Dinv(first)
    assert second._jets == {}
    assert symbol_jet(second, 1, -1) is not jet
    assert set(first._jets) == set(second._jets) == {(1, -1)}


def test_square_symbol_jet(model):
    s = model.inv_norm_sq_jet()
    inv2 = RationalXi.inv_norm_sq(2)
    assert symbol_jet(model, 2, -2) == s
    with pytest.raises(KeyError):
        symbol_jet(model, 2, -4)
    assert s.val == model.algebra.scalar(RationalXi.inv_norm_sq(1))
    assert s.dxn == model.algebra.scalar(inv2 * (-h1_poly()))
    # pi+ of the normal derivative: h'(0) (i xi + 2) / (4 (xi - i)^2)
    got = s.component(1).pi_plus()
    want = model.algebra.scalar(RationalXi([2, GR_I], 2, 0) * (h1_poly() * Fraction(1, 4)))
    assert got == want
    # d_xi |xi|^{-2} = -2 xi / (1 + xi^2)^2
    assert s.val.dxi() == model.algebra.scalar(RationalXi([0, -2], 2, 2))


def test_flat_degenerations(model):
    assert _zero_connection(sigma0_DF(model)).is_zero()
    flat3 = _zero_connection(sigma_minus3_Dsq(model).val, drop_h1=True)
    assert flat3.is_zero()


@pytest.mark.parametrize("make", [
    lambda: foliation_model(2, 2),
    lambda: foliation_model(2, 3),
    lambda: foliation_model(2, 4),
    lambda: foliation_model(3, 4),
    lambda: spin_model(5),
], ids=["p2q2", "p2q3", "p2q4", "p3q4", "spin5"])
def test_third_square_symbol_takes_gamma_n_from_the_collar(make):
    # g_ab = delta_ab / h(x_n) on the n-1 tangential directions, h(0) = 1:
    # d_n g_ab = -h'(0) delta_ab and g^ab = delta^ab at the base point
    model = make()
    tangential = range(model.n - 1)
    d_n_g = {(a, b): -h1_poly() if a == b else ScalarPoly.zero()
             for a in tangential for b in tangential}
    g_inv = {(a, b): Fraction(a == b) for a in tangential for b in tangential}
    gamma_n = sum((d_n_g[a, b] * g_inv[a, b] for a in tangential for b in tangential),
                  ScalarPoly.zero()) * Fraction(-1, 2)
    # identity word: -2i h'(0) xi_n |xi|^-6 - i Gamma^n xi_n |xi|^-4
    xi = RationalXi.xi()
    want = (xi * RationalXi.inv_norm_sq(3) * (h1_poly() * GaussianRational(0, -2))
            + xi * RationalXi.inv_norm_sq(2) * (gamma_n * GaussianRational(0, -1)))
    assert sigma_minus3_Dsq(model).val.terms[()] == want


def test_symbol_inverse_at_leading_order(model):
    prod = sigma_minus1_Dinv(model).val * sigma1_D(model).val
    prod = prod.map_coeffs(
        lambda c: c.map_coeffs(lambda p: reduce_unit_norm(p, model.coords)))
    assert prod == model.algebra.scalar(RationalXi.const(1))


def test_derivative_matches_finite_differences(model):
    env = {"a1": 0.6, "a2": 0.64, "b1": 0.48, "h1": 0.7}
    expr = sigma_minus2_Dinv(model).val
    # fix the connection placeholders at arbitrary values for the numeric check
    idx = 0
    syms = sorted({s for c in expr.terms.values()
                   for poly in c.num for s in poly.symbols()})
    for s in syms:
        if s not in env:
            idx += 1
            env[s] = 0.1 + 0.05 * idx
    d = expr.dxi()
    x0, h = 1 / 3, 1e-6
    for w, c in d.terms.items():
        base = expr.terms.get(w, RationalXi.zero())
        fd = (evaluate_rational(base, x0 + h, env)
              - evaluate_rational(base, x0 - h, env)) / (2 * h)
        assert abs(evaluate_rational(c, x0, env) - fd) <= 1e-9 * max(1.0, abs(fd))


def test_trace_product_is_trace_of_product(model):
    a = sigma_minus1_Dinv(model).val
    b = sigma_minus1_Dinv(model).val.dxi()
    direct = (a * b).trace()
    fused = trace_product(a, b)
    assert direct == fused


def test_normal_coordinate_contract(model):
    # the divergence sums vanish identically after the substitution
    from wres.symbols import conn
    for d in range(model.n):
        total = ScalarPoly.zero()
        for w in range(model.n):
            total = total + conn(w, w, d)
        assert model.reduce_coeff(total).is_zero()


def test_trace_of_sigma0_against_single_generators(model):
    # tr[p0 c(g)] vanishes for every frame generator once the contract holds
    p0 = sigma0_DF(model)
    for g in model.frame:
        tr = trace_product(p0, model.gen_elem(g))
        tr = tr.map_coeffs(model.reduce_coeff)
        assert tr.is_zero()


def test_spin_model_reuses_builders():
    m = spin_model(5)
    assert len(m.algebra.families) == 1
    s3 = sigma_minus3_Dsq(m).val
    # scalar part carries Gamma^n = 5/2 h'(0); word parts stay symbolic
    scal = s3.terms[()]
    env = {U_H1: 1.0}
    # at xi = 0 the A1 term vanishes and xi * inv2 kills the scalar too
    assert abs(evaluate_rational(scal, 0.0, env)) == 0.0


# ---------------------------------------------------------------------------
# intermediate decomposition of the order(-2) inverse symbol: the projected
# curvature piece, its trace, and the frame-derivative piece
# ---------------------------------------------------------------------------

def _reduced(model, expr):
    return expr.map_coeffs(
        lambda c: c.map_coeffs(lambda p: reduce_unit_norm(p, model.coords)))


def test_projected_curvature_piece_closed_form(model):
    # h'(0) pi+[ c(xi) c(dxn) c(xi) / |xi|^6 ] in partial-fraction form
    Cp, N = model.c_xi_prime(), model.c_dxn()
    h1 = h1_poly()
    cxi = model.c_xi_jet().val
    b2 = (cxi * N * cxi).map_coeffs(
        lambda c: (c * RationalXi.inv_norm_sq(3) * h1).pi_plus())
    inv1 = RationalXi([1], 1, 0)
    inv2 = RationalXi([1], 2, 0)
    t1 = N.map_coeffs(lambda c: c * (inv1 * (GR_I * 4).inverse()))
    t2 = (N - Cp * GR_I).map_coeffs(lambda c: c * (inv2 * Fraction(1, 8)))
    t3 = (Cp * GR_I - N).map_coeffs(
        lambda c: c * (RationalXi([GR_I * -7, 3], 3, 0) * Fraction(1, 8)))
    closed = (t1 + t2 + t3).map_coeffs(lambda c: c * (h1 * Fraction(1, 2)))
    assert _reduced(model, b2) == _reduced(model, closed)


def test_decomposition_traces(model):
    from wres.symbolic import GaussianRational
    Cp, N = model.c_xi_prime(), model.c_dxn()
    h1 = h1_poly()
    cxi = model.c_xi_jet().val
    ds1 = sigma_minus1_Dinv(model).val.dxi()
    red = lambda rx: rx.map_coeffs(lambda p: reduce_unit_norm(p, model.coords))

    b2 = (cxi * N * cxi).map_coeffs(
        lambda c: (c * RationalXi.inv_norm_sq(3) * h1).pi_plus())
    got = red(trace_product(b2, ds1))
    # per unit trace: h'(0) (xi^2 - i xi - 4) / (8 (xi - i)^3 (xi + i)^2)
    assert got == (RationalXi([GaussianRational(-4), -GR_I, GaussianRational(1)], 3, 2)
                   * (h1 * Fraction(1, 8)))

    dCp = model.c_xi_prime_jet().dxn
    c2 = ((Cp * N * dCp).map_coeffs(
        lambda c: c * (RationalXi([2, GR_I], 2, 0) * Fraction(-1, 4)))
        + dCp.map_coeffs(lambda c: c * (RationalXi([-GR_I], 2, 0) * Fraction(-1, 4))))
    got = red(trace_product(c2, ds1))
    # per unit trace: h'(0) (xi^2 - i xi - 2) / (8 (xi - i)^3 (xi + i)^2)
    assert got == (RationalXi([GaussianRational(-2), -GR_I, GaussianRational(1)], 3, 2)
                   * (h1 * Fraction(1, 8)))


def test_projected_normal_piece_trace(model):
    # the projected normal-derivative factor against the second xi-derivative,
    # per unit trace: -h'(0) (-2 i xi^2 - xi + i) / ((xi - i)^4 (xi + i)^3)
    from wres.symbolic import GaussianRational
    Cp, N = model.c_xi_prime(), model.c_dxn()
    h1 = h1_poly()
    lead = (Cp.map_coeffs(lambda c: c * (RationalXi([GR_I], 1, 0) * Fraction(1, 4)))
            + (Cp + N * GR_I).map_coeffs(
                lambda c: c * (RationalXi([1], 2, 0) * Fraction(1, 4))))
    f2 = sigma_minus1_Dinv(model).val.dxi(2)
    got = trace_product(lead.map_coeffs(lambda c: c * (h1 * GR_I)), f2)
    got = got.map_coeffs(lambda p: reduce_unit_norm(p, model.coords))
    want = RationalXi([GR_I, GaussianRational(-1), GaussianRational(0, -2)], 4, 3) * -h1
    assert got == want


def _connection_word_by_products(model, k):
    """W_k as a sum of Clifford products of one-generator elements, each
    rescaled by its connection coefficient."""
    leaf, perp, idx = model.leaf_gens, model.perp_gens, model.gen_index
    half = Fraction(1, 2)
    acc = CliffordElement(model.algebra)
    for fa in leaf:
        for fb in leaf:
            w = omega(idx(fa), idx(fb), k)
            if not w.is_zero():
                acc = acc + (model.gen_elem(fa) * model.gen_elem(fb)) * (w * half)
    for hr in perp:
        for ht in perp:
            w = omega(idx(hr), idx(ht), k)
            if w.is_zero():
                continue
            hat = model.gen_elem(model.hatted(hr)) * model.gen_elem(model.hatted(ht))
            reg = model.gen_elem(hr) * model.gen_elem(ht)
            acc = acc - (hat - reg) * (w * half)
    for fj in leaf:
        for hs in perp:
            w = conn(k, idx(fj), idx(hs))
            if not w.is_zero():
                acc = acc - (model.gen_elem(fj) * model.gen_elem(hs)) * w
    return acc


@pytest.mark.parametrize("make", [
    *(lambda key=key: get_scenario(*key).model for key in registered_scenarios()),
    lambda: foliation_model(3, 3),
    lambda: foliation_model(1, 5),
    lambda: foliation_model(0, 6),
], ids=[*(f"scenario{n}_{p1}{p2}" for n, p1, p2 in registered_scenarios()),
        "p3q3", "p1q5", "p0q6"])
def test_connection_word_matches_the_clifford_products(make):
    model = make()
    for k in range(model.n):
        got = connection_word(model, k)
        want = _connection_word_by_products(model, k)
        assert got == want
        assert not got.is_zero()
        assert all(c.num and len(c.num) == 1 and not c.mp and not c.mm
                   for c in got.terms.values())

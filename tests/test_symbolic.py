"""Exact scalar layer: Gaussian rationals, polynomials, rational functions of
the conormal variable, the half-plane projection, and sphere moments."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres import oracles
from wres.clifford import sub_dirac_algebra
from wres.oracles import (
    numeric_line_integral,
    random_rational_xi,
    run_quadrature_oracle,
)
from wres.symbolic import (
    GR_I,
    GR_ZERO,
    ConditionallyConvergent,
    DivergentSymbol,
    GaussianRational,
    RationalXi,
    ScalarPoly,
    UnitValue,
    _divide_linear,
    _mono_mul,
    _poly_add,
    _poly_mul,
    _times_linear,
    integrate_line,
    sphere_integrate,
    sphere_measure,
    sphere_moment,
    sphere_moment_ratio,
)

from references import evaluate_poly, evaluate_rational, numeric_pi_plus, reduce_unit_norm

gauss = st.builds(GaussianRational,
                  st.fractions(max_denominator=8),
                  st.fractions(max_denominator=8))


@given(gauss, gauss, gauss)
def test_gaussian_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


def _rand_fraction(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-30, 30))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _pair_repr(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def _check_fields(z, pair):
    # (a + b i)/d with d > 0 in lowest terms, and the value of the pair model
    assert all(type(f) is int for f in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == pair
    assert repr(z) == _pair_repr(pair)
    assert complex(z) == complex(float(pair[0]), float(pair[1]))
    assert z == GaussianRational(*pair) and hash(z) == hash(GaussianRational(*pair))
    if pair[1] == 0:
        assert z == pair[0] and hash(z) == hash(pair[0])
        if pair[0].denominator == 1:
            assert z == int(pair[0]) and hash(z) == hash(int(pair[0]))
    else:
        assert z != pair[0]


def test_gaussian_kernel_against_fraction_pairs():
    # every operation against an independent (re, im) model in Fractions
    rng = random.Random(2024)
    assert (GR_ZERO.a, GR_ZERO.b, GR_ZERO.d) == (0, 0, 1)
    for _ in range(600):
        x = (_rand_fraction(rng), _rand_fraction(rng))
        y = (_rand_fraction(rng), _rand_fraction(rng))
        zx, zy = GaussianRational(*x), GaussianRational(*y)
        _check_fields(zx, x)
        _check_fields(zx + zy, (x[0] + y[0], x[1] + y[1]))
        _check_fields(zx - zy, (x[0] - y[0], x[1] - y[1]))
        _check_fields(zx * zy, _pair_mul(x, y))
        _check_fields(-zx, (-x[0], -x[1]))
        _check_fields(GaussianRational(zx.re, -zx.im), (x[0], -x[1]))
        _check_fields(zx - zx, (Fraction(0), Fraction(0)))
        # mixed operands: ints and Fractions on either side
        r = y[0]
        n = int(r.numerator)
        _check_fields(zx + r, (x[0] + r, x[1]))
        _check_fields(r - zx, (r - x[0], -x[1]))
        _check_fields(zx * n, (x[0] * n, x[1] * n))
        _check_fields(n * zx, (x[0] * n, x[1] * n))
        if zy.is_zero():
            with pytest.raises(ZeroDivisionError):
                zy.inverse()
            continue
        inv = _pair_inverse(y)
        _check_fields(zy.inverse(), inv)
        _check_fields(zx / zy, _pair_mul(x, inv))
        k = rng.randint(-3, 3)
        power = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            power = _pair_mul(power, y if k > 0 else inv)
        _check_fields(zy ** k, power)
        if r:
            _check_fields(zx / r, (x[0] / r, x[1] / r))
            _check_fields(r / zy, _pair_mul((r, Fraction(0)), inv))
    assert GaussianRational(0, 0) == 0 and hash(GaussianRational(0, 0)) == 0


def _rand_poly(rng, symbols=("x", "y", "h1")):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(sorted((s, rng.randint(1, 3)) for s in
                            rng.sample(symbols, rng.randint(0, 2))))
        terms[mono] = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
    return ScalarPoly(terms)


def test_poly_identities_against_evaluation():
    # ring laws checked by evaluating at random rational points
    rng = random.Random(11)
    env_points = [{s: complex(rng.randint(-9, 9)) / 7 for s in ("x", "y", "h1")}
                  for _ in range(50)]
    for _ in range(40):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        lhs = (a + b) * c
        rhs = a * c + b * c
        for env in env_points:
            assert evaluate_poly(lhs, env) == pytest.approx(evaluate_poly(rhs, env), abs=1e-12)
        assert lhs == rhs  # exact as well


def test_poly_subs():
    x = ScalarPoly.symbol("x")
    p = x * x * 3 + x * 2 + 5
    assert p.subs_many({"x": ScalarPoly.const(2)}) == ScalarPoly.const(21)


def test_poly_negative_power_raises():
    with pytest.raises(ValueError):
        ScalarPoly.symbol("x") ** -1


def _assert_no_zero_terms(p):
    assert all(not c.is_zero() for c in p.terms.values()), p.terms


def test_poly_terms_hold_no_zero_after_cancellation():
    # zero coefficients are dropped once, at construction; each operation
    # below cancels a monomial and must not leave it behind as a zero
    x, y, h = ScalarPoly.symbol("x"), ScalarPoly.symbol("y"), ScalarPoly.symbol("h1")
    assert ScalarPoly({(("x", 1),): GaussianRational(0)}).terms == {}
    assert ScalarPoly.const(0).terms == {}
    cases = [
        ((x + y) + (-x), y),                                   # +
        ((x + y) * (x - y), x * x - y * y),                    # *, the xy terms cancel
        ((x + y + h).subs_many({"x": -y}), h),                 # substitution cancels y
        (sphere_integrate(ScalarPoly.symbol("a1") ** 2 * h - ScalarPoly.symbol("a2") ** 2 * h
                          + h, ["a1", "a2"], 2), h),           # moments cancel
    ]
    for got, want in cases:
        _assert_no_zero_terms(got)
        assert got.terms == want.terms
    assert (x - x).terms == {} and (x * 0).terms == {}
    rng = random.Random(17)
    for _ in range(60):
        a, b = _rand_poly(rng), _rand_poly(rng)
        v = _rand_poly(rng, ("y", "h1"))
        for p in (a + b, a * b, (a + b) * (a - b),
                  (a + v).subs_many({"x": -v}), sphere_integrate(a - b, ["x", "y"], 2)):
            _assert_no_zero_terms(p)


def test_unit_norm_reduction():
    coords = ["a1", "a2", "b1"]
    constraint = sum((ScalarPoly.symbol(c) * ScalarPoly.symbol(c) for c in coords),
                     ScalarPoly.zero()) - 1
    assert reduce_unit_norm(constraint, coords).is_zero()
    # quartic reduction
    b1 = ScalarPoly.symbol("b1")
    reduced = reduce_unit_norm(b1 ** 4, coords)
    rest = ScalarPoly.one() - ScalarPoly.symbol("a1") ** 2 - ScalarPoly.symbol("a2") ** 2
    assert reduced == rest * rest


# ---------------------------------------------------------------------------
# rational functions of the conormal variable
# ---------------------------------------------------------------------------

def test_derivative_closed_form():
    f = RationalXi.inv_norm_sq(1)
    assert f.derivative() == RationalXi([0, -2], 2, 2)


def _rand_rational_xi(rng):
    """Not necessarily proper, with symbolic coefficients; sometimes zero."""
    deg = rng.randint(-1, 4)  # -1: zero numerator
    return RationalXi([_rand_poly(rng) for _ in range(deg + 1)],
                      rng.randint(0, 4), rng.randint(0, 4))


def test_rational_xi_arithmetic_against_evaluation():
    # evaluate_rational divides by (xi-i)^mp (xi+i)^mm in floats and shares
    # no code with the exact numerator kernel behind +, -, * and derivative
    rng = random.Random(23)
    env = {"x": 0.3 - 0.7j, "y": 1.1 + 0.2j, "h1": -0.6 + 0.4j}
    points = [complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)) for _ in range(4)]
    seen_unequal = seen_zero = 0
    for _ in range(80):
        f, g = _rand_rational_xi(rng), _rand_rational_xi(rng)
        seen_unequal += (f.mp, f.mm) != (g.mp, g.mm)
        seen_zero += f.is_zero() or g.is_zero()
        df = f.derivative()
        for xi in points:
            fv, gv = evaluate_rational(f, xi, env), evaluate_rational(g, xi, env)
            scale = 1 + abs(fv) + abs(gv)
            assert evaluate_rational(f + g, xi, env) == pytest.approx(fv + gv, abs=1e-12 * scale)
            assert evaluate_rational(f - g, xi, env) == pytest.approx(fv - gv, abs=1e-12 * scale)
            assert (evaluate_rational(f * g, xi, env)
                    == pytest.approx(fv * gv, abs=1e-12 * scale ** 2))
            h = 1e-5
            central = (evaluate_rational(f, xi + h, env)
                       - evaluate_rational(f, xi - h, env)) / (2 * h)
            assert evaluate_rational(df, xi, env) == pytest.approx(central, rel=1e-6, abs=1e-6)
    assert seen_unequal > 40 and seen_zero > 5


def test_rational_xi_reduces_only_on_demand():
    # (xi - i) / ((xi - i)(xi + i)) keeps its common factor until asked
    f = RationalXi([-GR_I, 1], 1, 1)
    assert (f.num, f.mp, f.mm) == ((ScalarPoly.const(-GR_I), ScalarPoly.one()), 1, 1)
    g = RationalXi([1], 0, 1)
    assert f == g and hash(f) == hash(g)
    r = f._normalize()
    assert (r.num, r.mp, r.mm) == ((ScalarPoly.one(),), 0, 1)
    z = RationalXi([], 2, 2)
    assert z.is_zero() and z == RationalXi.zero() and hash(z) == hash(RationalXi.zero())


def _times_factors(coeffs, a, b):
    """Coefficients of p(xi) (xi - i)^a (xi + i)^b given those of p(xi)."""
    for root, k in ((GR_I, a), (-GR_I, b)):
        for _ in range(k):
            coeffs = _times_linear(coeffs, root)
    return coeffs


def test_normalize_strips_exactly_the_shared_factors():
    # q (xi - i)^a (xi + i)^b / ((xi - i)^mp (xi + i)^mm) with q(+-i) != 0:
    # each factor cancels as often as both sides have it, and no more
    rng = random.Random(32)
    for a, b, mp, mm in itertools.product(range(4), repeat=4):
        while True:
            q = [GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 4))]
            at_roots = [sum((c * root ** k for k, c in enumerate(q)), GR_ZERO)
                        for root in (GR_I, -GR_I)]
            if not any(v.is_zero() for v in at_roots):
                break
        ka, kb = min(a, mp), min(b, mm)
        r = RationalXi(_times_factors(q, a, b), mp, mm)._normalize()
        want = RationalXi(_times_factors(q, a - ka, b - kb), mp - ka, mm - kb)
        assert (r.num, r.mp, r.mm) == (want.num, want.mp, want.mm), (a, b, mp, mm)


@pytest.mark.parametrize("root", [GR_I, -GR_I])
def test_divide_linear_inverts_times_linear(root):
    # (xi - root) * quotient + remainder gives p back, p with symbolic coefficients
    rng = random.Random(33)
    x = ScalarPoly.symbol("x")
    for degree in range(7):
        p = [x * GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
             + GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
             for _ in range(degree + 1)]
        quotient, remainder = _divide_linear(p, root)
        assert len(quotient) == degree
        assert _poly_add(_times_linear(quotient, root), [remainder]) == p


def _general_poly_mul(p, q):
    """ScalarPoly's double-loop product, without the constant-operand paths."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = _mono_mul(m1, m2)
            x = c1 * c2
            out[m] = out[m] + x if m in out else x
    return ScalarPoly(out)


def _general_coeff_mul(a, b):
    """_poly_mul over _general_poly_mul, every slot started at zero."""
    if not a or not b:
        return []
    out = [ScalarPoly.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + _general_poly_mul(x, y)
    return out


def _assert_same_terms(got, want):
    # equal values, the same key order, and no zero coefficient
    assert list(got.terms.items()) == list(want.terms.items())
    _assert_no_zero_terms(got)


_CONSTANTS = [1, -1, 0, 3, Fraction(-3, 4), GaussianRational(0, 1),
              GaussianRational(-1, 0), GaussianRational(Fraction(2, 5), -3)]


def _forms(c):
    """c as int, Fraction, GaussianRational and ScalarPoly, where it fits."""
    g = GaussianRational(c) if not isinstance(c, GaussianRational) else c
    out = [g, ScalarPoly.const(g)]
    if not g.b:
        out.append(g.re)
        if g.d == 1:
            out.append(g.a)
    return out


def test_poly_constant_products_match_the_general_product():
    rng = random.Random(31)
    polys = [_rand_poly(rng) for _ in range(40)] + [ScalarPoly.zero(), ScalarPoly.one()]
    for p in polys:
        before = list(p.terms.items())
        for c in _CONSTANTS:
            want = _general_poly_mul(p, ScalarPoly.const(c))
            for form in _forms(c):
                _assert_same_terms(p * form, want)
                _assert_same_terms(form * p, want)
                if isinstance(form, ScalarPoly):
                    assert list(form.terms.items()) == list(ScalarPoly.const(c).terms.items())
        q = _rand_poly(rng)
        _assert_same_terms(p * q, _general_poly_mul(p, q))
        assert list(p.terms.items()) == before
    # (-1) * p and p * (-1) are the negation, 1 * p is p with its terms untouched
    x = ScalarPoly.symbol("x") * 2 + ScalarPoly.symbol("y")
    assert x * -1 == -x and -1 * x == -x and (x * -1).terms[(("x", 1),)] == -2
    assert (1 * x).terms == {(("x", 1),): 2, (("y", 1),): 1}


def test_rational_xi_one_coefficient_products_match_the_general_product():
    rng = random.Random(37)
    singles = [RationalXi.inv_norm_sq(k) for k in (1, 2, 3)]
    singles += [RationalXi.const(c) for c in _CONSTANTS if c != 0]
    singles += [RationalXi([_rand_poly(rng)], rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(10)]
    for _ in range(40):
        f = _rand_rational_xi(rng)
        g = rng.choice(singles)
        before = [(f.num, f.mp, f.mm), (g.num, g.mp, g.mm)]
        items = [[list(c.terms.items()) for c in h.num] for h in (f, g)]
        for got, (a, b) in ((f * g, (f, g)), (g * f, (g, f))):
            want = RationalXi(_general_coeff_mul(a.num, b.num), a.mp + b.mp, a.mm + b.mm)
            assert (got.mp, got.mm, len(got.num)) == (want.mp, want.mm, len(want.num))
            for x, y in zip(got.num, want.num):
                _assert_same_terms(x, y)
        for c in _CONSTANTS:
            for form in _forms(c):
                got = f * form
                want = [_general_poly_mul(x, ScalarPoly.const(c)) for x in f.num]
                want = RationalXi(want, f.mp, f.mm)
                assert len(got.num) == len(want.num)
                for x, y in zip(got.num, want.num):
                    _assert_same_terms(x, y)
        assert [(f.num, f.mp, f.mm), (g.num, g.mp, g.mm)] == before
        assert [[list(c.terms.items()) for c in h.num] for h in (f, g)] == items


def test_mixed_type_operators_defer_to_the_wider_type():
    # an operand of a wider type makes the narrower one return NotImplemented,
    # so that the wider type's reflected method runs
    x, xi, i = ScalarPoly.symbol("x"), RationalXi.xi(), GaussianRational(0, 1)
    assert i * x == x * i == ScalarPoly({(("x", 1),): i})
    assert x * xi == xi * x == RationalXi([0, x])
    assert x + xi == xi + x == RationalXi([x, 1])
    assert GaussianRational(1) - x == -(x - 1)
    assert x - xi == -(xi - x)
    assert i + x == x + i and (i / 2) * xi == xi * (i / 2)
    assert GaussianRational(3) * UnitValue.unit("pi") == UnitValue(3, {"pi": 1})
    for value in (GaussianRational(1), x, xi):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            for bad in ("s", 0.5):
                with pytest.raises(TypeError):
                    op(value, bad)
                with pytest.raises(TypeError):
                    op(bad, value)
    assert xi != "s" and x != "s" and GaussianRational(1) != "s"


def test_subtraction_is_addition_of_the_negation():
    # every pair of the coefficient types, the plain numbers among them, on
    # either side of the minus
    x, xi = ScalarPoly.symbol("x"), RationalXi.xi()
    values = [3, Fraction(-2, 5), GaussianRational(1, -2), x * 2 + 1,
              xi * RationalXi.inv_norm_sq(1) + x]
    for a in values:
        for b in values:
            if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
                continue
            diff, total = a - b, a + (-b)
            assert type(diff) is type(total) and diff == total, (a, b)


def test_powers_equal_repeated_products():
    rng = random.Random(909)
    for _ in range(20):
        z = GaussianRational(_rand_fraction(rng), _rand_fraction(rng))
        p = _rand_poly(rng, ("x", "y"))
        z_power, p_power = GaussianRational(1), ScalarPoly.one()
        for k in range(10):
            assert z ** k == z_power and p ** k == p_power, (z, p, k)
            z_power, p_power = z_power * z, p_power * p
        if z.is_zero():
            with pytest.raises(ZeroDivisionError):
                z ** -1
            continue
        z_power = GaussianRational(1)
        for k in range(1, 7):
            z_power = z_power * z.inverse()
            assert z ** -k == z_power, (z, k)


def test_coefficient_list_product_matches_the_general_product():
    # interior and leading zero coefficients leave slots that no product fills
    rng = random.Random(41)
    for _ in range(60):
        a = [_rand_poly(rng) if rng.random() < 0.7 else ScalarPoly.zero()
             for _ in range(rng.randint(0, 4))]
        b = [_rand_poly(rng) for _ in range(rng.randint(0, 4))]
        got, want = _poly_mul(a, b), _general_coeff_mul(a, b)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            _assert_same_terms(x, y)


def test_pi_plus_known_forms():
    # 1/(1+x^2)^2 -> -(i x + 2)/(4 (x - i)^2)
    f = RationalXi.inv_norm_sq(2)
    expected = RationalXi([Fraction(-1, 2), GaussianRational(0, Fraction(-1, 4))], 2, 0)
    assert f.pi_plus() == expected
    # no upper pole -> 0
    assert RationalXi([1], 0, 1).pi_plus().is_zero()
    # x/(1+x^2)^2 -> -i/(4 (x-i)^2): the residue expansion has no simple-pole part
    g = RationalXi.xi() * RationalXi.inv_norm_sq(2)
    assert g.pi_plus() == RationalXi([GaussianRational(0, Fraction(-1, 4))], 2, 0)


def test_pi_plus_against_contour_oracle():
    f = RationalXi.xi() * RationalXi.inv_norm_sq(5)
    exact = evaluate_rational(f.pi_plus(), 2.0)
    approx = numeric_pi_plus(f, 2.0)
    assert abs(exact - approx) <= 1e-10


def test_pi_plus_properties_randomized():
    rng = random.Random(5)
    for _ in range(120):
        f = random_rational_xi(rng)
        g = random_rational_xi(rng)
        pf, pg = f.pi_plus(), g.pi_plus()
        pi_minus = (f - pf)._normalize()
        assert pf.pi_plus() == pf                      # idempotent
        assert (f + g).pi_plus() == pf + pg            # linear
        assert pf + pi_minus == f                      # splitting
        assert pf.mm == 0 and pi_minus.mp == 0         # pole separation


def test_pi_plus_divergent_guard():
    with pytest.raises(DivergentSymbol):
        RationalXi([0, 0, 1], 1, 1).pi_plus()  # xi^2/(1+xi^2) is not proper


def test_integrate_known_values():
    assert integrate_line(RationalXi.inv_norm_sq(1)) == UnitValue(1, {"pi": 1})
    # (i x + 2)/(x - i)^2 * (3 x^2 - 1)/(1 + x^2)^3 integrates to 5 pi / 16
    f = RationalXi([2, GR_I], 2, 0) * RationalXi([-1, 0, 3], 3, 3)
    assert integrate_line(f) == UnitValue(Fraction(5, 16), {"pi": 1})


def test_integrate_guards():
    with pytest.raises(ConditionallyConvergent):
        RationalXi([0, 1], 1, 1).integrate_pi_coefficient()  # x/(1+x^2)
    with pytest.raises(DivergentSymbol):
        RationalXi([0, 0, 1], 1, 1).integrate_pi_coefficient()


def test_integrate_against_quadrature_200():
    rng = random.Random(202)
    for _ in range(200):
        f = random_rational_xi(rng)
        exact = complex(f.integrate_pi_coefficient().constant_value()) * math.pi
        approx = numeric_line_integral(f, {})
        assert abs(exact - approx) <= 1e-8 * max(abs(exact), 1e-6)


def test_residue_oracle_names_its_first_failure(monkeypatch):
    assert "first_failure" not in run_quadrature_oracle(seed=5, count=3)
    # a negative tolerance fails every input
    monkeypatch.setattr(oracles, "RESIDUE_REL_TOL", -1.0)
    report = run_quadrature_oracle(seed=5, count=3)
    assert report["failures"] == 3 and not report["pass"]
    f = random_rational_xi(random.Random(5))
    failure = report["first_failure"]
    assert (failure["index"], failure["mp"], failure["mm"]) == (0, f.mp, f.mm)
    # the coefficients, constant term first, rebuild the input exactly
    replayed = RationalXi([GaussianRational(Fraction(c["re"]), Fraction(c["im"]))
                           for c in failure["coefficients"]], failure["mp"], failure["mm"])
    assert replayed.num == f.num and len(f.num) == len(failure["coefficients"])


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_pi_split_poles(deg_seed, extra):
    rng = random.Random(deg_seed * 1000 + extra)
    f = random_rational_xi(rng)
    assert f.pi_plus() + (f - f.pi_plus())._normalize() == f


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

def test_sphere_moment_odd_vanishes():
    assert sphere_moment([1, 2], 3).is_zero()
    assert sphere_moment([3, 0, 1, 0], 4).is_zero()


def test_sphere_moment_total_and_quadratic():
    assert sphere_moment([0, 0, 0], 3) == UnitValue.unit("Omega2")
    assert sphere_moment([2, 0, 0, 0], 4) == UnitValue(Fraction(1, 4), {"Omega3": 1})


def mc_sphere_moment(exponents, m: int, samples: int = 400_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of the normalized sphere moment (ratio to the
    total measure)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vals = np.ones(samples)
    for i, e in enumerate(exponents):
        if e:
            vals = vals * x[:, i] ** e
    return float(vals.mean())


def test_sphere_moment_vs_monte_carlo():
    for exps, m in ([2, 0, 0, 0], 4), ([2, 2, 0], 3), ([4, 0], 2):
        exact = float(sphere_moment_ratio(exps, m))
        mc = mc_sphere_moment(exps, m, seed=9)
        assert abs(exact - mc) <= 2e-3 * max(1.0, abs(exact))


def test_sphere_measures_exact():
    assert sphere_measure(2) == UnitValue(2, {"pi": 1})          # circle
    assert sphere_measure(3) == UnitValue(4, {"pi": 1})          # 2-sphere
    assert sphere_measure(4) == UnitValue(2, {"pi": 2})          # 3-sphere
    assert sphere_measure(5) == UnitValue(Fraction(8, 3), {"pi": 2})


def test_sphere_integrate_polynomial():
    poly = (ScalarPoly.symbol("a1") ** 2 * ScalarPoly.symbol("h1")
            + ScalarPoly.symbol("a1") * ScalarPoly.symbol("a2"))
    out = sphere_integrate(poly, ["a1", "a2"], 2)
    assert out == ScalarPoly.symbol("h1") * Fraction(1, 2)


@st.composite
def cosphere_polys(draw):
    """A Gaussian-rational polynomial in m cosphere coordinates and one
    symbol outside them, with its coordinates and m."""
    m = draw(st.integers(1, 5))
    coords = [f"a{i + 1}" for i in range(m)]
    monomials = st.dictionaries(st.sampled_from(coords + ["h1"]), st.integers(1, 6),
                                max_size=3)
    poly = ScalarPoly.zero()
    for c, mono in draw(st.lists(st.tuples(gauss, monomials), min_size=1, max_size=6)):
        term = ScalarPoly.const(c)
        for name, e in mono.items():
            term = term * ScalarPoly.symbol(name) ** e
        poly = poly + term
    return poly, coords, m


@settings(deadline=None)
@given(cosphere_polys())
def test_sphere_integral_imposes_the_unit_norm(case):
    # the normalised moments give the integral of x^alpha (|x|^2 - 1) as
    # exactly 0, so reducing modulo |x|^2 = 1 first changes no integral
    poly, coords, m = case
    assert (sphere_integrate(reduce_unit_norm(poly, coords), coords, m)
            == sphere_integrate(poly, coords, m))


def test_unitvalue_algebra():
    v = UnitValue(Fraction(3, 4), {"pi": 1, "h'(0)": 1})
    w = UnitValue(Fraction(-3, 4), {"pi": 1, "h'(0)": 1})
    assert (v + w).is_zero()
    with pytest.raises(ValueError):
        v + UnitValue(1, {"pi": 2})
    assert (v * w).powers == {"pi": 2, "h'(0)": 2}
    # integer prime powers fold into the coefficient
    u = UnitValue(1, {"2": Fraction(5, 2)})
    assert u.coeff == 4 and u.powers == {"2": Fraction(1, 2)}
    # a plain number adds as a unitless value
    assert UnitValue(1) + 2 == 3 and 2 + UnitValue(1) == 3
    assert UnitValue(1) + GaussianRational(0, 1) == GaussianRational(1, 1)
    assert v + 0 is v and 0 + v is v and sum([v, v]) == v * 2
    for number in (2, Fraction(1, 2), GaussianRational(0, 1)):
        with pytest.raises(ValueError, match="unit mismatch"):
            v + number


_MAKERS = {
    "RationalXi": RationalXi.const,
    "GaussianRational": GaussianRational,
    "ScalarPoly": ScalarPoly.const,
    "UnitValue": UnitValue,
    "CliffordElement": sub_dirac_algebra(1, 1).scalar,
}
_PLAIN_NUMBERS = [5, Fraction(-3, 7), 0]
# GaussianRational(re, im) takes its parts as rationals, not a Gaussian rational
_GAUSSIAN_NUMBERS = [GaussianRational(Fraction(2, 3)), GaussianRational(1, -2)]


@pytest.mark.parametrize("make, number", [
    pytest.param(make, number, id=f"{number}-{name}")
    for name, make in _MAKERS.items()
    for number in _PLAIN_NUMBERS + (_GAUSSIAN_NUMBERS if name != "GaussianRational" else [])
])
def test_hash_agrees_with_eq_against_numbers(make, number):
    # a value equal to a number hashes as that number, so dict lookups agree with ==
    value = make(number)
    assert value == number
    assert hash(value) == hash(number)
    assert {value: "found"}.get(number) == "found"
    assert {number: "found"}.get(value) == "found"

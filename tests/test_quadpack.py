"""The in-repo QUADPACK port: bit identity with scipy.integrate.quad on the
integrands wres builds, and closed forms and edge cases that need no scipy."""

import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

from wres import heat, oracles, quadpack, warped
from wres.quadpack import quad, quad_complex
from wres.symbolic import GaussianRational, RationalXi

from references import evaluate_rational, numeric_pi_plus


# ---------------------------------------------------------------------------
# Differential: the port against the compiled QUADPACK behind scipy
# ---------------------------------------------------------------------------

class Differential:
    """Stands in for ``quadpack.quad`` at the call sites.  Each call runs
    scipy first, recording the integrand's points and values, then the port,
    which must ask for the same points in the same order; the port is fed
    the recorded values and must return the same bits."""

    def __init__(self, scipy_quad):
        self.scipy_quad = scipy_quad
        self.port = quadpack.quad
        self.count = 0
        self.iers = set()

    def __call__(self, fn, a, b, **kw):
        calls = []

        def recording(x):
            y = fn(x)
            calls.append((x, y))
            return y

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = self.scipy_quad(recording, a, b, full_output=1, **kw)
        replay = iter(calls)

        def replaying(x):
            x0, y = next(replay)
            assert x.hex() == x0.hex(), (a, b, kw)
            return y

        got = self.port(replaying, a, b, **kw)
        assert got.value.hex() == want[0].hex() and got.abserr.hex() == want[1].hex(), \
            (a, b, kw, got, want[:2])
        assert got.neval == want[2]["neval"] == len(calls)
        assert (got.ier == 0) == (len(want) == 3)
        self.count += 1
        self.iers.add(got.ier)
        return got


class ComplexDifferential:
    """Stands in for ``quadpack.quad_complex`` at the call sites.  Each call
    runs the port, recording the points and values of every panel it asks
    the integrand for, then scipy on the real and on the imaginary part,
    replaying the recorded values.  Each part must come back with the same
    bits, and scipy must ask for whole panels of the port, in the port's
    order: the real run for the panels the port asked for first, and the
    imaginary run for the rest of them (among panels the real run shared)."""

    def __init__(self, scipy_quad):
        self.scipy_quad = scipy_quad
        self.port = quadpack.quad_complex
        self.count = 0

    def __call__(self, fn, **kw):
        order = []

        def recording(nodes):
            assert len(nodes) == 30
            values = fn(nodes)
            order.append(tuple(zip(nodes, values)))
            return values
        got = self.port(recording, **kw)
        values = {x.hex(): v for panel in order for x, v in panel}
        panels = [tuple(x.hex() for x, _ in panel) for panel in order]
        seen = set()
        for result, part in zip(got, ("real", "imag")):
            calls = []

            def replaying(x):
                calls.append(x.hex())
                return getattr(values[x.hex()], part)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = self.scipy_quad(replaying, -math.inf, math.inf, full_output=1, **kw)
            assert result.value.hex() == want[0].hex() and result.abserr.hex() == want[1].hex(), \
                (part, kw, result, want[:2])
            assert result.neval == want[2]["neval"] == len(calls)
            assert (result.ier == 0) == (len(want) == 3)
            asked = [tuple(calls[i:i + 30]) for i in range(0, len(calls), 30)]
            # the real run's panels are all new; the imaginary run's new ones
            # are the port's next calls, in order
            fresh = [panel for panel in asked if panel not in seen]
            assert fresh == panels[len(seen):len(seen) + len(fresh)], part
            seen.update(asked)
            self.count += 1
        # every panel the port evaluated was asked for by one of the runs
        assert len(seen) == len(panels)
        return got


RW_WARPS = ["exp(t)", "2+sin(t)", "1+t^2/4", "cosh(t)", "1+t/10", "ln(3+t)",
            "1+1/exp(t)", "3-t^2/5", "2+cos(3*t)", "sinh(t)+1"]
RW_INTERVALS = [(0.0, 1.0), (0.5, 1.5), (0.1, 0.3), (1.0, 2.5)]
RW_CURVS = [0.0, 1.0, -1.0, 0.25]
MOMENT_CUTOFFS = (
    [lambda s, c=c: math.exp(-c * s) for c in (0.3, 1.0, 2.5, 7.0)]
    + [lambda s, c=c: math.exp(-c * s * s) for c in (0.5, 1.0, 3.0)]
    + [lambda s, p=p: (1.0 + s) ** -p for p in (3, 4, 5, 6)]
    + [lambda s: s * math.exp(-s), lambda s: 2.0 * math.exp(-s) / (1.0 + math.exp(-2.0 * s))]
)


def test_port_is_bit_identical_to_scipy_quad(monkeypatch):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    complex_diff = ComplexDifferential(scipy_integrate.quad)
    monkeypatch.setattr(quadpack, "quad_complex", complex_diff)
    diff = Differential(scipy_integrate.quad)
    monkeypatch.setattr(quadpack, "quad", diff)

    # residue-oracle integrands over the real line (dqagie, inf = 2), each
    # part of each integrand against its own scipy run
    for seed in range(1, 11):
        oracles.run_quadrature_oracle(seed, 100)
    assert complex_diff.count == 2000
    assert diff.count == 0

    # numeric_pi_plus's contour integrals, whose integrand is complex at
    # complex points: the input of test_pi_plus_against_contour_oracle and
    # seeded ones, each still against its exact projection
    rng = random.Random(21)
    cases = [(RationalXi.xi() * RationalXi.inv_norm_sq(5), 2.0)]
    cases += [(oracles.random_rational_xi(rng), rng.uniform(-3.0, 3.0)) for _ in range(9)]
    for f, x0 in cases:
        approx = numeric_pi_plus(f, x0)
        assert abs(evaluate_rational(f.pi_plus(), x0) - approx) <= 1e-8 * max(1.0, abs(approx))
    assert complex_diff.count == 2000 + 2 * len(cases)

    # spectral-moment integrands, even and real, over the real line: two
    # parts per call, the imaginary one zero
    for cutoff in MOMENT_CUTOFFS:
        heat.spectral_moments(cutoff)
    with pytest.raises(ValueError, match="non-integrable"):
        heat.spectral_moments(lambda s: 1.0 / (1.0 + s))
    assert complex_diff.count == 2000 + 2 * len(cases) + 2 * (4 * len(MOMENT_CUTOFFS) + 2)
    assert diff.count == 0

    # rw integrands on finite intervals (dqagse), and the slow
    # --f t --interval 0.5,1.5 --curv -1, whose scalar-curvature integrand
    # is rounding noise that runs to the subdivision limit
    models = [warped.RWModel(a, b, warped.parse_warp(text), curv=curv)
              for text in RW_WARPS for a, b in RW_INTERVALS for curv in RW_CURVS]
    models.append(warped.RWModel(0.5, 1.5, warped.parse_warp("t"), curv=-1.0))
    for model in models:
        warped.rw_spectral_coeffs(model)
    assert diff.count == 3 * len(models)

    # direct calls, most of which end with ier != 0
    c = 1 / 3
    for fn, a, b, kw, ier in [
        (lambda x: math.sin(50 * x), 0.0, 3.0, {"limit": 1}, 1),
        (lambda x: 1.0 / abs(x - c) if x != c else 0.0, 0.0, 1.0, {}, 3),
        (lambda x: math.copysign(abs(x - 0.7) ** -3, x - 0.7) if x != 0.7 else 0.0,
         0.0, 1.0, {}, 2),
        (lambda x: 1.0 / x if x else 0.0, -1.0, 2.0, {}, 5),
        (lambda x: x ** -0.99 if x > 0 else 0.0, 0.0, 1.0, {}, 0),
    ]:
        assert diff(fn, a, b, **kw).ier == ier
    assert complex_diff(_per_point(lambda x: math.exp(-x * x)), limit=1)[0].ier == 1
    assert complex_diff(_per_point(lambda x: 1.0 / (1.0 + abs(x))))[0].ier == 1
    # endpoint singularities, which run the epsilon algorithm, and even
    # integrands on symmetric intervals, whose mirror subintervals tie in
    # error and so test dqpsrt's order on ties
    for p in (-0.9, -0.75, -0.5, -0.25, 0.5):
        diff(lambda x, p=p: x ** p if x > 0 else 0.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
        diff(lambda x, p=p: abs(x) ** p if x else 0.0, -1.0, 1.0)
        diff(lambda x, p=p: math.log(x) * x ** p if x > 0 else 0.0, 0.0, 1.0)
    diff(lambda x: abs(abs(x) - 0.5) ** 1.5 * math.cos(3 * x), -1.0, 1.0)
    assert {0, 1, 2, 3, 5} <= diff.iers
    assert complex_diff.count + diff.count >= 2420


# ---------------------------------------------------------------------------
# Without scipy
# ---------------------------------------------------------------------------

def _per_point(fn):
    """A panel integrand that evaluates the scalar fn at each point in turn."""
    return lambda nodes: [fn(x) for x in nodes]


def _integrate(fn, a, b, **kw):
    """quad of the real fn over a finite [a, b]; over the whole line, the
    real part of quad_complex; over [0, inf), that of the even fn(|x|), twice
    the half-line integral, as spectral_moments integrates."""
    if (a, b) == (0.0, math.inf):
        return _integrate(lambda x: fn(abs(x)), -math.inf, b, **kw)
    if a == -math.inf and b == math.inf:
        return quad_complex(_per_point(fn), **kw)[0]
    return quad(fn, a, b, **kw)


@pytest.mark.parametrize("fn,a,b,exact", [
    (lambda x: math.exp(-x * x), -math.inf, math.inf, math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf, math.pi),
    (lambda u: math.exp(-u * u) * abs(u), -math.inf, math.inf, 1.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),
], ids=["gauss", "cauchy", "half-gauss-moment", "sqrt-singularity"])
def test_closed_forms(fn, a, b, exact):
    result = _integrate(fn, a, b)
    assert result.ier == 0
    assert abs(result.value - exact) <= 1e-10 * max(1.0, abs(exact))
    assert result.abserr <= 1.49e-8 * max(1.0, abs(exact))


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (2.0, 2.0), (-math.inf, 0.0), (0.0, -math.inf),
                                 (math.inf, math.inf), (math.nan, 1.0),
                                 (-math.inf, math.inf), (0.0, math.inf)])
def test_ranges_without_a_caller_are_refused(a, b):
    # quad integrates over a finite [a, b] with a < b only; the infinite
    # ranges are quad_complex's
    calls = []
    with pytest.raises(ValueError, match="a < b"):
        quad(lambda x: calls.append(x) or 1.0, a, b)
    assert calls == []


def _random_poly(rng, degree):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]


def _horner(coeffs, x):
    v = 0.0
    for c in reversed(coeffs):
        v = v * x + float(c)
    return v


@pytest.mark.parametrize("degree", [0, 1, 7, 20, 31])
def test_21_point_rule_is_exact_to_degree_31(degree):
    rng = random.Random(degree)
    for _ in range(20):
        coeffs = _random_poly(rng, degree)
        a, b = sorted(Fraction(rng.randint(-20, 20), 16) for _ in range(2))
        if a == b:
            continue
        exact = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
        scale = sum(abs(c) for c in coeffs) * max(abs(a), abs(b), 1) ** (degree + 1) * (b - a)
        result = quad(lambda x: _horner(coeffs, x), float(a), float(b), limit=1)
        assert result.neval == 21
        assert abs(result.value - float(exact)) <= 1e-14 * float(scale)


def test_21_point_rule_is_not_exact_at_degree_32():
    result = quad(lambda x: x ** 32, -1.0, 1.0, limit=1)
    assert abs(result.value - 2 / 33) > 1e-12


@pytest.mark.parametrize("degree", [0, 5, 23])
def test_15_point_transformed_rule_is_exact_to_degree_23(degree):
    # x = (1-t)/t maps (0, 1] onto [0, inf) with dx = dt/t^2, so the even
    # p(1/(1+|x|))/(1+|x|)^2 over the whole line is twice p(t) over [0, 1],
    # in one panel
    rng = random.Random(100 + degree)
    coeffs = _random_poly(rng, degree)
    exact = 2 * sum(c / (k + 1) for k, c in enumerate(coeffs))
    scale = 2 * sum(abs(c) for c in coeffs)
    t = lambda x: 1.0 / (1.0 + abs(x))  # noqa: E731
    result = _integrate(lambda x: _horner(coeffs, t(x)) * t(x) ** 2, -math.inf, math.inf,
                        limit=1)
    assert result.neval == 30
    assert abs(result.value - float(exact)) <= 1e-14 * float(scale)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_invalid_tolerance_gives_ier_6(a, b):
    calls = []
    result = _integrate(lambda x: calls.append(x) or 1.0, a, b, epsabs=0.0, epsrel=1e-30)
    assert result == (0.0, 0.0, 6, 0)
    assert calls == []
    assert _integrate(math.exp, a, b, epsabs=-1.0, epsrel=1e-30).ier == 6
    # a relative tolerance above 50 * epsilon is valid with epsabs = 0
    assert _integrate(lambda x: math.exp(-abs(x)), a, b, epsabs=0.0, epsrel=1e-10).ier == 0


def test_limit_one_reports_the_first_panel():
    result = quad(lambda x: math.sin(50 * x), 0.0, 3.0, limit=1)
    assert (result.ier, result.neval) == (1, 21)
    result = _integrate(lambda x: math.exp(-x * x), -math.inf, math.inf, limit=1)
    assert (result.ier, result.neval) == (1, 30)


def test_integrand_is_called_once_per_point_in_order():
    points = []
    result = quad(lambda x: points.append(x) or math.cos(x), 0.0, 2.0)
    assert len(points) == result.neval == 21
    # dqk21: the centre, then the Gauss pairs, then the Kronrod-only pairs
    assert points[0] == 1.0
    assert points[1] + points[2] == 2.0 and points[1] < points[2]
    assert abs(points[2] - 1.0 - quadpack._XGK21[1]) < 1e-15


@pytest.mark.parametrize("fn,a,b", [
    (lambda x: math.inf, 0.0, 1.0),
    (lambda x: math.nan, -math.inf, math.inf),
    (lambda x: 1e308 if x < 0.3 else -1e308, 0.0, 1.0),
    (lambda x: 1e300 * x ** 7, -math.inf, math.inf),
    (lambda x: 1.0 / x if x else 0.0, -1.0, 2.0),
    (lambda x: 1.0 / (1.0 + abs(x)), -math.inf, math.inf),
    (lambda x: 1e-310 * math.sin(x), -math.inf, math.inf),
    (lambda x: 0.0, 0.0, 1.0),
    (lambda x: 1.0 if x <= 0 else 0.0, -1.0, 10000.0),
], ids=["inf", "nan", "huge-step", "huge-tail", "pole", "divergent", "subnormal",
        "zero", "narrow-step"])
def test_no_arithmetic_exception_escapes(fn, a, b):
    for limit in (1, 2, 50, 400):
        result = _integrate(fn, a, b, epsabs=1e-300, epsrel=1e-12, limit=limit)
        assert 0 <= result.ier <= 5


def test_ieee_results_where_python_raises():
    # the divergence test's result/area and the rule's (200*abserr/resasc)^1.5
    assert quadpack._div(1.0, 0.0) == math.inf
    assert quadpack._div(-1.0, 0.0) == -math.inf
    assert quadpack._div(1.0, -0.0) == -math.inf
    assert math.isnan(quadpack._div(0.0, 0.0))
    assert quadpack._pow15(1e300) == math.inf
    assert quadpack._rule_error(1e200, 0.0, 1.0, 0.0, 1e-10) == 1e-10


# ---------------------------------------------------------------------------
# quad_complex without scipy
# ---------------------------------------------------------------------------

def _bits(result):
    return result.value.hex(), result.abserr.hex(), result.ier, result.neval


def _checked_quad_complex(fn, **kw):
    """quad_complex of the panel integrand fn and the points it was called
    at, each call checked to pass a tuple of 30 points."""
    points = []

    def counting(nodes):
        assert isinstance(nodes, tuple) and len(nodes) == 30
        points.extend(nodes)
        return fn(nodes)
    re, im = quad_complex(counting, **kw)
    return re, im, points


def test_quad_complex_closed_form():
    re, im, _ = _checked_quad_complex(_per_point(lambda x: (2 + 3j) / (x * x + 1)))
    assert re.ier == im.ier == 0
    assert abs(re.value - 2 * math.pi) <= 1e-10 * 2 * math.pi
    assert abs(im.value - 3 * math.pi) <= 1e-10 * 3 * math.pi


def test_quad_complex_of_a_real_and_of_an_imaginary_integrand():
    gauss = lambda x: math.exp(-x * x)  # noqa: E731
    re, im, _ = _checked_quad_complex(_per_point(gauss))
    assert re.ier == 0 and abs(re.value - math.sqrt(math.pi)) <= 1e-10
    # a zero part stops after the first panel with a zero error estimate
    assert _bits(im) == ((0.0).hex(), (0.0).hex(), 0, 30)
    re, im, _ = _checked_quad_complex(_per_point(lambda x: complex(0.0, gauss(x))))
    assert _bits(re) == ((0.0).hex(), (0.0).hex(), 0, 30)
    assert im.ier == 0 and abs(im.value - math.sqrt(math.pi)) <= 1e-10


def test_quad_complex_parts_that_bisect_differently():
    # a wide real part and a narrow imaginary peak off the origin: the
    # imaginary run bisects into panels the real run never made
    re, im, points = _checked_quad_complex(
        _per_point(lambda x: complex(1.0 / (1.0 + x * x), 1.0 / (1.0 + 400.0 * (x - 3.0) ** 2))),
        epsabs=1e-12, epsrel=1e-11, limit=400)
    assert re.ier == im.ier == 0
    assert abs(re.value - math.pi) <= 1e-10 and abs(im.value - math.pi / 20) <= 1e-10
    assert im.neval > re.neval
    # the real run's points, then those of the imaginary run's own panels
    assert re.neval < len(points) < re.neval + im.neval
    assert len(set(points)) == len(points)


def test_quad_complex_shares_the_panels_of_the_two_parts():
    rng = random.Random(16)
    calls = separate = 0
    for _ in range(25):
        f = oracles._rational_function(oracles.random_rational_xi(rng), {})
        re, im, points = _checked_quad_complex(f, epsabs=1e-12, epsrel=1e-11, limit=400)
        assert len(points) <= re.neval + im.neval
        calls += len(points)
        separate += re.neval + im.neval
    assert calls < 0.7 * separate


# ---------------------------------------------------------------------------
# The panel layout and the oracle's panel integrand, without scipy
# ---------------------------------------------------------------------------

def _dyadic_panels(depth):
    """The panels of [0, 1] that dqagie can bisect to, down to ``depth``."""
    for d in range(depth + 1):
        for i in range(2 ** d):
            yield i / 2 ** d, (i + 1) / 2 ** d


def test_whole_line_asks_for_the_published_points_in_order():
    # dqk15i on [0, 1] with x = (1-t)/t: the centre x and -x, then for each
    # abscissa x1 = x(0.5 - 0.5*xgk), x2 = x(0.5 + 0.5*xgk), -x1, -x2
    xgk = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
           0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
           0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
           0.207784955007898467600689403773245)
    expected = [1.0, -1.0]
    for x in xgk:
        t1, t2 = 0.5 - 0.5 * x, 0.5 + 0.5 * x
        x1, x2 = (1.0 - t1) / t1, (1.0 - t2) / t2
        expected += [x1, x2, -x1, -x2]
    # quad_complex hands them to its integrand as one panel
    panels = []
    quad_complex(lambda nodes: panels.append(nodes) or [math.exp(-x * x) for x in nodes])
    assert [x.hex() for x in panels[0]] == [x.hex() for x in expected]


def test_panel_integrand_equals_evaluate_bit_for_bit():
    # every pole pair (mp, mm) in 0..4, numerators up to degree mp + mm, at
    # every point of the 63 panels down to depth 5; the functions of a seed
    # share one set of power tables, filled in the order they ask for them
    panels = [quadpack._panel(a, b).nodes for a, b in _dyadic_panels(5)]
    assert len(panels) == 63
    for seed in range(1, 9):
        rng = random.Random(seed)
        tables = {}
        for mp in range(5):
            for mm in range(5):
                coeffs = [GaussianRational(Fraction(rng.randint(-5, 5)),
                                           Fraction(rng.randint(-5, 5)))
                          for _ in range(rng.randint(1, mp + mm + 1))]
                f = RationalXi(coeffs, mp, mm)
                assert (f.mp, f.mm) == (mp, mm)
                values = oracles._rational_function(f, tables)
                for nodes in rng.sample(panels, len(panels)):
                    for x, v in zip(nodes, values(nodes)):
                        want = evaluate_rational(f, x)
                        assert ((v.real.hex(), v.imag.hex())
                                == (want.real.hex(), want.imag.hex())), (seed, mp, mm, x)
        assert len(tables) == 63


def test_power_tables_live_for_one_suite_run(monkeypatch):
    # run_quadrature_oracle hands all its integrands one set of tables, one
    # entry per distinct panel, and nothing holds it after the run returns
    seen = {}
    real = oracles.numeric_line_integral

    def spying(f, tables):
        seen[id(tables)] = tables
        return real(f, tables)
    monkeypatch.setattr(oracles, "numeric_line_integral", spying)
    oracles.run_quadrature_oracle(7, 100)
    (tables,) = seen.values()
    seen.clear()
    assert 0 < len(tables) < 40
    assert sys.getrefcount(tables) == 2

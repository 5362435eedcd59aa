"""Exact heat-trace asymptotics from spectra, against the heat table.

An operator with eigenvalues (k + theta)^2 + delta, k = 0, 1, ..., each with
multiplicity P(k + theta) for a polynomial P(nu) = sum_m p_m nu^m, has the
small-t expansion

    Tr e^{-tL} ~ e^{-t delta} sum_m p_m [ Gamma((m+1)/2)/2 t^{-(m+1)/2}
                                          + sum_j (-t)^j/j! zeta(-m-2j, theta) ]

with the Hurwitz values zeta(-k, theta) = -B_{k+1}(theta)/(k+1).  Each
coefficient is a rational times a power of sqrt(pi), so it compares exactly
with the table's ``UnitValue``s, and the heat trace of a product of manifolds
is the product of the heat traces.  The spectra need nothing of wres, and
the table gets only the curvature invariants of each manifold:

* ``D^2`` on the round S^n, n even: (k + n/2)^2 with multiplicity
  2 * 2^(n/2) * C(k+n-1, k) (Camporesi and Higuchi, J. Geom. Phys. 20 (1996));
* the Hodge Laplacian on all forms of S^2: l(l+1) = (l + 1/2)^2 - 1/4 with
  multiplicity 4(2l+1) for l >= 1, and 2 at l = 0;
* the sub-Dirac operator of the foliation F = TS^a of S^a x S^2, whose square
  is D^2 (x) 1 + 1 (x) Delta_Lambda(S^2), so its heat trace is the product of
  the two above; its R^{F-perp} is the curvature of the S^2;
* -d^2/dt^2 on [0, pi] with Dirichlet ends: k^2 for k >= 1, whose trace is
  (sqrt(pi/t) - 1)/2 up to exponentially small terms;
* -Delta - E on the hemisphere S^n_+ with Dirichlet condition, E constant:
  l(l+n-1) - E for l >= 1, with multiplicity C(l+n-2, n-1) (the harmonics
  odd in x_{n+1}).

Products with [0, pi] and the hemispheres have totally geodesic boundaries
in constant curvature, so every L term, r_{;N} and E_{;N} vanishes there;
the hemispheres fix the sign convention R_aNaN = -Ric_NN.

Standard library only.
"""

import math
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest

from wres import heat
from wres.heat import (
    CurvatureData,
    boundary_coeffs,
    interior_coeffs,
    lower_volume,
    v_nk,
    wres_power,
)
from wres.symbolic import UnitValue

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Bernoulli polynomials and the Hurwitz zeta function at negative integers
# ---------------------------------------------------------------------------

def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1}, with B_1 = -1/2: sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_B = bernoulli_numbers(40)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(comb(n, k) * _B[k] * x ** (n - k) for k in range(n + 1))


def hurwitz_zeta(minus_k: int, theta: Fraction) -> Fraction:
    """zeta(-k, theta) for k >= 0."""
    k = -minus_k
    return -bernoulli_poly(k + 1, theta) / (k + 1)


def test_hurwitz_values():
    one = Fraction(1)
    # the Riemann values
    assert [hurwitz_zeta(-k, one) for k in range(4)] == [
        Fraction(-1, 2), Fraction(-1, 12), 0, Fraction(1, 120)]
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    for k in range(12):
        assert hurwitz_zeta(-k, HALF) == (Fraction(1, 2 ** k) - 1) * hurwitz_zeta(-k, one)
    # zeta(s, theta) - zeta(s, theta + 1) = theta^(-s)
    for theta in (HALF, one, Fraction(3, 2), Fraction(2)):
        for k in range(12):
            assert hurwitz_zeta(-k, theta) - hurwitz_zeta(-k, theta + 1) == theta ** k


# ---------------------------------------------------------------------------
# Heat-trace series: {exponent of t: UnitValue}, exponents in (1/2) Z
# ---------------------------------------------------------------------------

def gamma_half(m: int) -> UnitValue:
    """Gamma(m/2) for m >= 1: an integer, or a rational times sqrt(pi)."""
    if m % 2 == 0:
        return UnitValue(factorial(m // 2 - 1))
    # Gamma(j + 1/2) = (2j)! / (4^j j!) sqrt(pi)
    j = (m - 1) // 2
    return UnitValue(Fraction(factorial(2 * j), 4 ** j * factorial(j)), {"pi": HALF})


def _add(series, exponent, value):
    if not value.is_zero():
        series[exponent] = series[exponent] + value if exponent in series else value


def series_mul(a: dict, b: dict, top: Fraction) -> dict:
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            if ea + eb <= top:
                _add(out, ea + eb, va * vb)
    return out


def heat_series(mult: list, theta: Fraction, delta: Fraction, top) -> dict:
    """The expansion of sum_{k>=0} P(k+theta) e^{-t((k+theta)^2 + delta)}
    up to t^top, P's coefficients ``mult`` constant term first."""
    top = Fraction(top)
    base: dict = {}
    lowest = Fraction(-len(mult), 2)
    for m, p in enumerate(mult):
        if not p:
            continue
        _add(base, Fraction(-(m + 1), 2), gamma_half(m + 1) * Fraction(p, 2))
        for j in range(math.floor(top) + 1):
            _add(base, Fraction(j), UnitValue(
                Fraction(p * (-1) ** j, factorial(j)) * hurwitz_zeta(-m - 2 * j, theta)))
    shift = {Fraction(i): UnitValue(Fraction((-delta) ** i, factorial(i)))
             for i in range(int(top - lowest) + 1)}
    return series_mul(base, shift, top)


def poly_from_roots(roots, scale) -> list[Fraction]:
    """scale * prod (nu - root), constant term first."""
    out = [Fraction(scale)]
    for r in roots:
        out = [-r * out[0]] + [lo - r * hi for lo, hi in zip(out, out[1:])] + [out[-1]]
    return out


def sphere_dirac(n: int):
    """D^2 on the round S^n, n even: nu = k + n/2 and multiplicity
    2 * 2^(n/2) * C(k+n-1, n-1), a polynomial in nu with roots -(n/2-1)..(n/2-1)."""
    h = n // 2
    roots = [Fraction(i) for i in range(-(h - 1), h)]
    return poly_from_roots(roots, Fraction(2 * 2 ** h, factorial(n - 1))), Fraction(h)


def test_multiplicities_are_the_published_ones():
    for n in (2, 4, 6, 8):
        mult, theta = sphere_dirac(n)
        for k in range(10):
            nu = k + theta
            want = 2 * 2 ** (n // 2) * comb(k + n - 1, k)
            assert sum(p * nu ** m for m, p in enumerate(mult)) == want


def forms_s2_series(top) -> dict:
    """The Hodge Laplacian on all forms of S^2: 8 nu for nu = l + 1/2 with
    delta = -1/4, less the 2 that the formula overcounts at l = 0."""
    series = heat_series([0, 8], HALF, Fraction(-1, 4), top)
    _add(series, Fraction(0), UnitValue(-2))
    return series


def interval_series(top) -> dict:
    """[0, pi] with Dirichlet ends: nu = k + 1, multiplicity 1."""
    return heat_series([1], Fraction(1), 0, top)


def hemisphere_spectrum(n: int, e: Fraction):
    """-Delta - E on S^n_+: nu = l + (n-1)/2 and delta = -((n-1)/2)^2 - E, with
    multiplicity C(l+n-2, n-1) = prod_{i<n-1} (l+i) / (n-1)!, a polynomial in
    nu that vanishes at l = 0, so the sum may start there."""
    theta = Fraction(n - 1, 2)
    mult = poly_from_roots([theta - i for i in range(n - 1)], Fraction(1, factorial(n - 1)))
    return mult, theta, -theta * theta - e


def test_hemisphere_multiplicities_are_the_published_ones():
    for n in (3, 4, 5, 6):
        mult, theta, _ = hemisphere_spectrum(n, Fraction(0))
        for l in range(10):
            assert sum(p * (l + theta) ** m for m, p in enumerate(mult)) == comb(l + n - 2, n - 1)


def _summed(mult, theta, delta, t, kmax=400):
    return sum(sum(float(p) * float(k + theta) ** m for m, p in enumerate(mult))
               * math.exp(-t * float((k + theta) ** 2 + delta)) for k in range(kmax))


def _series_value(series, t):
    return sum(v.numeric().real * t ** float(e) for e, v in series.items())


@pytest.mark.parametrize("t", [0.01, 0.03])
def test_series_against_the_summed_trace(t):
    # the exponentially small remainder and the truncation stay far below 1e-9
    for n in (2, 4, 6, 8):
        mult, theta = sphere_dirac(n)
        want = _summed(mult, theta, 0, t)
        assert abs(_series_value(heat_series(mult, theta, 0, 3), t) - want) <= 1e-9 * want
    want = _summed([0, 8], HALF, Fraction(-1, 4), t) - 2
    assert abs(_series_value(forms_s2_series(3), t) - want) <= 1e-9 * want
    want = _summed([1], 1, 0, t)
    assert abs(_series_value(interval_series(3), t) - want) <= 1e-9 * want
    for n in (3, 4, 5, 6):
        for e in (Fraction(0), Fraction(1, 3), Fraction(-(n - 1) ** 2, 4)):
            spectrum = hemisphere_spectrum(n, e)
            want = _summed(*spectrum, t)
            assert abs(_series_value(heat_series(*spectrum, 6), t) - want) <= 1e-9 * want


# ---------------------------------------------------------------------------
# The table against the spectra
# ---------------------------------------------------------------------------

def coefficient(series, n, k) -> UnitValue:
    """a_k: the coefficient of t^((k - n)/2)."""
    return series.get(Fraction(k - n, 2), UnitValue.zero())


def sphere_invariants(*dims: int, rfperp2=0) -> dict:
    """The interior invariants of a product of unit spheres S^n: each adds
    r = n(n-1), |Ric|^2 = n(n-1)^2 and |Riem|^2 = 2n(n-1)."""
    r = sum(n * (n - 1) for n in dims)
    return dict(r=r, r2=r * r, ric2=sum(n * (n - 1) ** 2 for n in dims),
                riem2=sum(2 * n * (n - 1) for n in dims), rfperp2=rfperp2)


def round_sphere(n: int) -> CurvatureData:
    """The unit S^n per unit volume."""
    return CurvatureData(**sphere_invariants(n))


def sphere_volume(n: int) -> UnitValue:
    """vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return UnitValue(2, {"pi": Fraction(n + 1, 2)}) / gamma_half(n + 1)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_interior_coefficients_of_round_spheres(n):
    mult, theta = sphere_dirac(n)
    series = heat_series(mult, theta, 0, Fraction(4 - n, 2))
    table = interior_coeffs(round_sphere(n), n, 2 ** (n // 2))
    vol = sphere_volume(n)
    for k, a in ((0, table.a0), (2, table.a2), (4, table.a4)):
        assert a * vol == coefficient(series, n, k), (n, k)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_wres_power_is_the_spectral_a2(n):
    # Wres(D^{2-n}) = 2 a2 / Gamma(n/2 - 1), and a2 is linear in int R
    mult, theta = sphere_dirac(n)
    a2 = coefficient(heat_series(mult, theta, 0, Fraction(2 - n, 2)), n, 2)
    int_r = sphere_volume(n) * (n * (n - 1))
    assert wres_power(n, 2 ** (n // 2)) * int_r == a2 * 2 / gamma_half(n - 2)


def sub_dirac_series(a: int, top) -> dict:
    """The sub-Dirac operator of F = TS^a on S^a x S^2, n = a + 2: the series
    of D^2 on S^a (from t^(-a/2)) times that of the forms of S^2 (from t^-1)."""
    mult, theta = sphere_dirac(a)
    return series_mul(heat_series(mult, theta, 0, top + 1), forms_s2_series(top + a // 2), top)


def test_sub_dirac_operator_of_s2_x_s2():
    # n = 4 and T = 2 * 4: the spinors of the leaf times all forms of F-perp
    series = sub_dirac_series(2, Fraction(0))
    data = CurvatureData(r=4, r2=16, ric2=4, riem2=8, rfperp2=4)
    table = interior_coeffs(data, 4, 8)
    vol = sphere_volume(2) * sphere_volume(2)
    got = [coefficient(series, 4, k) for k in (0, 2, 4)]
    assert [table.a0 * vol, table.a2 * vol, table.a4 * vol] == got
    # without the R^{F-perp} terms of tr E^2 and tr Omega^2, a4 would differ
    flat_perp = interior_coeffs(CurvatureData(r=4, r2=16, ric2=4, riem2=8), 4, 8)
    assert flat_perp.a4 * vol != got[2]


def test_sub_dirac_operator_of_s4_x_s2():
    # n = 6 and T = 4 * 4
    series = sub_dirac_series(4, Fraction(-1))
    table = interior_coeffs(CurvatureData(**sphere_invariants(4, 2, rfperp2=4)), 6, 16)
    vol = sphere_volume(4) * sphere_volume(2)
    assert [table.a0 * vol, table.a2 * vol, table.a4 * vol] == [
        coefficient(series, 6, k) for k in (0, 2, 4)]


@pytest.mark.parametrize("a", [2, 4], ids=["S2xS2", "S4xS2"])
def test_lower_volumes_of_foliated_products(a):
    # v_{n,k} times the spectral a_{n-k}, and zero for mixed parity
    n, T = a + 2, 2 ** (a // 2) * 4
    series = sub_dirac_series(a, Fraction(4 - n, 2))
    data = CurvatureData(**sphere_invariants(a, 2, rfperp2=4))
    vol = sphere_volume(a) * sphere_volume(2)
    for k in range(1, n + 1):
        want = (v_nk(n, k) * coefficient(series, n, n - k) if (n - k) % 2 == 0
                else UnitValue.zero())
        assert lower_volume(n, k, data, T) * vol == want, k


# ---------------------------------------------------------------------------
# The Dirichlet table: products with [0, pi], and hemispheres
# ---------------------------------------------------------------------------

# the boundary invariants that vanish on a totally geodesic boundary of a
# manifold of constant curvature (every L term, r_{;N} and E_{;N})
GEODESIC_ZEROS = ("L_aa", "L2_abab", "L2_aabb", "L3_aabbcc", "L3_ababcc", "L3_abbcac",
                  "R_aNaN_L_bb", "R_aNbN_L_ab", "R_abcb_L_ac", "L_aa_bb", "r_N", "r_L_aa",
                  "E_N", "E_L_aa")


@pytest.mark.parametrize("T, closed, dims, rfperp2", [
    (4, lambda: heat_series(*sphere_dirac(4), 0, 0), (4,), 0),
    (8, lambda: sub_dirac_series(2, Fraction(0)), (2, 2), 4),
], ids=["S4xI", "S2xS2xI"])
def test_dirichlet_coefficients_of_products_with_an_interval(T, closed, dims, rfperp2):
    # n = 5; each end is a copy of the closed factor, with R_aNaN = 0
    series = series_mul(closed(), interval_series(0), Fraction(-1, 2))
    closed_vol = UnitValue(1)
    for d in dims:
        closed_vol = closed_vol * sphere_volume(d)
    vol, bvol = closed_vol * UnitValue.unit("pi"), closed_vol * 2
    inv = sphere_invariants(*dims, rfperp2=rfperp2)
    inner = boundary_coeffs(CurvatureData(vol=1, **inv), 5, T)
    edge = boundary_coeffs(CurvatureData(vol=0, bvol=1, **inv), 5, T)
    for name in ("a0", "a1", "a2", "a3", "a4", "a4_alt"):
        got = getattr(inner, name) * vol + getattr(edge, name) * bvol
        assert got == coefficient(series, 5, int(name[1])), name


def hemisphere_coefficients(n, e, r_anan) -> list[UnitValue]:
    """a0..a4 of -Delta - E on the unit S^n_+, whose boundary is a totally geodesic
    unit S^(n-1), with R_aNaN = ``r_anan``: ``heat._GENERAL`` itself with T = 1,
    as a scalar operator's trace is the identity (and its Omega is 0)."""
    inv = sphere_invariants(n)
    data = SimpleNamespace(vol=sphere_volume(n) / 2, bvol=sphere_volume(n - 1),
                           boundary_r=inv["r"], R_aNaN=r_anan, E=e, rE=inv["r"] * e,
                           E2=e * e, Omega2=0, **inv, **dict.fromkeys(GEODESIC_ZEROS, 0))
    return heat._assemble(data, n, 1, heat._GENERAL.items())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scalar_table_on_hemispheres(n):
    # the table with R_aNaN = -Ric_NN = -(n-1) gives every a0..a4; the
    # opposite sign misses a3
    for e in (Fraction(0), Fraction(1, 3), Fraction(-(n - 1) ** 2, 4)):
        series = heat_series(*hemisphere_spectrum(n, e), Fraction(4 - n, 2))
        want = [coefficient(series, n, k) for k in range(5)]
        assert hemisphere_coefficients(n, e, -(n - 1)) == want, e
        assert hemisphere_coefficients(n, e, n - 1)[3] != want[3]

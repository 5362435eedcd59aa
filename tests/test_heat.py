"""Heat coefficients: the symbolic endomorphism derivations, coefficient
formulas, lower-volume constants, and spectral moments."""

import math
from fractions import Fraction

import pytest

from wres.clifford import AlgebraSignature
from wres.heat import (
    A4_BOUNDARY_PRINTED,
    BOUNDARY_FIELDS,
    SPINOR,
    CurvatureData,
    boundary_coeffs,
    bracket,
    interior_coeffs,
    lichnerowicz_E,
    lower_volume,
    spectral_moments,
    v_nk,
    wres_power,
)
from wres.symbolic import ScalarPoly, UnitValue

from references import endomorphism_traces, omega_squared_trace, rfperp_norm_sq, v_nk_numeric


@pytest.mark.parametrize("p,q", [(2, 2), (1, 2), (2, 3), (3, 2)])
def test_endomorphism_traces(p, q):
    tr = endomorphism_traces(AlgebraSignature(p, q))
    assert tr["tr_E"] == tr["tr_E_expected"]
    assert tr["tr_E2"] == tr["tr_E2_expected"]


def test_endomorphism_flat_case():
    sig = AlgebraSignature(2, 2)
    minus_e = lichnerowicz_E(sig)
    zeroed = minus_e
    for s in sorted({n for c in minus_e.terms.values() for n in c.symbols()}):
        zeroed = zeroed.map_coeffs(lambda c, s=s: c.subs_many({s: ScalarPoly.zero()}))
    assert zeroed.is_zero()


def test_omega_squared_trace():
    res = omega_squared_trace(4, 2)
    assert res["tr_Omega2"] == res["tr_Omega2_expected"]


def test_interior_bracket_coefficients():
    # the table composed with the trace identities gives the reduced spinor
    # constants of the closed forms
    assert SPINOR[0] == (1, {"1": 1}, {})
    pref, interior, boundary = SPINOR[2]
    assert {k: pref * c for k, c in interior.items()} == {"r": Fraction(-1, 12)}
    assert {k: pref * c for k, c in boundary.items()} == {"L_aa": Fraction(1, 3)}
    assert SPINOR[4].prefactor == Fraction(1, 360)
    assert SPINOR[4].interior == {"r2": Fraction(5, 4), "ric2": Fraction(-2),
                                  "riem2": Fraction(-7, 4), "rfperp2": Fraction(15, 2)}


def test_dirichlet_a2_weighs_r_against_l_aa_as_one_to_minus_four():
    # rw's a2 is the Dirichlet spectral coefficient, proportional to
    # int R - 4 int L_aa; the Einstein-Hilbert action with its Gibbons-Hawking
    # term, int R + 2 int K, would weigh the boundary +2
    pref, interior, boundary = SPINOR[2]
    assert set(interior) == {"r"} and set(boundary) == {"L_aa"}
    r_weight, l_weight = pref * interior["r"], pref * boundary["L_aa"]
    assert (r_weight, l_weight) == (Fraction(-1, 12), Fraction(1, 3))
    assert l_weight / r_weight == -4


def test_interior_coefficient_prefactors():
    # dimension 6, trace dimension 16: a2 = -1/(48 pi^3), a0 = 1/(4 pi^3)
    hc = interior_coeffs(CurvatureData(r=1, vol=1), 6, 16)
    assert hc.a2 == UnitValue(Fraction(-1, 48), {"pi": Fraction(-3)})
    assert hc.a0 == UnitValue(Fraction(1, 4), {"pi": Fraction(-3)})
    assert hc.a1.is_zero() and hc.a3.is_zero()
    flat = interior_coeffs(CurvatureData(vol=2), 4, 8)
    assert flat.a2.is_zero() and flat.a4.is_zero()
    assert flat.a0 == UnitValue(1, {"pi": Fraction(-2)})


def test_interior_a4_value():
    data = CurvatureData(r2=1, ric2=1, riem2=1, rfperp2=1, vol=1)
    hc = interior_coeffs(data, 4, 8)
    want = Fraction(5, 4) - 2 - Fraction(7, 4) + Fraction(15, 2)
    assert hc.a4 == UnitValue(Fraction(8, 360) * want * Fraction(1, 16),
                              {"pi": Fraction(-2)})


def test_boundary_reduces_to_interior():
    data = CurvatureData(r=2, r2=4, vol=3)
    b = boundary_coeffs(data, 4, 8)
    i = interior_coeffs(data, 4, 8)
    assert (b.a0, b.a2, b.a4) == (i.a0, i.a2, i.a4)
    assert b.a1.is_zero() and b.a3.is_zero()


@pytest.mark.parametrize("n, total_dim", [(4, 8), (5, None)])
def test_interior_coefficients_ignore_boundary_data(n, total_dim):
    # bvol and every invariant that only a boundary bracket reads, r_bd
    # included, leave the closed-manifold coefficients as they are
    interior = dict(vol=3, r=2, r2=4, ric2=-1, riem2=5, rfperp2=Fraction(1, 3))
    edge = CurvatureData(bvol=7, **interior,
                         **{name: k + 2 for k, name in enumerate(BOUNDARY_FIELDS)})
    closed = interior_coeffs(CurvatureData(**interior), n, total_dim)
    bounded = interior_coeffs(edge, n, total_dim)
    for name in ("a0", "a1", "a2", "a3", "a4", "a4_alt"):
        assert getattr(bounded, name) == getattr(closed, name), name
    # which the Dirichlet formulas do read
    assert boundary_coeffs(edge, n, total_dim).a2 != closed.a2


def test_boundary_a2_form():
    # a2 = pref/12 (-int r + 4 int L_aa)
    data = CurvatureData(r=1, vol=1, L_aa=1, bvol=1)
    hc = boundary_coeffs(data, 4, 8)
    pref = Fraction(8, 16)  # T (4pi)^{-2} without the pi part
    assert hc.a2 == UnitValue(pref * Fraction(3, 12), {"pi": Fraction(-2)})


def test_boundary_a1_and_a3_factors():
    data = CurvatureData(vol=0, bvol=1, r_bd=1, R_aNaN=1, L2_aabb=1, L2_abab=1)
    hc = boundary_coeffs(data, 4, 8)
    # a1 = -(1/4) (4 pi)^{-3/2} T bvol
    assert hc.a1 == UnitValue(-2, {"2": Fraction(-3), "pi": Fraction(-3, 2)})
    # a3 bracket: -8 r + 8 R_aNaN + 7 L_aa L_bb - 10 L_ab L_ab = -3 here
    assert hc.a3 == UnitValue(Fraction(8, 384) * 3, {"2": Fraction(-3), "pi": Fraction(-3, 2)})
    assert SPINOR[1] == (Fraction(-1, 4), {}, {"1": 1})
    assert SPINOR[3] == (Fraction(-1, 384), {},
                         {"r": -8, "R_aNaN": 8, "L2_aabb": 7, "L2_abab": -10})
    # on the boundary r is the boundary scalar curvature
    assert bracket(SPINOR[3].boundary, CurvatureData(r=5, r_bd=1), True) == -8


def test_a4_boundary_bracket_variants():
    data = CurvatureData(r_N=1)
    assert bracket(A4_BOUNDARY_PRINTED, data, True) == Fraction(-51)
    assert bracket(SPINOR[4].boundary, data, True) == Fraction(12)
    # every non-r_N term agrees between the two variants
    data2 = CurvatureData(r_L_aa=1, R_aNaN_L_bb=1, R_aNbN_L_ab=1, R_abcb_L_ac=1,
                          L_aa_bb=1, L3_aabbcc=1, L3_ababcc=1, L3_abbcac=1)
    assert bracket(A4_BOUNDARY_PRINTED, data2, True) == bracket(SPINOR[4].boundary, data2, True)
    others = {"r_L_aa": -10, "R_aNaN_L_bb": 4, "R_aNbN_L_ab": -12, "R_abcb_L_ac": 4,
              "L_aa_bb": 24, "L3_aabbcc": Fraction(40, 21), "L3_ababcc": Fraction(-88, 7),
              "L3_abbcac": Fraction(320, 21)}
    assert SPINOR[4].boundary == {"r_N": 12, **others}
    assert A4_BOUNDARY_PRINTED == {"r_N": -51, **others}


def test_curvature_data_mapping_guard():
    with pytest.raises(TypeError, match=r"unknown curvature keys: \['nope'\]"):
        CurvatureData(nope=1)


def test_v_constants():
    assert v_nk(4, 2) == UnitValue(Fraction(1, 4), {"2": Fraction(1, 2), "pi": Fraction(-1)})
    assert abs(v_nk(4, 2).numeric().real - 1 / (2 * math.pi * math.sqrt(2))) < 1e-15
    assert v_nk(5, 2).is_zero()
    assert v_nk(6, 3).is_zero()
    # odd/odd case against the float evaluation of the defining formula
    for n, k in ((5, 1), (5, 3), (7, 3), (4, 4), (6, 2)):
        if (n - k) % 2 == 0:
            assert abs(v_nk(n, k).numeric().real - v_nk_numeric(n, k)) <= 1e-12
    with pytest.raises(ValueError):
        v_nk(4, 5)


def test_lower_volume_composition():
    # v_{4,2} * a_2 for the dim-4 residue: -sqrt(2)/96 * pi^{-3} per unit integral
    lv = lower_volume(4, 2, CurvatureData(r=1, vol=1), 8)
    assert lv == UnitValue(Fraction(-1, 96), {"2": Fraction(1, 2), "pi": Fraction(-3)})
    assert lower_volume(6, 3, CurvatureData(r=1, vol=1), 8).is_zero()
    top = lower_volume(4, 4, CurvatureData(vol=1), 8)
    assert top == v_nk(4, 4) * UnitValue(Fraction(8, 16), {"pi": Fraction(-2)})


def _wres_closed_form(n, total_dim=None):
    """The Kastler-Kalau-Walze closed form -T / (6 (n/2-2)! (4 pi)^{n/2})."""
    t = UnitValue.unit("l~2^q") if total_dim is None else UnitValue(total_dim)
    four_pi = UnitValue(1, {"2": Fraction(-n), "pi": Fraction(-n, 2)})  # (4 pi)^{-n/2}
    return t * four_pi * Fraction(-1, 6 * math.factorial(n // 2 - 2))


def test_wres_power():
    # 2 a2 / Gamma(n/2 - 1) against the closed form, for symbolic T and for
    # T = 2^(p+q) with n = 2p + q, q = 2
    for n in (4, 6, 8, 10):
        assert wres_power(n) == _wres_closed_form(n)
        total_dim = 2 ** ((n - 2) // 2 + 2)
        assert wres_power(n, total_dim) == _wres_closed_form(n, total_dim)
    # symbolic trace dimension: -T/(6 (4 pi)^3) = -T/(384 pi^3)
    assert wres_power(6) == UnitValue(Fraction(-1, 384),
                                      {"pi": Fraction(-3), "l~2^q": Fraction(1)})
    # classical spin reduction in dimension 4: T = 4 gives -1/(24 pi^2)
    spin = wres_power(4, AlgebraSignature(4, 0).total_dim)
    assert spin == UnitValue(Fraction(-1, 24), {"pi": Fraction(-2)})
    assert wres_power(4, 8) == UnitValue(Fraction(-1, 12), {"pi": Fraction(-2)})
    with pytest.raises(ValueError):
        wres_power(5)


def test_spectral_moments_gamma_cutoff():
    ms = spectral_moments(lambda s: math.exp(-s))
    for k in (1, 2, 3, 4):
        assert abs(ms[k] - 1.0) <= 1e-10
    assert ms[0] == 1.0


def test_spectral_moments_keep_their_bits():
    # the exact moments are all 1; these floats are what dqagie gives, and
    # rw's spectral_action bytes are built on them
    ms = spectral_moments(lambda s: math.exp(-s))
    assert {k: v.hex() for k, v in ms.items()} == {
        0: "0x1.0000000000000p+0", 1: "0x1.0000000000000p+0", 2: "0x1.0000000000001p+0",
        3: "0x1.000000000000ap+0", 4: "0x1.0000000000000p+0"}


def test_spectral_moments_indicator():
    ms = spectral_moments(lambda s: 1.0 if s <= 1 else 0.0)
    assert abs(ms[4] - 0.5) <= 1e-9          # (1/Gamma(2)) * int_0^1 s ds
    assert abs(ms[2] - 1.0) <= 1e-9
    assert abs(ms[1] - 2.0 / math.sqrt(math.pi) * 1.0) <= 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore:The maximum number")
def test_spectral_moments_divergent_tail():
    with pytest.raises(ValueError):
        spectral_moments(lambda s: 1.0 / (1.0 + s))


def test_rfperp_matches_trace_identity_shape():
    sig = AlgebraSignature(2, 2)
    poly = rfperp_norm_sq(sig)
    assert not poly.is_zero()
    assert all(name.startswith("R") for name in poly.symbols())

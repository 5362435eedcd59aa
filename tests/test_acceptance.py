"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here; exact checks compare coefficient-and-unit words.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from wres.boundary import get_scenario, phi_total, res_partial
from wres.cli import main as cli_main
from wres.clifford import AlgebraSignature
from wres.heat import SPINOR, CurvatureData, interior_coeffs, lower_volume, v_nk
from wres.oracles import (
    numeric_line_integral,
    random_rational_xi,
    run_ad_oracle,
    run_trace_oracle,
)
from wres.symbolic import (
    GR_I,
    GaussianRational,
    RationalXi,
    UnitValue,
    integrate_line,
)
from wres.symbols import foliation_model, trace_product
from wres.warped import RWModel, parse_warp, rw_lower_volumes, rw_spectral_coeffs

from references import endomorphism_traces, omega_squared_trace, reduce_unit_norm, v_nk_numeric
from test_warped import FROZEN_EXP_RUN, FROZEN_EXP_VOLUMES, _riemann


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _unit(coeff, **units):
    names = {"pi": "pi", "h1": "h'(0)", "O3": "Omega3", "O4": "Omega4",
             "dx": "dx'", "vol": "Vol_dM", "T": "l~2^q", "igrb": "I_Gr,b"}
    return UnitValue(coeff, {names[k]: Fraction(v) for k, v in units.items()})


def test_criterion_1_dim4_table():
    t0 = time.perf_counter()
    rep = phi_total(get_scenario(4, 1, 1))
    values = {label: v for label, _, v in rep.cases}
    expected = {
        "aI": UnitValue.zero(),
        "aII": _unit(Fraction(-3, 4), pi=1, h1=1, O3=1, dx=1),
        "aIII": _unit(Fraction(3, 4), pi=1, h1=1, O3=1, dx=1),
        "b": _unit(Fraction(3, 4), pi=1, h1=1, O3=1, dx=1),
        "c": _unit(Fraction(-3, 4), pi=1, h1=1, O3=1, dx=1),
    }
    ok = all(values[k] == v for k, v in expected.items()) and rep.total.is_zero()
    elapsed = time.perf_counter() - t0
    report("criterion 1", ok and elapsed < 30.0,
           f"dim-4 table (-3/4, +3/4, +3/4, -3/4) pi h'(0) Omega3 dx', aI = 0, "
           f"total 0; {elapsed:.2f}s")


def test_criterion_2_dim6_table():
    t0 = time.perf_counter()
    rep = phi_total(get_scenario(6, 2, 2))
    values = {label: v for label, _, v in rep.cases}
    base = dict(T=1, pi=1, h1=1, O4=1, dx=1)
    ok = (values["aII"] == _unit(Fraction(-5, 64), **base)
          and values["aIII"] == _unit(Fraction(5, 64), **base)
          and values["b"] == _unit(Fraction(-15, 64), **base)
          and (values["b"] + values["c"]).is_zero()
          and rep.total.is_zero())
    elapsed = time.perf_counter() - t0
    report("criterion 2", ok and elapsed < 60.0,
           f"dim-6 table -5/64, +5/64, -15/64, b+c = 0, total 0; {elapsed:.2f}s")


def test_criterion_3_low_dimension_totals():
    got3 = phi_total(get_scenario(3, 1, 1)).total_over_boundary
    ok3 = got3 == UnitValue(GaussianRational(0, 2), {"pi": Fraction(2), "Vol_dM": Fraction(1)})
    got5 = phi_total(get_scenario(5, 2, 2)).total_over_boundary
    ok5 = got5 == UnitValue(GaussianRational(0, Fraction(1, 8)),
                            {"pi": Fraction(1), "Omega3": Fraction(1),
                             "l~2^q": Fraction(1), "Vol_dM": Fraction(1)})
    ok51 = phi_total(get_scenario(5, 2, 1)).total.is_zero()
    ok41 = phi_total(get_scenario(4, 2, 1)).total.is_zero()
    report("criterion 3", ok3 and ok5 and ok51 and ok41,
           "dim-3: 2 i pi^2 Vol; dim-5 (2,2): (pi i/8) l~2^q Omega3 Vol; "
           "dim-5 (2,1) and dim-4 (2,1): 0")


def test_criterion_4_res_partials():
    expectations = {
        "res11": _unit(Fraction(1, 4), pi=1, O3=1, igrb=1),
        "res21": _unit(Fraction(-1, 4), pi=1, O3=1, igrb=1),
        "res22": _unit(Fraction(1, 64), T=1, O4=1, igrb=1),
        "res23": _unit(Fraction(3, 64), T=1, O4=1, igrb=1),
        "res21_51": UnitValue.zero(),
        "res22_51": UnitValue.zero(),
    }
    ok = True
    for kind, want in expectations.items():
        got = res_partial(kind).igrb_multiple
        if got != want:
            ok = False
            print(f"  res-partial {kind}: got {got}, want {want}")
    report("criterion 4", ok,
           "res11 -> (pi/4) Omega3 I_Gr,b; res21 -> -(1/4) pi Omega3; "
           "res22 -> (1/64) l~2^q Omega4; res23 -> (3/64); dim-5 pair -> 0")


def test_criterion_5_residue_engine():
    t0 = time.perf_counter()
    f = RationalXi([2, GR_I], 2, 0) * RationalXi([-1, 0, 3], 3, 3)
    exact_ok = integrate_line(f) == UnitValue(Fraction(5, 16), {"pi": Fraction(1)})
    rng = random.Random(515)
    worst = 0.0
    for _ in range(200):
        g = random_rational_xi(rng)
        exact = complex(g.integrate_pi_coefficient().constant_value()) * math.pi
        approx = numeric_line_integral(g, {})
        worst = max(worst, abs(exact - approx) / max(abs(exact), 1e-6))
    elapsed = time.perf_counter() - t0
    report("criterion 5", exact_ok and worst <= 1e-8 and elapsed < 10.0,
           f"closed integral 5 pi/16 exact; 200 randomized vs quadrature "
           f"(worst rel err {worst:.2e}); {elapsed:.2f}s")


def test_criterion_6_clifford_traces():
    oracle = run_trace_oracle(seed=606, count=500)
    # the trace identities are asserted exhaustively in the unit suites; spot
    # re-check the model-dependent ones here
    model = foliation_model(2, 2, 8)
    td = model.total_dim
    Cp, N = model.c_xi_prime(), model.c_dxn()
    dCp = model.c_xi_prime_jet().dxn
    t1 = trace_product(Cp, N, td).is_zero()
    t2 = trace_product(N, N, td) == RationalXi.const(-8)
    cp2 = trace_product(Cp, Cp, td)
    on_cosphere = lambda p: reduce_unit_norm(model.reduce_coeff(p), model.coords)
    t3 = len(cp2.num) == 1 and on_cosphere(cp2.num[0]) == -8
    t4 = trace_product(dCp, N, td).is_zero()
    from wres.symbols import h1_poly
    t5_val = trace_product(dCp, Cp, td)
    t5 = (len(t5_val.num) == 1 and
          on_cosphere(t5_val.num[0]) == h1_poly() * (-4))
    report("criterion 6", oracle["pass"] and t1 and t2 and t3 and t4 and t5,
           f"trace identities exact; 500 random words vs Jordan-Wigner matrices "
           f"({oracle['failures']} failures)")


def test_criterion_7_heat_closed_forms():
    ok = True
    for p, q in ((2, 2), (1, 2), (2, 3)):
        tr = endomorphism_traces(AlgebraSignature(p, q))
        ok &= tr["tr_E"] == tr["tr_E_expected"]
        ok &= tr["tr_E2"] == tr["tr_E2_expected"]
    om = omega_squared_trace(4, 2)
    ok &= om["tr_Omega2"] == om["tr_Omega2_expected"]
    ok &= SPINOR[4].interior == {"r2": Fraction(5, 4), "ric2": Fraction(-2),
                                 "riem2": Fraction(-7, 4), "rfperp2": Fraction(15, 2)}
    # a0/a2 prefactors: trace dimension 2^{p+q} in dimension 2p+q
    hc = interior_coeffs(CurvatureData(r=1, vol=1), 6, 16)
    ok &= hc.a0 == UnitValue(Fraction(1, 4), {"pi": Fraction(-3)})
    ok &= hc.a2 == UnitValue(Fraction(-1, 48), {"pi": Fraction(-3)})
    report("criterion 7", ok,
           "tr E, tr E^2, tr Omega^2 derived symbolically; bracket "
           "(5/4, -2, -7/4, 15/2); a0/a2 prefactors exact")


def test_criterion_8_constants():
    ok_v42 = v_nk(4, 2) == UnitValue(Fraction(1, 4),
                                     {"2": Fraction(1, 2), "pi": Fraction(-1)})
    # the defining-formula member of the odd/odd display chain
    formula_value = v_nk_numeric(5, 1)
    got = v_nk(5, 1).numeric().real
    ok_v51 = abs(got - formula_value) <= 1e-12
    # the final printed member of the same chain disagrees with its own
    # defining member; reported, not asserted
    garbled = math.pi ** 0.9 * 30 ** 0.2 / 20
    print(f"  note: the source display chain for v_5,1 ends in "
          f"{garbled:.6f}, its defining member evaluates to {formula_value:.6f}; "
          f"the engine follows the defining formula")
    lv = lower_volume(4, 2, CurvatureData(r=1, vol=1), 8)
    ok_vol = lv == v_nk(4, 2) * interior_coeffs(CurvatureData(r=1, vol=1), 4, 8).a2
    ok_vol &= lv == UnitValue(Fraction(-1, 96), {"2": Fraction(1, 2), "pi": Fraction(-3)})
    report("criterion 8", ok_v42 and ok_v51 and ok_vol,
           f"v_4,2 = 2^(1/2)/(4 pi) exact; v_5,1 = {got:.6g} matches the "
           f"defining formula to 1e-12; lower-volume composition exact")


def test_criterion_9_warped():
    flat = warped_flat_ok = True
    model1 = RWModel(0.0, 1.0, parse_warp("1"), curv=0.25)
    from wres.warped import warped_geometry
    d = warped_geometry(model1, 0.5)
    warped_flat_ok = all(float(getattr(d, n)) == 0.0 for n in
                         ("L_aa", "R_aNaN", "L2_abab", "r_N"))

    # curvature-operator components against the finite-difference oracle
    import numpy as np
    warp = parse_warp("1+t/10")
    f0, f1, f2, f3 = warp.derivatives(0.0)
    riem = _riemann(lambda t: warp(t), np.array([0.0, 0.3, -0.2, 0.1]))
    fd_ok = True
    for a in (1, 2, 3):
        want = np.zeros(4)
        want[a] = f2 / f0
        fd_ok &= bool(np.allclose(riem[:, 0, 0, a], want, atol=1e-6))
        want2 = np.zeros(4)
        want2[0] = f0 * f2
        fd_ok &= bool(np.allclose(riem[:, a, a, 0], want2, atol=1e-6))

    ad = run_ad_oracle(seed=909, count=100)

    co = rw_spectral_coeffs(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0))
    cons_ok = all(co.diagnostics[f"residual_a{k}"] <=
                  1e-9 * max(1.0, abs(getattr(co, f"a{k}"))) for k in (0, 1, 2))

    frozen_ok = all(co.as_dict()[k] == pytest.approx(v, rel=1e-9)
                    for k, v in FROZEN_EXP_RUN.items())
    vols = rw_lower_volumes(RWModel(0.0, 1.0, parse_warp("exp(t)"), curv=1.0), co)
    frozen_ok &= all(vols[k] == pytest.approx(v, rel=1e-9)
                     for k, v in FROZEN_EXP_VOLUMES.items())
    dual_ok = (co.a4_printed != co.a4_derived
               and vols["vol_top_weighted"] != vols["vol_top_plain"])

    report("criterion 9", warped_flat_ok and fd_ok and ad["pass"] and cons_ok
           and frozen_ok and dual_ok,
           "flat warp zeroes; curvature FD oracle 1e-6; AD vs FD 1e-6 x100; "
           "a0-a2 generic agreement 1e-9; dual readings emitted and frozen")


def test_criterion_10_determinism(tmp_path):
    commands = [
        ["oracle", "--seed", "42", "--count", "30"],
        ["verify-boundary", "--dim", "4", "--powers", "1,1"],
        ["verify-boundary", "--dim", "6", "--powers", "2,2"],
        ["rw", "--f", "exp(t)", "--interval", "0,1", "--curv", "1"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        p1, p2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        ok &= cli_main(argv + ["--json", str(p1)]) == 0
        ok &= cli_main(argv + ["--json", str(p2)]) == 0
        ok &= p1.read_bytes() == p2.read_bytes()
    report("criterion 10", ok, "fixed-seed CLI runs produce byte-identical JSON")

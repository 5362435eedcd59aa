"""Boundary-term tables: case enumeration, per-case closed forms, totals, the
leftover-term functionals, and the trace-path swap oracle."""

import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wres.boundary import (
    CaseIndex,
    Scenario,
    enumerate_cases,
    eval_case,
    get_scenario,
    integrate_over_boundary,
    phi_total,
    registered_scenarios,
    res_partial,
)
from wres.clifford import AlgebraSignature, MatrixRep
from wres.symbolic import GaussianRational, RationalXi, UnitValue, sphere_integrate
from wres.symbols import spin_model

from references import reduce_unit_norm


def test_enumeration_counts():
    assert len(enumerate_cases(4, 1, 1)) == 5
    assert len(enumerate_cases(6, 2, 2)) == 5
    assert len(enumerate_cases(5, 2, 1)) == 5
    cases3 = enumerate_cases(3, 1, 1)
    assert cases3 == [CaseIndex(r=-1, l=-1, k=0, j=0, alpha=0)]
    assert enumerate_cases(5, 2, 2) == [CaseIndex(r=-2, l=-2, k=0, j=0, alpha=0)]
    assert enumerate_cases(4, 2, 1) == [CaseIndex(r=-2, l=-1, k=0, j=0, alpha=0)]


def test_enumeration_constraint():
    for (n, p1, p2) in ((4, 1, 1), (6, 2, 2), (5, 2, 1)):
        for c in enumerate_cases(n, p1, p2):
            assert (c.k + c.j + c.alpha - c.r - c.l == n - 1
                    and c.r <= -p1 and c.l <= -p2
                    and min(c.k, c.j, c.alpha) >= 0)


def test_dim4_table():
    report = phi_total(get_scenario(4, 1, 1))
    values = {label: v for label, _, v in report.cases}
    unit = {"pi": Fraction(1), "h'(0)": Fraction(1), "Omega3": Fraction(1),
            "dx'": Fraction(1)}
    assert values["aI"].is_zero()
    assert values["aII"] == UnitValue(Fraction(-3, 4), unit)
    assert values["aIII"] == UnitValue(Fraction(3, 4), unit)
    assert values["b"] == UnitValue(Fraction(3, 4), unit)
    assert values["c"] == UnitValue(Fraction(-3, 4), unit)
    assert report.total.is_zero()
    assert report.all_pass


def test_dim6_table():
    report = phi_total(get_scenario(6, 2, 2))
    values = {label: v for label, _, v in report.cases}
    unit = {"pi": Fraction(1), "h'(0)": Fraction(1), "Omega4": Fraction(1),
            "dx'": Fraction(1), "l~2^q": Fraction(1)}
    assert values["aII"] == UnitValue(Fraction(-5, 64), unit)
    assert values["aIII"] == UnitValue(Fraction(5, 64), unit)
    assert values["b"] == UnitValue(Fraction(-15, 64), unit)
    assert values["c"] == UnitValue(Fraction(15, 64), unit)
    # the cancellation pairs of the table
    assert (values["aII"] + values["aIII"]).is_zero()
    assert (values["b"] + values["c"]).is_zero()
    assert report.total.is_zero()


def test_dim3_total():
    report = phi_total(get_scenario(3, 1, 1))
    assert report.total_over_boundary == UnitValue(
        GaussianRational(0, 2), {"pi": Fraction(2), "Vol_dM": Fraction(1)})


def test_dim5_22_total():
    report = phi_total(get_scenario(5, 2, 2))
    assert report.total_over_boundary == UnitValue(
        GaussianRational(0, Fraction(1, 8)),
        {"pi": Fraction(1), "Omega3": Fraction(1), "l~2^q": Fraction(1),
         "Vol_dM": Fraction(1)})


def test_vanishing_scenarios():
    for key in ((5, 2, 1), (4, 2, 1)):
        report = phi_total(get_scenario(*key))
        assert report.total.is_zero()
        for _, _, v in report.cases:
            assert v.is_zero()


def test_all_scenarios_pass_their_checks():
    for key in registered_scenarios():
        assert phi_total(get_scenario(*key)).all_pass


FOLIATION_KEYS = [(4, 1, 1), (6, 2, 2), (5, 2, 2)]


@pytest.mark.parametrize("key", FOLIATION_KEYS, ids=lambda key: "dim{}-powers{}{}".format(*key))
def test_every_signature_checks_the_values_per_unit_trace(key):
    # each signature (p, q) of the key's dimension passes the registered
    # checks rescaled to its trace dimension; independently of that
    # rescaling, each case value per unit trace (over its scenario's factor,
    # T pi dx' times the cosphere measure) is the spin model's
    n = key[0]
    spin = copy.copy(get_scenario(*key))
    spin.model = spin_model(n)
    per_trace = {spin.labels[c]: eval_case(spin, c) / spin.factor for c in spin.cases()}
    for q in range(1, n + 1):
        scenario = get_scenario(*key, p=n - q, q=q)
        assert scenario.name.endswith(f"-sig{n - q}.{q}")
        report = phi_total(scenario)
        assert report.all_pass, [c for c in report.checks if not c["pass"]]
        assert len(report.checks) == len(scenario.expected_cases) + 1
        assert {label: v / scenario.factor for label, _, v in report.cases} == per_trace


# rows whose integer T disagrees with their algebra, left open until T is
# decided: (3,1,1) takes T = 4 on spin_model(3), whose spinor modules have
# dimension 2^floor(3/2) = 2 (CHANGES.md FOUND)
OPEN_TRACE_DIMS = {(3, 1, 1)}


def test_integer_trace_dimensions_match_their_algebras():
    # a foliation row's T is its signature's dim S(F) * 2^q, a spin row's the
    # spinor dimension 2^floor(n/2); T = None is the unit l~2^q
    from wres.boundary import _table

    checked, disagree = 0, set()
    for key, (_, model, total_dim, *_) in _table().items():
        if total_dim is None:
            continue
        families = model().algebra.families
        if len(families) == 1:
            expected = 2 ** (key[0] // 2)
        else:
            (_, p, _), (_, q, _), _ = families
            expected = AlgebraSignature(p, q).total_dim
        checked += 1
        if total_dim != expected:
            disagree.add(key)
    assert checked >= 4
    assert disagree == OPEN_TRACE_DIMS


def test_normal_derivative_dependence():
    # dims 4 and 6: every nonzero case value is proportional to h'(0);
    # the odd-dimensional totals carry no h'(0) at all
    for key in ((4, 1, 1), (6, 2, 2)):
        for _, _, v in phi_total(get_scenario(*key)).cases:
            if not v.is_zero():
                assert v.powers.get("h'(0)") == 1
    for key in ((3, 1, 1), (5, 2, 2)):
        total = phi_total(get_scenario(*key)).total
        assert "h'(0)" not in total.powers


def test_res_partials():
    expected_raw = {
        "res11": UnitValue(Fraction(-3, 4), {"pi": 1, "h'(0)": 1, "Omega3": 1, "Vol_dM": 1}),
        "res21": UnitValue(Fraction(3, 4), {"pi": 1, "h'(0)": 1, "Omega3": 1, "Vol_dM": 1}),
    }
    for kind in ("res11", "res21", "res22", "res23", "res21_51", "res22_51"):
        r = res_partial(kind)
        assert r.passes, f"{kind}: {r.igrb_multiple} != {r.expected}"
        if kind in expected_raw:
            assert r.raw == expected_raw[kind]
    with pytest.raises(KeyError):
        res_partial("res99")


def test_unknown_scenario():
    with pytest.raises(KeyError):
        get_scenario(9, 1, 1)


def test_expected_case_must_name_a_case_label():
    # an expected case under a label that no case carries would never be
    # checked: the scenario would pass whatever its value
    scenario = get_scenario(4, 1, 1)
    expected_cases = dict(scenario.expected_cases, AII=(UnitValue(99), "typo"))
    with pytest.raises(ValueError, match="dim4-powers11 has no case labelled 'AII'"):
        Scenario(key=(4, 1, 1), b=(-2, -1), model=scenario.model, total_dim=8,
                 sphere_unit="Omega3", expected_cases=expected_cases,
                 expected_total=scenario.expected_total, igrb=scenario.igrb)


# counts, in a fresh process, the scenarios and the symbol jets that the six
# leftover-term functionals build
RES_PARTIAL_BUILDS = """
import json
from collections import Counter
from wres import boundary, symbols

scenarios, jets = Counter(), Counter()
init = boundary.Scenario.__init__


def counted_init(self, key, *args, **kwargs):
    scenarios[repr(key)] += 1
    init(self, key, *args, **kwargs)


def counted(key, build):
    def counted_build(model):
        jets[repr((model.n, *key))] += 1
        return build(model)
    return counted_build


boundary.Scenario.__init__ = counted_init
for key, build in list(symbols._BUILDERS.items()):
    symbols._BUILDERS[key] = counted(key, build)
for kind in boundary.RES_KINDS:
    boundary.res_partial(kind)
print(json.dumps({"scenarios": scenarios, "jets": jets}))
"""


def test_res_partial_kinds_share_their_scenarios():
    # the six kinds read three scenarios, each built once, and each model
    # builds a symbol jet once per (power, order)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", RES_PARTIAL_BUILDS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    builds = json.loads(proc.stdout)
    assert builds["scenarios"] == {"(4, 1, 1)": 1, "(6, 2, 2)": 1, "(5, 2, 1)": 1}
    assert sum(builds["jets"].values()) == 7, builds["jets"]
    assert set(builds["jets"].values()) == {1}, builds["jets"]


def _eval_case_with_matrix_trace(scenario, case) -> UnitValue:
    """Trace-path swap: word traces through the Jordan-Wigner matrix oracle,
    reduced modulo the cosphere constraint before the sphere integral, times
    the trace dimension, pi, dx' and the cosphere measure of the scenario's
    registry row."""
    from wres.boundary import case_prefactor, _poly_to_unitvalue, _table, U_PI, U_DX
    from wres.symbolic import sphere_measure
    from wres.symbols import symbol_jet

    model = scenario.model
    p1, p2 = scenario.powers
    if case.alpha > 0:
        return UnitValue.zero()
    f1 = symbol_jet(model, p1, case.r).component(case.j).pi_plus().dxi(case.k)
    f2 = symbol_jet(model, p2, case.l).component(case.k).dxi(case.j + 1)

    rep = MatrixRep(model.algebra)
    alg = model.algebra
    acc = RationalXi.zero()
    dim = GaussianRational(rep.dim)
    for w1, c1 in f1.terms.items():
        for w2, c2 in f2.terms.items():
            tr = rep.normalized_trace(rep.word_matrix(w1 + w2))
            if not tr.is_zero():
                acc = acc + c1 * c2 * tr
    acc = acc.map_coeffs(lambda p: reduce_unit_norm(model.reduce_coeff(p), model.coords))
    moments = acc.map_coeffs(lambda p: sphere_integrate(p, model.coords, model.n - 1))
    poly = model.reduce_coeff(moments.integrate_pi_coefficient())
    value = _poly_to_unitvalue(poly * case_prefactor(case, scenario.n))
    if value.is_zero():
        return value
    _, _, total_dim, sphere_unit, *_ = _table()[(scenario.n, *scenario.powers)]
    if total_dim is None:
        value = value * UnitValue.unit("l~2^q")
    else:
        value = value * total_dim
    value = value * UnitValue.unit(U_PI) * UnitValue.unit(U_DX)
    if sphere_unit is None:
        value = value * sphere_measure(model.n - 1)
    else:
        value = value * UnitValue.unit(sphere_unit)
    return value


def test_trace_path_swap_every_scenario():
    # the matrix-oracle trace path reproduces every case value exactly
    for key in registered_scenarios():
        scenario = get_scenario(*key)
        for case in scenario.cases():
            assert _eval_case_with_matrix_trace(scenario, case) == \
                eval_case(scenario, case)


def test_integrate_over_boundary_substitution():
    v = UnitValue(Fraction(1, 2), {"dx'": Fraction(1), "pi": Fraction(1)})
    assert integrate_over_boundary(v) == UnitValue(
        Fraction(1, 2), {"Vol_dM": Fraction(1), "pi": Fraction(1)})


def test_normal_coordinate_contract_is_load_bearing():
    # with the contract substitutions disabled, the curvature-piece case no
    # longer reduces to a pure closed form: connection placeholders leak
    from wres.boundary import PlaceholderLeak
    from wres.symbols import foliation_model

    scenario = get_scenario(4, 1, 1)
    broken_model = foliation_model(2, 2)
    broken_model._subs = {}
    broken = copy.copy(scenario)
    broken.model = broken_model
    case_b = next(c for c in scenario.cases() if scenario.labels[c] == "b")
    with pytest.raises(PlaceholderLeak):
        eval_case(broken, case_b)


def test_case_values_admit_only_h1():
    # traces are per unit trace, so a formal trace dimension inside a reduced
    # coefficient is a leak like any placeholder; it enters as a factor
    from wres.boundary import PlaceholderLeak, _poly_to_unitvalue
    from wres.symbolic import ScalarPoly

    assert _poly_to_unitvalue(ScalarPoly.symbol("h'(0)") * 3) == UnitValue(3, {"h'(0)": 1})
    with pytest.raises(PlaceholderLeak, match=re.escape("symbol 'l~2^q' survived")):
        _poly_to_unitvalue(ScalarPoly.symbol("l~2^q"))


def test_heat_and_boundary_share_the_trace_dimension_unit():
    # T = None is the unit l~2^q in both modules, with exponent 1; an integer
    # T is that number
    from wres.heat import CurvatureData, interior_coeffs

    heat = interior_coeffs(CurvatureData(r=1), 6)
    assert heat.a0.powers["l~2^q"] == heat.a2.powers["l~2^q"] == 1
    scenario = get_scenario(6, 2, 2)
    case = next(c for c in scenario.cases() if scenario.labels[c] == "aII")
    assert eval_case(scenario, case).powers["l~2^q"] == 1
    assert phi_total(scenario).total.is_zero()
    assert UnitValue.trace_dim(None) == UnitValue.unit("l~2^q")
    assert UnitValue.trace_dim(8) == 8

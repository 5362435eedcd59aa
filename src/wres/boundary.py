"""Boundary correction term: case enumeration, exact per-case evaluation,
totals, and the leftover-term functionals with their Einstein-Hilbert
boundary identifications.

Each registered scenario pins the data the trace tables depend on
(signature, trace dimension, cosphere-measure label) together with the
expected closed forms used by the regression and acceptance suites; the
integrand prefactor follows from the dimension's parity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial

from .clifford import AlgebraSignature
from .symbolic import (
    GR_I,
    U_H1,
    U_PI,
    U_TDIM,
    GaussianRational,
    ScalarPoly,
    UnitValue,
    sphere_integrate,
    sphere_measure,
)
from .symbols import BoundaryModel, foliation_model, spin_model, symbol_jet, trace_product

# unit names used in boundary values, besides symbolic's U_PI, U_TDIM and U_H1
U_VOL = "Vol_dM"
U_DX = "dx'"
U_IGRB = "I_Gr,b"


class CaseIndex(namedtuple("CaseIndex", "r l k j alpha")):
    """One term of the boundary sum: symbol orders (r, l) and derivative
    counts (k in xi_n, j in x_n, alpha tangential)."""

    __slots__ = ()


def enumerate_cases(n: int, p1: int, p2: int) -> list[CaseIndex]:
    """All index cases of the boundary sum for the given dimension and powers.

    The constraint is k + j + |alpha| - r - l = n - 1 with r <= -p1, l <= -p2.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    out = []
    budget = n - 1 - p1 - p2  # total extra weight to distribute
    if budget < 0:
        return out
    for dr in range(budget + 1):
        for dl in range(budget - dr + 1):
            deriv = budget - dr - dl
            r, l = -p1 - dr, -p2 - dl
            for k in range(deriv + 1):
                for j in range(deriv - k + 1):
                    alpha = deriv - k - j
                    out.append(CaseIndex(r, l, k, j, alpha))
    out.sort(key=lambda c: (-c.r, -c.l, c.alpha, c.j, c.k))
    return out


def case_prefactor(case: CaseIndex, n: int) -> GaussianRational:
    """(-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!) in even dimension n; odd
    dimensions take the bare integral instead."""
    if n % 2:
        return GaussianRational(1)
    num = (-GR_I) ** (case.alpha + case.j + case.k + 1)
    return num * Fraction(1, factorial(case.alpha) * factorial(case.j + case.k + 1))


class Scenario:
    """A registered boundary computation with its expected closed forms.

    The registry key (n, p1, p2) gives the name, the dimension and the powers.
    The case labels are aI/aII/aIII for the leading orders (r, l) = (-p1, -p2)
    (tangential, x_n- and xi_n-derivative), b for the orders ``b`` and c for
    the rest; a scenario with ``b`` None has one case, "main".  Each expected
    case must name a label that some case carries, and every scenario
    expects a total.  ``get_scenario`` builds each scenario, and names one
    run on a requested signature with a ``-sig{p}.{q}`` suffix.
    """

    def __init__(self, key: tuple[int, int, int], b: tuple[int, int] | None,
                 model: BoundaryModel, sphere_unit: str | None,
                 expected_cases: dict[str, tuple[UnitValue, str]],
                 expected_total: UnitValue, igrb: UnitValue | None):
        n, p1, p2 = key
        self.name = f"dim{n}-powers{p1}{p2}"
        if model.n != n:
            raise ValueError(f"scenario {self.name} has a model of dimension {model.n}")
        self.n, self.powers, self.model = n, (p1, p2), model
        self.sphere_unit = sphere_unit  # opaque measure label, or None to expand in pi
        self.labels = {}
        for c in self.cases():
            if b is None:
                self.labels[c] = "main"
            elif (c.r, c.l) == (-p1, -p2):
                self.labels[c] = "aI" if c.alpha == 1 else ("aII" if c.j else "aIII")
            else:
                self.labels[c] = "b" if (c.r, c.l) == b else "c"
        unknown = sorted(set(expected_cases) - set(self.labels.values()))
        if unknown:
            raise ValueError(f"scenario {self.name} has no case labelled "
                             + ", ".join(map(repr, unknown)))
        self.expected_cases = expected_cases
        self.expected_total = expected_total  # integrated over the boundary: dx' -> Vol
        self.igrb = igrb  # I_Gr,b in h'(0) Vol units

    def cases(self) -> list[CaseIndex]:
        return enumerate_cases(self.n, *self.powers)


class PlaceholderLeak(RuntimeError):
    """A connection placeholder survived to a final value."""


def _poly_to_unitvalue(poly: ScalarPoly) -> UnitValue:
    """Convert a reduced coefficient polynomial (in h'(0) and the formal trace
    dimension only) to an exact UnitValue."""
    if poly.is_zero():
        return UnitValue.zero()
    if len(poly.terms) != 1:
        raise PlaceholderLeak(f"non-monomial case value: {poly!r}")
    (mono, coeff), = poly.terms.items()
    for name, _ in mono:
        if name not in (U_H1, U_TDIM):
            raise PlaceholderLeak(f"symbol {name!r} survived to a final value")
    return UnitValue(coeff, dict(mono))


def eval_case(scenario: Scenario, case: CaseIndex) -> UnitValue:
    """Exact value of one boundary case: trace, cosphere moment, conormal
    line integral, prefactor, carried as coefficient times unit word.

    The cosphere integral itself imposes |xi'| = 1, so the trace
    coefficients are integrated as they come, and the normal-coordinate
    contract is applied once to each integrated coefficient."""
    model = scenario.model
    p1, p2 = scenario.powers
    if case.alpha > 0:
        # tangential x'-derivatives of every symbol vanish at the base point
        return UnitValue.zero()

    f1 = symbol_jet(model, p1, case.r).component(case.j).pi_plus().dxi(case.k)
    f2 = symbol_jet(model, p2, case.l).component(case.k).dxi(case.j + 1)

    tr = trace_product(f1, f2, model.total_dim)
    m = model.n - 1  # cosphere lives in R^{n-1}
    moments = tr.map_coeffs(lambda p: model.reduce_coeff(sphere_integrate(p, model.coords, m)))
    pi_coeff = moments.integrate_pi_coefficient()
    value = _poly_to_unitvalue(pi_coeff * case_prefactor(case, scenario.n))
    if value.is_zero():
        return value
    value = value * UnitValue.unit(U_PI) * UnitValue.unit(U_DX)
    if scenario.sphere_unit is None:
        value = value * sphere_measure(m)
    else:
        value = value * UnitValue.unit(scenario.sphere_unit)
    return value


class BoundaryReport:
    def __init__(self, cases: list[tuple[str, CaseIndex, UnitValue]], total: UnitValue,
                 total_over_boundary: UnitValue, checks: list[dict]):
        self.cases = cases
        self.total = total
        self.total_over_boundary = total_over_boundary
        self.checks = checks  # {"name", "expected", "got", "pass"}, as reports print them

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)


def integrate_over_boundary(v: UnitValue) -> UnitValue:
    """Flat-boundary integration: the density unit dx' becomes Vol_dM."""
    return v.substitute(U_DX, UnitValue.unit(U_VOL))


def phi_total(scenario: Scenario) -> BoundaryReport:
    """Evaluate every case, sum them, and run the scenario's expected checks."""
    cases = []
    total = UnitValue.zero()
    for case in scenario.cases():
        value = eval_case(scenario, case)
        cases.append((scenario.labels[case], case, value))
        total = total + value
    over_boundary = integrate_over_boundary(total)
    checks = []
    for label, _, value in cases:
        if label in scenario.expected_cases:
            expected, note = scenario.expected_cases[label]
            checks.append((f"case {label} [{note}]", expected, value))
    checks.append(("total", scenario.expected_total, over_boundary))
    return BoundaryReport(cases, total, over_boundary, [
        {"name": name, "expected": repr(expected), "got": repr(got), "pass": got == expected}
        for name, expected, got in checks])


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

@cache
def _table() -> dict:
    """The registered scenarios in report order, keyed by (n, p1, p2): b
    orders, model (built with its scenario), cosphere label, expected cases,
    expected total and I_Gr,b in h'(0) Vol units.  Built at the first lookup."""
    zero, tdim = UnitValue.zero(), ScalarPoly.symbol(U_TDIM)

    def paper(n, unit, *values):
        # the vanishing aI, then aII, aIII, b and c of the paper's dim-n table
        return {"aI": (zero, "tangential derivatives vanish at the base point"),
                **{label: (UnitValue(v, unit), f"dim-{n} table")
                   for label, v in zip(("aII", "aIII", "b", "c"), values)}}

    def odd(*labels):
        return {label: (zero, "odd traces vanish") for label in labels}

    return {
        (4, 1, 1): ((-2, -1), lambda: foliation_model(2, 2, 8), "Omega3",
                    paper(4, {U_PI: 1, U_H1: 1, "Omega3": 1, U_DX: 1},
                          *(Fraction(k, 4) for k in (-3, 3, 3, -3))),
                    zero, UnitValue(-3, {U_H1: 1, U_VOL: 1})),
        (6, 2, 2): ((-2, -3), lambda: foliation_model(2, 4, tdim), "Omega4",
                    paper(6, {U_TDIM: 1, U_PI: 1, U_H1: 1, "Omega4": 1, U_DX: 1},
                          *(Fraction(k, 64) for k in (-5, 5, -15, 15))),
                    zero, UnitValue(-5, {U_PI: 1, U_H1: 1, U_VOL: 1})),
        # no cosphere label: the circle measure expands to a pure pi power
        (3, 1, 1): (None, lambda: spin_model(3, 4), None, {},
                    UnitValue(GaussianRational(0, 2), {U_PI: 2, U_VOL: 1}), None),
        (5, 2, 2): (None, lambda: foliation_model(1, 4, tdim), "Omega3", {},
                    UnitValue(GaussianRational(0, Fraction(1, 8)),
                              {U_PI: 1, U_TDIM: 1, "Omega3": 1, U_VOL: 1}), None),
        (5, 2, 1): ((-2, -2), lambda: spin_model(5, 4), "Omega3",
                    odd("aI", "aII", "aIII", "b", "c"), zero, UnitValue(-4, {U_H1: 1, U_VOL: 1})),
        (4, 2, 1): (None, lambda: spin_model(4, 4), "Omega3", odd("main"), zero, None),
    }


@cache
def _registered(key: tuple[int, int, int]) -> Scenario:
    b, model, sphere_unit, expected_cases, expected_total, igrb = _table()[key]
    return Scenario(key, b, model(), sphere_unit, expected_cases, expected_total, igrb)


def get_scenario(n: int, p1: int, p2: int, p: int | None = None,
                 q: int | None = None) -> Scenario:
    """The registered scenario (n, p1, p2), built once, or, when p or q is
    given, its cases on the foliation model of signature (p, q), a missing
    one the registered model's.  Then the row's expected values are rescaled
    per unit trace: divided by its trace dimension, times the new integer one."""
    key = (n, p1, p2)
    if key not in _table():
        raise KeyError(f"unregistered scenario: dim {n}, powers ({p1},{p2})")
    registered = _registered(key)
    if p is None and q is None:
        return registered
    if len(registered.model.algebra.families) == 1:
        raise ValueError("signature override not supported for this scenario")
    (_, p0, _), (_, q0, _), _ = registered.model.algebra.families
    p, q = p0 if p is None else p, q0 if q is None else q
    if p < 0 or q < 1:
        raise ValueError(f"signature ({p},{q}) needs p >= 0 and q >= 1")
    if p + q != n:
        raise ValueError(f"signature ({p},{q}) does not match dimension {n}")
    tdim = AlgebraSignature(p, q).total_dim
    scale = UnitValue(tdim) / _poly_to_unitvalue(ScalarPoly.one() * registered.model.total_dim)
    b, _, sphere_unit, expected_cases, expected_total, igrb = _table()[key]
    scenario = Scenario(key, b, foliation_model(p, q, tdim), sphere_unit,
                        {label: (v * scale, note) for label, (v, note) in expected_cases.items()},
                        expected_total * scale, igrb)
    scenario.name += f"-sig{p}.{q}"
    return scenario


def registered_scenarios() -> list[tuple[int, int, int]]:
    return list(_table())


# ---------------------------------------------------------------------------
# Leftover-term functionals
# ---------------------------------------------------------------------------

RES_KINDS = {
    # kind -> (scenario key, case label); the expected multiple of I_Gr,b is
    # the scenario's expected value for that case
    "res11": ((4, 1, 1), "aII"),
    "res21": ((4, 1, 1), "b"),
    "res22": ((6, 2, 2), "aII"),
    "res23": ((6, 2, 2), "b"),
    "res21_51": ((5, 2, 1), "aII"),
    "res22_51": ((5, 2, 1), "b"),
}


class ResPartial:
    def __init__(self, raw: UnitValue, igrb_multiple: UnitValue, expected: UnitValue):
        self.raw = raw                      # exact value integrated over the boundary
        self.igrb_multiple = igrb_multiple  # the same value expressed through I_Gr,b
        self.expected = expected

    @property
    def passes(self) -> bool:
        return self.igrb_multiple == self.expected


def _igrb_multiple(scenario: Scenario, value: UnitValue) -> UnitValue:
    """A value integrated over the boundary, expressed through I_Gr,b."""
    if value.is_zero():
        return UnitValue.zero()
    if scenario.igrb is None:
        raise ValueError(f"scenario {scenario.name} carries no boundary-action data")
    return (value / scenario.igrb) * UnitValue.unit(U_IGRB)


def res_partial(kind: str) -> ResPartial:
    """Evaluate a leftover-term functional; express it and its case's expected
    value through the Einstein-Hilbert boundary term of its scenario."""
    if kind not in RES_KINDS:
        raise KeyError(f"unknown res-partial kind {kind!r}")
    key, label = RES_KINDS[kind]
    scenario = get_scenario(*key)
    case = next(c for c in scenario.cases() if scenario.labels[c] == label)
    raw = integrate_over_boundary(eval_case(scenario, case))
    expected = integrate_over_boundary(scenario.expected_cases[label][0])
    return ResPartial(raw, _igrb_multiple(scenario, raw), _igrb_multiple(scenario, expected))

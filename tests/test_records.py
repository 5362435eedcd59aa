"""The contracts of wres's record types: the two hashable index records
compare, hash and print as their field tuples, and case indices also sort so;
curvature data is kept as exact rationals; and every record constructor
rejects an unknown keyword."""

from fractions import Fraction

import pytest

from wres.boundary import (
    BoundaryReport,
    CaseIndex,
    ResPartial,
    Scenario,
    enumerate_cases,
    get_scenario,
)
from wres.clifford import AlgebraSignature
from wres.heat import CurvatureData, HeatCoeffs
from wres.symbolic import UnitValue
from wres.symbols import BoundaryModel, foliation_model
from wres.warped import RWCoeffs, RWModel, WarpFunction, parse_warp


def test_case_index_compares_sorts_hashes_and_prints_as_its_fields():
    case = CaseIndex(r=-1, l=-1, k=0, j=0, alpha=0)
    assert case == CaseIndex(-1, -1, 0, 0, 0)
    assert case != CaseIndex(-1, -1, 0, 0, 1)
    assert hash(case) == hash((-1, -1, 0, 0, 0))
    assert repr(case) == "CaseIndex(r=-1, l=-1, k=0, j=0, alpha=0)"
    cases = enumerate_cases(6, 1, 1)
    fields = [(c.r, c.l, c.k, c.j, c.alpha) for c in cases]
    assert [(c.r, c.l, c.k, c.j, c.alpha) for c in sorted(cases)] == sorted(fields)
    assert sorted([CaseIndex(0, 0, 1, 0, 0), CaseIndex(-1, 0, 0, 0, 0),
                   CaseIndex(0, -1, 0, 0, 2), CaseIndex(0, -1, 0, 0, 1)]) == [
        CaseIndex(-1, 0, 0, 0, 0), CaseIndex(0, -1, 0, 0, 1),
        CaseIndex(0, -1, 0, 0, 2), CaseIndex(0, 0, 1, 0, 0)]


def test_algebra_signature_compares_hashes_and_prints_as_its_fields():
    sig = AlgebraSignature(p=2, q=3)
    assert sig == AlgebraSignature(2, 3) and sig != AlgebraSignature(3, 2)
    assert hash(sig) == hash((2, 3))
    assert repr(sig) == "AlgebraSignature(p=2, q=3)"
    assert (sig.leaf_dim, sig.total_dim) == (2, 16)


def test_curvature_data_keeps_exact_rationals():
    data = CurvatureData(2, 0.5, r=3, r2=0.1, L_aa=Fraction(1, 3))
    assert (data.vol, data.bvol, data.r, data.r2, data.L_aa) == (
        Fraction(2), Fraction(1, 2), Fraction(3), Fraction(0.1), Fraction(1, 3))
    assert all(type(v) is Fraction for v in (data.vol, data.bvol, data.r, data.r2,
                                             data.L_aa, data.riem2, data.r_N))
    assert data.r_bd is None and data.boundary_r == 3
    bd = CurvatureData(r=1, r_bd=2.25)
    assert type(bd.r_bd) is Fraction and bd.boundary_r == Fraction(9, 4)
    assert CurvatureData(r=1, vol=0.25).vol == Fraction(1, 4)
    with pytest.raises(TypeError) as exc:
        CurvatureData(zz=1, r=1, nope=2)
    assert exc.value.args[0] == "unknown curvature keys: ['nope', 'zz']"


def _model_kwargs():
    return dict(algebra=foliation_model(2, 2, 8).algebra, total_dim=8)


def _scenario_kwargs():
    scenario = get_scenario(3, 1, 1)
    return dict(key=(3, 1, 1), b=None, model=scenario.model,
                sphere_unit=scenario.sphere_unit,
                expected_cases=scenario.expected_cases,
                expected_total=scenario.expected_total, igrb=scenario.igrb)


ZERO = UnitValue.zero()
RECORDS = [
    (CaseIndex, lambda: dict(r=-1, l=-1, k=0, j=0, alpha=0)),
    (AlgebraSignature, lambda: dict(p=2, q=2)),
    (Scenario, _scenario_kwargs),
    (BoundaryReport, lambda: dict(cases=[], total=ZERO, total_over_boundary=ZERO, checks=[])),
    (ResPartial, lambda: dict(raw=ZERO, igrb_multiple=ZERO, expected=ZERO)),
    (BoundaryModel, _model_kwargs),
    (CurvatureData, lambda: dict(r=1)),
    (HeatCoeffs, lambda: dict(a0=ZERO, a1=ZERO, a2=ZERO, a3=ZERO, a4=ZERO)),
    (WarpFunction, lambda: dict(ast=parse_warp("t").ast)),
    (RWModel, lambda: dict(a=0.0, b=1.0, warp=parse_warp("1"))),
    (RWCoeffs, lambda: dict(a0=0.0, a1=0.0, a2=0.0, a3=0.0, a4_interior=0.0,
                            a4_printed=0.0, a4_derived=0.0, diagnostics={},
                            vol=1.0, r_int=0.0)),
]


# constructor inputs that a record keeps only in derived form: a scenario's
# key and b orders become its name, n, powers and labels
DERIVED = {Scenario: {"key", "b"}}


def test_scenario_model_has_the_key_dimension():
    # the key fixes the dimension of the cases and the model that of the
    # cosphere: a dimension-5 model under a dimension-4 key would mix the two
    kwargs = dict(_scenario_kwargs(), key=(4, 1, 1), b=(-2, -1),
                  model=foliation_model(2, 3, 8))
    with pytest.raises(ValueError, match="dim4-powers11 has a model of dimension 5"):
        Scenario(**kwargs)


@pytest.mark.parametrize("cls,kwargs", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_constructors_reject_unknown_keywords(cls, kwargs):
    kwargs = kwargs()
    record = cls(**kwargs)
    for name, value in kwargs.items():
        if name in DERIVED.get(cls, ()):
            continue
        assert getattr(record, name) is value or getattr(record, name) == value, name
    with pytest.raises(TypeError, match="bogus"):
        cls(**kwargs, bogus=1)

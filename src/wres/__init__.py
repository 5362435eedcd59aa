"""Exact noncommutative-residue calculus for sub-Dirac operators on foliations:
Clifford traces, half-plane residue integrals, boundary-term tables, heat
coefficients, and warped-product spectral actions.

Importing the package loads none of its modules: each name below is imported
from its module at first use (PEP 562), so ``wres verify-boundary`` never
loads the heat or warped code.
"""

__version__ = "0.1.0"

_SOURCES = {
    "boundary": ("enumerate_cases", "eval_case", "get_scenario", "phi_total", "res_partial"),
    "clifford": ("AlgebraSignature", "CliffordElement", "matrix_rep", "sub_dirac_algebra"),
    "heat": ("CurvatureData", "HeatCoeffs", "boundary_coeffs", "interior_coeffs",
             "lichnerowicz_E", "lower_volume", "spectral_moments", "v_nk", "wres_power"),
    "symbolic": ("GaussianRational", "RationalXi", "ScalarPoly", "UnitValue",
                 "integrate_line", "sphere_moment"),
    "warped": ("RWModel", "parse_warp", "rw_lower_volumes", "rw_spectral_coeffs"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

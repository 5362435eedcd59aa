"""Exact noncommutative-residue calculus for sub-Dirac operators on foliations:
Clifford traces, half-plane residue integrals, boundary-term tables, heat
coefficients, and warped-product spectral actions."""

from .boundary import enumerate_cases, eval_case, get_scenario, phi_total, res_partial
from .clifford import AlgebraSignature, CliffordElement, matrix_rep, sub_dirac_algebra
from .heat import (
    CurvatureData,
    HeatCoeffs,
    boundary_coeffs,
    interior_coeffs,
    lichnerowicz_E,
    lower_volume,
    spectral_moments,
    v_nk,
    wres_power,
)
from .symbolic import GaussianRational, RationalXi, ScalarPoly, UnitValue, integrate_line, sphere_moment
from .warped import RWModel, parse_warp, rw_lower_volumes, rw_spectral_coeffs

__version__ = "0.1.0"

__all__ = [
    "AlgebraSignature", "CliffordElement", "CurvatureData", "GaussianRational",
    "HeatCoeffs", "RWModel", "RationalXi", "ScalarPoly", "UnitValue",
    "boundary_coeffs", "enumerate_cases", "eval_case", "get_scenario",
    "integrate_line", "interior_coeffs", "lichnerowicz_E", "lower_volume",
    "matrix_rep", "parse_warp", "phi_total", "res_partial", "rw_lower_volumes",
    "rw_spectral_coeffs", "spectral_moments", "sphere_moment",
    "sub_dirac_algebra", "v_nk", "wres_power",
]

"""Heat-trace coefficients for the square of the sub-Dirac operator, the
curvature endomorphism derived from the Lichnerowicz identity, lower-volume
constants, and spectral-action moments.

Every coefficient comes from one table of the general Laplace-type heat
coefficients (``_GENERAL``) composed with the Lichnerowicz trace identities
(``_TRACES``, which ``tests/references.py`` derives symbolically) into
``SPINOR``; one assembler, ``_assemble``, turns the entries of either table
into coefficients.  The one hand-typed deviation is the paper's printed a4
boundary reading, -51 r_{;N} where the table gives +12; both are reported.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Callable

from .clifford import AlgebraSignature, CliffordElement, normalize, sub_dirac_algebra
from .symbolic import (
    U_PI,
    ScalarPoly,
    UnitValue,
    antisymmetric_symbol,
    gamma_exact,
)

R_M = "r_M"  # scalar curvature placeholder


# ---------------------------------------------------------------------------
# Curvature endomorphism from the Lichnerowicz identity
# ---------------------------------------------------------------------------

def _r1(i, r, s, t):  # <R(f_i, h_r) h_t, h_s>, antisymmetric in (s, t)
    return antisymmetric_symbol(f"R1_{i}_{r}", t, s)


def _r_pair(prefix, a, b, s, t):
    """<R(e_a, e_b) h_t, h_s> for a same-family pair: prefix R2 for (f_a, f_b),
    R3 for (h_a, h_b); antisymmetric in (a, b) and in (s, t)."""
    if a == b:
        return ScalarPoly.zero()
    sym = antisymmetric_symbol(f"{prefix}_{min(a, b)}_{max(a, b)}", t, s)
    return sym if a < b else -sym


def _rfperp_components(p: int, q: int):
    """Each component of R^{F-perp} in the placeholders, as (its Clifford
    generators, its placeholder, its weight in -E): R1 = <R(f_i, h_r) h_t, h_s>,
    then R2 for the pairs (f_i, f_j) and R3 for the pairs (h_r, h_l)."""
    for i, r, s, t in product(range(p), range(q), range(q), range(q)):
        yield ((0, i), (1, r), (2, s), (2, t)), _r1(i, r, s, t), Fraction(1, 4)
    for family, prefix, count in ((0, "R2", p), (1, "R3", q)):
        for a, b, s, t in product(range(count), range(count), range(q), range(q)):
            yield (((family, a), (family, b), (2, s), (2, t)),
                   _r_pair(prefix, a, b, s, t), Fraction(1, 8))


def lichnerowicz_E(sig: AlgebraSignature) -> CliffordElement:
    """-E = r_M/4 + I1 + I2 + I3 with symbolic curvature placeholders."""
    alg = sub_dirac_algebra(sig.p, sig.q)
    out = alg.scalar(ScalarPoly.symbol(R_M) * Fraction(1, 4))
    for gens, c, weight in _rfperp_components(sig.p, sig.q):
        if not c.is_zero():
            out = out + normalize(alg, gens) * (c * weight)
    return out


# ---------------------------------------------------------------------------
# The heat-coefficient table, curvature data and the coefficient formulas
# ---------------------------------------------------------------------------

# a0..a4 of -(g^{ij} nabla_i nabla_j + E) per unit trace, Dirichlet condition,
# total divergences dropped (Vassilevich, Phys. Rep. 388 (2003) sections
# 4.1-4.2; Branson-Gilkey, Comm. PDE 15 (1990)), as TableEntry(prefactor,
# interior bracket, boundary bracket).  A bracket maps an invariant to its coefficient:
# "1" for the volume; E, rE = r E, E2 = E^2, Omega2 = Omega_ij Omega_ij,
# E_N = E_{;N}, E_L_aa = E L_aa; or a curvature invariant, which is a
# CurvatureData field: ric2 = R_ijik R_ljlk, riem2 = R_ijkl^2, rfperp2 =
# ||R^{F-perp}||^2 (through _TRACES), L_aa_bb = L_aa;bb, r_N = r_{;N} with N
# the inward normal.  A boundary bracket reads r as r_bd, the scalar curvature
# on the boundary, when that is given.
TableEntry = namedtuple("TableEntry", "prefactor interior boundary")

_GENERAL = {
    0: TableEntry(Fraction(1), {"1": 1}, {}),
    1: TableEntry(Fraction(-1, 4), {}, {"1": 1}),
    2: TableEntry(Fraction(1, 6), {"E": 6, "r": 1}, {"L_aa": 2}),
    3: TableEntry(Fraction(-1, 384), {},
                  {"E": 96, "r": 16, "R_aNaN": 8, "L2_aabb": 7, "L2_abab": -10}),
    4: TableEntry(Fraction(1, 360),
                  {"rE": 60, "E2": 180, "Omega2": 30, "r2": 5, "ric2": -2, "riem2": 2},
                  {"E_N": -120, "E_L_aa": 120, "r_N": -18, "r_L_aa": 20, "R_aNaN_L_bb": 4,
                   "R_aNbN_L_ab": -12, "R_abcb_L_ac": 4, "L_aa_bb": 24,
                   "L3_aabbcc": Fraction(40, 21), "L3_ababcc": Fraction(-88, 7),
                   "L3_abbcac": Fraction(320, 21)}),
}

# Per unit trace for the sub-Dirac E and Omega, as tests/references.py derives
# them: tr E = -r/4, tr E^2 = (r^2 + |RF|^2)/16, tr Omega^2 = -(|R|^2 + |RF|^2)/8.
# rE, E_N and E_L_aa are linear in E, so their traces carry tr E's factor
# onto r^2, r_{;N} and r L_aa.
_TR_E = Fraction(-1, 4)
_TRACES = {
    "E": {"r": _TR_E}, "rE": {"r2": _TR_E}, "E_N": {"r_N": _TR_E}, "E_L_aa": {"r_L_aa": _TR_E},
    "E2": {"r2": Fraction(1, 16), "rfperp2": Fraction(1, 16)},
    "Omega2": {"riem2": Fraction(-1, 8), "rfperp2": Fraction(-1, 8)},
}


def _reduce(general: dict) -> dict[str, Fraction]:
    """A general bracket with each E and Omega invariant replaced by its trace."""
    out: dict[str, Fraction] = {}
    for name, c in general.items():
        for key, t in _TRACES.get(name, {name: 1}).items():
            out[key] = out.get(key, Fraction(0)) + Fraction(c) * t
    return out


# the squared sub-Dirac operator's coefficients, k -> TableEntry
SPINOR = {k: TableEntry(entry.prefactor, _reduce(entry.interior), _reduce(entry.boundary))
          for k, entry in _GENERAL.items()}

# The paper prints the a4 boundary bracket with -51 r_{;N}; the table gives
# -120 tr E_{;N} - 18 r_{;N} = +12 r_{;N}.  Every other term agrees.
A4_BOUNDARY_PRINTED = {**SPINOR[4].boundary, "r_N": Fraction(-51)}


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_INTERIOR_KEYS = {name for entry in SPINOR.values() for name in entry.interior} - {"1"}
_BOUNDARY_KEYS = {name for entry in SPINOR.values() for name in entry.boundary} - {"1"}
# CurvatureData's fields: the volumes (positional), then every invariant the
# table's brackets name, and r_bd
CURVATURE_FIELDS = ("vol", "bvol", *sorted(_INTERIOR_KEYS | _BOUNDARY_KEYS), "r_bd")
# the invariants that only a boundary bracket reads, which count only with bvol
BOUNDARY_FIELDS = (*sorted(_BOUNDARY_KEYS - _INTERIOR_KEYS), "r_bd")


class CurvatureData:
    """Pointwise curvature invariants (interior and boundary) and the volumes.

    Interior entries are per unit volume and multiplied by ``vol``; boundary
    entries by ``bvol``.  The invariants are keywords, each 0 unless given
    (``r_bd`` None).  All fields accept exact rationals or floats, and are
    kept as Fractions.
    """

    def __init__(self, vol=1, bvol=0, **invariants):
        unknown = set(invariants).difference(CURVATURE_FIELDS)
        if unknown:
            raise TypeError(f"unknown curvature keys: {sorted(unknown)}")
        invariants.update(vol=vol, bvol=bvol)
        for name in CURVATURE_FIELDS:
            v = invariants.get(name, None if name == "r_bd" else 0)
            setattr(self, name, None if v is None else _fr(v))

    @property
    def boundary_r(self) -> Fraction:
        return self.r if self.r_bd is None else self.r_bd


class HeatCoeffs:
    def __init__(self, a0: UnitValue, a1: UnitValue, a2: UnitValue, a3: UnitValue,
                 a4: UnitValue, a4_alt: UnitValue | None = None):
        self.a0, self.a1, self.a2, self.a3, self.a4 = a0, a1, a2, a3, a4
        self.a4_alt = a4_alt  # derived-bracket variant of the boundary part


def bracket(coeffs: dict, data, boundary: bool) -> Fraction:
    """The exact sum of coefficient * invariant over a bracket (floats included);
    ``data`` has the invariants as attributes, and on the boundary r is boundary_r."""
    total = Fraction(0)
    for name, c in coeffs.items():
        if name == "1":
            value = 1
        elif boundary and name == "r":
            value = data.boundary_r
        else:
            value = getattr(data, name)
        total += c * _fr(value)
    return total


def _inv_4pi_pow(m: int) -> UnitValue:
    """(4 pi)^(-m/2) as an exact unit value (handles odd m)."""
    return UnitValue(1, {"2": Fraction(-m), U_PI: Fraction(-m, 2)})


def _assemble(data, n: int, total_dim, entries) -> list[UnitValue]:
    """T (4 pi)^{-(n - k mod 2)/2} prefactor (interior bracket vol + boundary
    bracket bvol) for each (k, TableEntry) of ``entries``, T being ``total_dim``
    or, for None, the unit l~2^q; ``data`` holds vol, bvol and the invariants."""
    tdim = UnitValue.trace_dim(total_dim)
    out = []
    for k, entry in entries:
        value = (bracket(entry.interior, data, False) * data.vol
                 + bracket(entry.boundary, data, True) * data.bvol)
        out.append(_inv_4pi_pow(n - k % 2) * tdim * (entry.prefactor * value))
    return out


def interior_coeffs(data: CurvatureData, n: int, total_dim=None) -> HeatCoeffs:
    """Closed-manifold coefficients a0, a2, a4 (a1 = a3 = 0) in dimension n
    with trace dimension ``total_dim`` (None: the unit l~2^q)."""
    closed = [(k, entry._replace(boundary={})) for k, entry in SPINOR.items()]
    return HeatCoeffs(*_assemble(data, n, total_dim, closed))


def boundary_coeffs(data: CurvatureData, n: int, total_dim=None) -> HeatCoeffs:
    """Dirichlet-condition coefficients a0..a4 for a bounded manifold, n and
    ``total_dim`` as for ``interior_coeffs``; a4 takes the printed boundary
    bracket and a4_alt the table's."""
    entries = list(SPINOR.items())
    printed = (4, SPINOR[4]._replace(boundary=A4_BOUNDARY_PRINTED))
    return HeatCoeffs(*_assemble(data, n, total_dim, entries[:4] + [printed, entries[4]]))


# ---------------------------------------------------------------------------
# Lower-volume constants
# ---------------------------------------------------------------------------

def _factor_radical(x: Fraction, exp: Fraction) -> UnitValue:
    """x^exp for a positive rational base, as prime powers with Fraction exponents."""
    if x <= 0:
        raise ValueError("radical base must be positive")
    powers: dict[str, Fraction] = {}

    def add(num: int, sign: int):
        d = 2
        while d * d <= num:
            while num % d == 0:
                key = str(d)
                powers[key] = powers.get(key, Fraction(0)) + sign * exp
                num //= d
            d += 1
        if num > 1:
            key = str(num)
            powers[key] = powers.get(key, Fraction(0)) + sign * exp

    add(x.numerator, 1)
    add(x.denominator, -1)
    return UnitValue(1, powers)


def v_nk(n: int, k: int) -> UnitValue:
    """Exact lower-volume constant; zero for mixed parity."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if (n - k) % 2 == 1:
        return UnitValue.zero()
    g_num, g_num_pi = gamma_exact(n + 2)   # Gamma(n/2 + 1)
    g_den, g_den_pi = gamma_exact(k + 2)   # Gamma(k/2 + 1)
    out = UnitValue(Fraction(k, n))
    out = out * _factor_radical(g_num, Fraction(k, n))
    out = out * UnitValue(1, {U_PI: g_num_pi * Fraction(k, n) - g_den_pi})
    out = out / UnitValue(g_den)
    if n % 2 == 0:
        # (2 pi)^((k-n)/2)
        out = out * UnitValue(1, {"2": Fraction(k - n, 2), U_PI: Fraction(k - n, 2)})
    else:
        out = out * UnitValue(1, {"2": Fraction((k - n) * (n + 1), 2 * n),
                                  U_PI: Fraction(k - n, 2)})
    return out


def lower_volume(n: int, k: int, data: CurvatureData, total_dim=None) -> UnitValue:
    """v_{n,k} times the interior heat coefficient a_{n-k}; zero for mixed parity."""
    if (n - k) % 2 == 1:
        return UnitValue.zero()
    order = n - k
    if order not in (0, 2, 4):
        raise ValueError("only the a0, a2, a4 coefficients are available")
    coeffs = interior_coeffs(data, n, total_dim)
    a = {0: coeffs.a0, 2: coeffs.a2, 4: coeffs.a4}[order]
    return v_nk(n, k) * a


def wres_power(n: int, total_dim=None) -> UnitValue:
    """Coefficient of the scalar-curvature integral in the residue of the
    (2-n)-th power.  By the zeta-residue identity Wres(P^{-s}) = 2 a_{n-2s} / Gamma(s)
    at s = n/2 - 1, it is 2 a2 / Gamma(n/2 - 1) with a2 at unit r.  Even n only."""
    if n % 2:
        raise ValueError("need even dimension")
    if n < 4:
        raise ValueError("need n >= 4")
    a2 = interior_coeffs(CurvatureData(r=1), n, total_dim).a2
    gamma, _ = gamma_exact(n - 2)  # Gamma(n/2 - 1), an integer for even n
    return a2 * 2 / gamma


# ---------------------------------------------------------------------------
# Spectral-action moments
# ---------------------------------------------------------------------------

def spectral_moments(cutoff: Callable[[float], float]) -> dict[int, float]:
    """F_k = Gamma(k/2)^{-1} * integral_0^inf cutoff(s) s^{k/2-1} ds for
    k = 4..1, and F_0 = cutoff(0).

    The substitution s = u^2, which covers [0, inf) twice as u runs over the
    line, makes each integral that of cutoff(u^2) |u|^(k-1) over the whole
    line, for ``quadpack.quad_complex``, and removes the k = 1 endpoint
    singularity.
    """
    from .quadpack import quad_complex

    out = {0: float(cutoff(0.0))}
    for k in (1, 2, 3, 4):
        def integrand(nodes, k=k):
            return [float(cutoff(u * u)) * abs(u) ** (k - 1) for u in nodes]
        (val, err, _, _), _ = quad_complex(integrand, limit=300)
        if not math.isfinite(val) or (abs(val) > 1e-12 and err > 1e-6 * abs(val)):
            raise ValueError(f"non-integrable or ill-conditioned moment F_{k}")
        out[k] = val / math.gamma(k / 2)
    return out

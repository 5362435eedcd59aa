"""Heat-trace coefficients for the square of the sub-Dirac operator, the
curvature endomorphism derived from the Lichnerowicz identity, lower-volume
constants, and spectral-action moments.

Interior coefficients follow the closed-manifold reduction (total-divergence
terms dropped); bounded manifolds keep them as explicit normal-derivative
boundary inputs.  The a4 boundary bracket is returned in two variants: the
printed closed form and the one re-derived from the general bracket with the
trace identities (they differ in the r_{;N} coefficient; both are reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

from .clifford import Algebra, AlgebraSignature, CliffordElement, sub_dirac_algebra
from .symbolic import ScalarPoly, UnitValue, _as_poly

U_PI = "pi"
U_TDIM = "l~2^q"

R_M = "r_M"  # scalar curvature placeholder


# ---------------------------------------------------------------------------
# Curvature endomorphism from the Lichnerowicz identity
# ---------------------------------------------------------------------------

def _anti_pair(prefix: str, a: int, b: int) -> ScalarPoly:
    if a == b:
        return ScalarPoly.zero()
    if a < b:
        return ScalarPoly.symbol(f"{prefix}_{a}_{b}")
    return -ScalarPoly.symbol(f"{prefix}_{b}_{a}")


def _r1(i, r, s, t):  # <R(f_i, h_r) h_t, h_s>, antisymmetric in (s, t)
    return _anti_pair(f"R1_{i}_{r}", t, s)


def _r_pair(prefix, a, b, s, t):
    """<R(e_a, e_b) h_t, h_s> for a same-family pair: prefix R2 for (f_a, f_b),
    R3 for (h_a, h_b); antisymmetric in (a, b) and in (s, t)."""
    if a == b:
        return ScalarPoly.zero()
    sym = _anti_pair(f"{prefix}_{min(a, b)}_{max(a, b)}", t, s)
    return sym if a < b else -sym


def lichnerowicz_E(sig: AlgebraSignature) -> CliffordElement:
    """-E = r_M/4 + I1 + I2 + I3 with symbolic curvature placeholders."""
    p, q = sig.p, sig.q
    alg = sub_dirac_algebra(p, q)
    out = alg.scalar(ScalarPoly.symbol(R_M) * Fraction(1, 4))

    def word(*gens):
        e = alg.scalar(1)
        for g in gens:
            e = e * alg.gen(g)
        return e

    for i in range(p):
        for r in range(q):
            for s in range(q):
                for t in range(q):
                    c = _r1(i, r, s, t)
                    if not c.is_zero():
                        out = out + word((0, i), (1, r), (2, s), (2, t)) * (c * Fraction(1, 4))
    for i in range(p):
        for j in range(p):
            for s in range(q):
                for t in range(q):
                    c = _r_pair("R2", i, j, s, t)
                    if not c.is_zero():
                        out = out + word((0, i), (0, j), (2, s), (2, t)) * (c * Fraction(1, 8))
    for r in range(q):
        for l in range(q):
            for s in range(q):
                for t in range(q):
                    c = _r_pair("R3", r, l, s, t)
                    if not c.is_zero():
                        out = out + word((1, r), (1, l), (2, s), (2, t)) * (c * Fraction(1, 8))
    return out


def rfperp_norm_sq(sig: AlgebraSignature) -> ScalarPoly:
    """||R^{F-perp}||^2 expanded in the same placeholders."""
    p, q = sig.p, sig.q
    out = ScalarPoly.zero()
    for i in range(p):
        for r in range(q):
            for s in range(q):
                for t in range(q):
                    out = out + _r1(i, r, s, t) ** 2 * 2
    for i in range(p):
        for j in range(p):
            for s in range(q):
                for t in range(q):
                    out = out + _r_pair("R2", i, j, s, t) ** 2
    for r in range(q):
        for l in range(q):
            for s in range(q):
                for t in range(q):
                    out = out + _r_pair("R3", r, l, s, t) ** 2
    return out


def endomorphism_traces(sig: AlgebraSignature, total_dim=None) -> dict:
    """tr E and tr E^2 derived symbolically, with their expected closed forms."""
    td = _as_poly(total_dim if total_dim is not None else sig.total_dim)
    minus_e = lichnerowicz_E(sig)
    tr_e = (-minus_e).trace(td)
    tr_e2 = (minus_e * minus_e).trace(td)
    r = ScalarPoly.symbol(R_M)
    return {
        "tr_E": tr_e,
        "tr_E_expected": -td * r * Fraction(1, 4),
        "tr_E2": tr_e2,
        "tr_E2_expected": td * (r * r + rfperp_norm_sq(sig)) * Fraction(1, 16),
    }


def omega_squared_trace(n: int, q: int, total_dim=None) -> dict:
    """tr(Omega_ij Omega_ij) on the twisted module, derived and expected.

    Omega_ij = -(1/4) R^M_{ijkl} c(e_k)c(e_l) - (1/4) <R'(e_i,e_j)h_s,h_t> c'(h_s)c'(h_t).
    """
    alg = Algebra([("e", n, -1), ("s", q, -1)])
    td = _as_poly(total_dim) if total_dim is not None else ScalarPoly.symbol("T")

    def rm(i, j, k, l):
        return _anti_pair(f"RM_{i}_{j}", k, l)

    def rp(i, j, s, t):
        return _anti_pair(f"RP_{i}_{j}", s, t)

    total = ScalarPoly.zero()
    for i in range(n):
        for j in range(n):
            om = alg.scalar(0)
            for k in range(n):
                for l in range(n):
                    c = rm(i, j, k, l)
                    if not c.is_zero():
                        om = om + alg.gen((0, k)) * alg.gen((0, l)) * (c * Fraction(-1, 4))
            for s in range(q):
                for t in range(q):
                    c = rp(i, j, s, t)
                    if not c.is_zero():
                        om = om + alg.gen((1, s)) * alg.gen((1, t)) * (c * Fraction(-1, 4))
            total = total + (om * om).trace(td)

    expected = ScalarPoly.zero()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    expected = expected + rm(i, j, k, l) ** 2
            for s in range(q):
                for t in range(q):
                    expected = expected + rp(i, j, s, t) ** 2
    return {"tr_Omega2": total, "tr_Omega2_expected": -td * expected * Fraction(1, 8)}


def interior_a4_bracket_coefficients() -> dict[str, Fraction]:
    """Derive the interior a4 bracket from the general heat formula and the
    trace identities; the +60*tau*E orientation is the one consistent with
    the closed form (the alternative sign gives 125/4 instead of 5/4).

    Per unit trace dimension and before the 1/360 prefactor, using
    tr E = -T r/4, tr E^2 = (T/16)(r^2 + |RF|^2), tr Omega^2 = -(T/8)(|R|^2 + |RF|^2):
        5 r^2 - 2 ric2 + 2 riem2 + 60 r E + 180 E^2 + 30 Omega^2.
    """
    r2 = Fraction(5) + Fraction(60, 1) * Fraction(-1, 4) + Fraction(180, 16)
    ric2 = Fraction(-2)
    riem2 = Fraction(2) + Fraction(30) * Fraction(-1, 8)
    rf2 = Fraction(180, 16) + Fraction(30) * Fraction(-1, 8)
    return {"r2": r2, "ric2": ric2, "riem2": riem2, "rfperp2": rf2}


# ---------------------------------------------------------------------------
# Curvature data and the coefficient formulas
# ---------------------------------------------------------------------------

def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class CurvatureData:
    """Pointwise curvature invariants (interior and boundary) and the volumes.

    Interior entries are per unit volume and multiplied by ``vol``; boundary
    entries by ``bvol``.  All fields accept exact rationals or floats.
    """

    vol: Fraction = Fraction(1)
    bvol: Fraction = Fraction(0)
    # interior
    r: Fraction = Fraction(0)
    r2: Fraction = Fraction(0)
    ric2: Fraction = Fraction(0)          # R_ijik R_ljlk
    riem2: Fraction = Fraction(0)         # R_ijkl^2
    rfperp2: Fraction = Fraction(0)       # ||R^{F-perp}||^2
    # boundary
    L_aa: Fraction = Fraction(0)
    L2_abab: Fraction = Fraction(0)
    L2_aabb: Fraction = Fraction(0)
    L3_aabbcc: Fraction = Fraction(0)
    L3_ababcc: Fraction = Fraction(0)
    L3_abbcac: Fraction = Fraction(0)
    R_aNaN: Fraction = Fraction(0)
    R_aNaN_L_bb: Fraction = Fraction(0)
    R_aNbN_L_ab: Fraction = Fraction(0)
    R_abcb_L_ac: Fraction = Fraction(0)
    L_aa_bb: Fraction = Fraction(0)       # L_aa;bb
    r_N: Fraction = Fraction(0)           # r_{;N}, inward normal
    r_L_aa: Fraction = Fraction(0)
    r_bd: Fraction | None = None          # scalar curvature on the boundary

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                setattr(self, f.name, _fr(v))

    @property
    def boundary_r(self) -> Fraction:
        return self.r if self.r_bd is None else self.r_bd

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CurvatureData":
        names = {f.name for f in fields(cls)}
        unknown = set(mapping) - names
        if unknown:
            raise KeyError(f"unknown curvature keys: {sorted(unknown)}")
        return cls(**mapping)


@dataclass
class HeatCoeffs:
    a0: UnitValue
    a1: UnitValue
    a2: UnitValue
    a3: UnitValue
    a4: UnitValue
    a4_alt: UnitValue | None = None  # derived-bracket variant of the boundary part

    def as_list(self):
        return [self.a0, self.a1, self.a2, self.a3, self.a4]


_A4_INTERIOR = interior_a4_bracket_coefficients()


def interior_a4_bracket(r2, ric2, riem2, rfperp2) -> Fraction:
    """The interior a4 integrand before the 1/360 prefactor: an exact sum, floats included."""
    c = _A4_INTERIOR
    return (c["r2"] * _fr(r2) + c["ric2"] * _fr(ric2)
            + c["riem2"] * _fr(riem2) + c["rfperp2"] * _fr(rfperp2))


def _inv_4pi_pow(m: int) -> UnitValue:
    """(4 pi)^(-m/2) as an exact unit value (handles odd m)."""
    return UnitValue(1, {"2": Fraction(-m), U_PI: Fraction(-m, 2)})


def _tdim_factor(total_dim) -> UnitValue:
    if total_dim is None:
        return UnitValue.unit(U_TDIM)
    return UnitValue(_fr(total_dim))


def _dimensions(sig: AlgebraSignature | None, n: int | None, total_dim):
    if sig is not None:
        n = sig.p + sig.q if n is None else n
        total_dim = sig.total_dim if total_dim is None else total_dim
    if n is None:
        raise ValueError("need a signature or an explicit dimension")
    return n, total_dim


def interior_coeffs(sig: AlgebraSignature | None, data: CurvatureData,
                    n: int | None = None, total_dim=None) -> HeatCoeffs:
    """Closed-manifold coefficients a0, a2, a4 (a1 = a3 = 0)."""
    n, total_dim = _dimensions(sig, n, total_dim)
    v = data.vol
    pref = _inv_4pi_pow(n) * _tdim_factor(total_dim)
    a0 = pref * v
    a2 = pref * (Fraction(-1, 12) * data.r * v)
    interior4 = interior_a4_bracket(data.r2, data.ric2, data.riem2, data.rfperp2)
    a4 = pref * (Fraction(1, 360) * interior4 * v)
    zero = UnitValue.zero()
    return HeatCoeffs(a0, zero, a2, zero, a4)


def a3_boundary_bracket(data: CurvatureData) -> Fraction:
    """The a3 boundary integrand before the -1/384 prefactor."""
    return (-8 * data.boundary_r + 8 * data.R_aNaN
            + 7 * data.L2_aabb - 10 * data.L2_abab)


def a4_boundary_bracket(data: CurvatureData, printed: bool = True) -> Fraction:
    """The a4 boundary integrand after the trace reductions.

    printed=True uses the stated closed form (r_{;N} coefficient -51);
    printed=False re-derives it from the general bracket (-120 E_{;N} - 18 r_{;N}
    with tr E = -T r / 4 gives +12 r_{;N}); all other terms coincide.
    """
    r_n_coeff = Fraction(-51) if printed else Fraction(12)
    return (r_n_coeff * data.r_N - 10 * data.r_L_aa + 4 * data.R_aNaN_L_bb
            - 12 * data.R_aNbN_L_ab + 4 * data.R_abcb_L_ac + 24 * data.L_aa_bb
            + Fraction(40, 21) * data.L3_aabbcc - Fraction(88, 7) * data.L3_ababcc
            + Fraction(320, 21) * data.L3_abbcac)


def boundary_coeffs(sig: AlgebraSignature | None, data: CurvatureData,
                    n: int | None = None, total_dim=None) -> HeatCoeffs:
    """Dirichlet-condition coefficients a0..a4 for a bounded manifold."""
    m, total_dim = _dimensions(sig, n, total_dim)
    pref_i = _inv_4pi_pow(m) * _tdim_factor(total_dim)
    pref_b = _inv_4pi_pow(m - 1) * _tdim_factor(total_dim)
    v, bv = data.vol, data.bvol

    a0 = pref_i * v
    a1 = pref_b * (Fraction(-1, 4) * bv)
    a2 = pref_i * (Fraction(1, 12) * (-data.r * v + 4 * data.L_aa * bv))
    a3 = pref_b * (Fraction(-1, 384) * a3_boundary_bracket(data) * bv)
    interior4 = interior_a4_bracket(data.r2, data.ric2, data.riem2, data.rfperp2)
    a4 = pref_i * (Fraction(1, 360) * (interior4 * v + a4_boundary_bracket(data, True) * bv))
    a4_alt = pref_i * (Fraction(1, 360) * (interior4 * v + a4_boundary_bracket(data, False) * bv))
    return HeatCoeffs(a0, a1, a2, a3, a4, a4_alt)


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


def _gamma_exact(two_z: int) -> tuple[Fraction, Fraction]:
    """Gamma(two_z / 2) = rational * pi^(0 or 1/2); returns (rational, pi exponent)."""
    if two_z <= 0:
        raise ValueError("Gamma argument must be positive")
    if two_z % 2 == 0:
        return Fraction(math.factorial(two_z // 2 - 1)), Fraction(0)
    # Gamma(m + 1/2) = (2m-1)!! / 2^m * sqrt(pi)
    mhalf = two_z // 2
    dd = 1
    for k in range(2 * mhalf - 1, 1, -2):
        dd *= k
    return Fraction(dd, 2 ** mhalf), Fraction(1, 2)


def v_nk(n: int, k: int) -> UnitValue:
    """Exact lower-volume constant; zero for mixed parity."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if (n - k) % 2 == 1:
        return UnitValue.zero()
    g_num, g_num_pi = _gamma_exact(n + 2)   # Gamma(n/2 + 1)
    g_den, g_den_pi = _gamma_exact(k + 2)   # Gamma(k/2 + 1)
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


def v_nk_numeric(n: int, k: int) -> float:
    """Defining formula evaluated in floats (test oracle)."""
    if (n - k) % 2 == 1:
        return 0.0
    g = math.gamma(n / 2 + 1) ** (k / n) / math.gamma(k / 2 + 1)
    if n % 2 == 0:
        return k / n * (2 * math.pi) ** ((k - n) / 2) * g
    return k / n * 2 ** ((k - n) * (n + 1) / (2 * n)) * math.pi ** ((k - n) / 2) * g


@dataclass
class LowerVolume:
    value: UnitValue
    parity_zero: bool = False


def lower_volume(sig: AlgebraSignature | None, n: int, k: int, data: CurvatureData,
                 total_dim=None) -> LowerVolume:
    """v_{n,k} times the interior heat coefficient a_{n-k}."""
    if (n - k) % 2 == 1:
        return LowerVolume(UnitValue.zero(), parity_zero=True)
    order = n - k
    if order not in (0, 2, 4):
        raise ValueError("only the a0, a2, a4 coefficients are available")
    coeffs = interior_coeffs(sig, data, n=n, total_dim=total_dim)
    a = {0: coeffs.a0, 2: coeffs.a2, 4: coeffs.a4}[order]
    return LowerVolume(v_nk(n, k) * a)


def wres_power(n: int, total_dim=None) -> UnitValue:
    """Coefficient of the scalar-curvature integral in the residue of the
    (2-n)-th power: -totalDim / (6 (n/2-2)! (4 pi)^{n/2}).  Even n only."""
    if n % 2:
        raise ValueError("the closed form needs even dimension")
    if n < 4:
        raise ValueError("need n >= 4")
    c = UnitValue(Fraction(-1, 6 * math.factorial(n // 2 - 2)))
    return c * _inv_4pi_pow(n) * _tdim_factor(total_dim)


# ---------------------------------------------------------------------------
# Spectral-action moments
# ---------------------------------------------------------------------------

def spectral_moments(cutoff: Callable[[float], float],
                     upper: float = math.inf) -> dict[int, float]:
    """F_k = Gamma(k/2)^{-1} * integral_0^inf cutoff(s) s^{k/2-1} ds for
    k = 4..1, and F_0 = cutoff(0).

    The substitution s = u^2 removes the k = 1 endpoint singularity.
    """
    from .quadpack import quad

    out = {0: float(cutoff(0.0))}
    u_upper = math.sqrt(upper) if math.isfinite(upper) else math.inf
    for k in (1, 2, 3, 4):
        def integrand(u, k=k):
            return 2.0 * cutoff(u * u) * u ** (k - 1)
        val, err, _, _ = quad(integrand, 0.0, u_upper, limit=300)
        if not math.isfinite(val) or (abs(val) > 1e-12 and err > 1e-6 * abs(val)):
            raise ValueError(f"non-integrable or ill-conditioned moment F_{k}")
        out[k] = val / math.gamma(k / 2)
    return out

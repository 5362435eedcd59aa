"""Test references: independent forms of what the product computes, kept out
of ``src/wres`` so that no product code can import them or drift with them.

Each is either a float evaluation of an exact value (``v_nk_numeric``,
``evaluate_poly``, ``evaluate_rational``, ``numeric_pi_plus``) or a second
derivation of a fact the product types in or states another way
(``reduce_unit_norm``, ``sigma1_D``, ``endomorphism_traces``,
``omega_squared_trace``, ``rfperp_norm_sq``).
"""

import math
from fractions import Fraction

from wres import quadpack
from wres.clifford import Algebra, AlgebraSignature
from wres.heat import R_M, _TRACES, _rfperp_components, lichnerowicz_E
from wres.symbolic import GR_I, RationalXi, ScalarPoly, antisymmetric_symbol


# ---------------------------------------------------------------------------
# Float evaluation of exact values
# ---------------------------------------------------------------------------

def evaluate_poly(poly: ScalarPoly, env) -> complex:
    """The polynomial's value in complex floats, each symbol read from ``env``."""
    total = 0j
    for m, c in poly.terms.items():
        v = complex(c)
        for n, e in m:
            v *= env[n] ** e
        total += v
    return total


def evaluate_rational(f: RationalXi, xi: complex, env=None) -> complex:
    """f(xi) in complex floats: the numerator over (xi - i)^mp (xi + i)^mm."""
    env = env or {}
    num = sum(evaluate_poly(c, env) * xi ** k for k, c in enumerate(f.num))
    return num / ((xi - 1j) ** f.mp * (xi + 1j) ** f.mm)


def numeric_pi_plus(f: RationalXi, x0: float) -> complex:
    """Half-plane projection at a real point via a shifted-contour Cauchy
    integral: pi+f(x0) = f(x0) - (2 pi i)^{-1} * integral over Im = -1/2 of
    f(eta)/(eta - x0), a contour strictly between the axis and the lower pole."""

    def integrand(t):
        eta = t - 0.5j
        return evaluate_rational(f, eta) / (eta - x0)

    re, im = quadpack.quad_complex(lambda nodes: [integrand(t) for t in nodes],
                                   epsabs=1e-12, epsrel=1e-11, limit=400)
    return evaluate_rational(f, x0) - complex(re.value, im.value) / (2j * math.pi)


def v_nk_numeric(n: int, k: int) -> float:
    """The lower-volume constant's defining formula evaluated in floats."""
    if (n - k) % 2 == 1:
        return 0.0
    g = math.gamma(n / 2 + 1) ** (k / n) / math.gamma(k / 2 + 1)
    if n % 2 == 0:
        return k / n * (2 * math.pi) ** ((k - n) / 2) * g
    return k / n * 2 ** ((k - n) * (n + 1) / (2 * n)) * math.pi ** ((k - n) / 2) * g


# ---------------------------------------------------------------------------
# Second derivations
# ---------------------------------------------------------------------------

def reduce_unit_norm(poly: ScalarPoly, coords) -> ScalarPoly:
    """Reduce modulo the cosphere constraint sum(coords^2) = 1.

    Eliminates the square of the last coordinate: c_last^2 -> 1 - sum(others^2).
    """
    coords = list(coords)
    if not coords:
        return poly
    target = coords[-1]
    others = coords[:-1]
    rest = ScalarPoly.one()
    for n in others:
        rest = rest - ScalarPoly.symbol(n) ** 2
    out = ScalarPoly.zero()
    for m, c in poly.terms.items():
        piece = ScalarPoly.const(c)
        for n, e in m:
            if n == target and e >= 2:
                piece = piece * rest ** (e // 2)
                if e % 2:
                    piece = piece * ScalarPoly.symbol(target)
            else:
                piece = piece * ScalarPoly.symbol(n) ** e
        out = out + piece
    return out


def sigma1_D(model):
    """Leading symbol i*c(xi)."""
    return model.c_xi_jet().scale(GR_I)


def rfperp_norm_sq(sig: AlgebraSignature) -> ScalarPoly:
    """||R^{F-perp}||^2 expanded in the placeholders of ``lichnerowicz_E``:
    the sum over ordered frame pairs counts a component of a mixed pair
    (f_i, h_r) twice, and the same-family pairs are already ordered."""
    out = ScalarPoly.zero()
    for (g1, g2, _, _), c, _ in _rfperp_components(sig.p, sig.q):
        out = out + c ** 2 * (2 if g1[0] != g2[0] else 1)
    return out


def endomorphism_traces(sig: AlgebraSignature) -> dict:
    """tr E and tr E^2 per unit trace, derived symbolically, with the closed
    forms that ``heat._TRACES`` gives them."""
    minus_e = lichnerowicz_E(sig)
    r = ScalarPoly.symbol(R_M)
    tr = _TRACES["E2"]
    return {
        "tr_E": (-minus_e).trace(),
        "tr_E_expected": r * _TRACES["E"]["r"],
        "tr_E2": (minus_e * minus_e).trace(),
        "tr_E2_expected": r * r * tr["r2"] + rfperp_norm_sq(sig) * tr["rfperp2"],
    }


def omega_squared_trace(n: int, q: int) -> dict:
    """tr(Omega_ij Omega_ij) per unit trace on the twisted module, derived and
    as ``heat._TRACES`` gives it.

    Omega_ij = -(1/4) R^M_{ijkl} c(e_k)c(e_l) - (1/4) <R'(e_i,e_j)h_s,h_t> c'(h_s)c'(h_t).
    """
    alg = Algebra([("e", n, -1), ("s", q, -1)])

    def rm(i, j, k, l):
        return antisymmetric_symbol(f"RM_{i}_{j}", k, l)

    def rp(i, j, s, t):
        return antisymmetric_symbol(f"RP_{i}_{j}", s, t)

    total = riem2 = rfperp2 = ScalarPoly.zero()  # |R|^2 and |RF|^2 for the expected form
    for i in range(n):
        for j in range(n):
            om = alg.scalar(0)
            for k in range(n):
                for l in range(n):
                    c = rm(i, j, k, l)
                    if not c.is_zero():
                        om = om + alg.gen((0, k)) * alg.gen((0, l)) * (c * Fraction(-1, 4))
                        riem2 = riem2 + c ** 2
            for s in range(q):
                for t in range(q):
                    c = rp(i, j, s, t)
                    if not c.is_zero():
                        om = om + alg.gen((1, s)) * alg.gen((1, t)) * (c * Fraction(-1, 4))
                        rfperp2 = rfperp2 + c ** 2
            total = total + (om * om).trace()
    tr = _TRACES["Omega2"]
    return {"tr_Omega2": total,
            "tr_Omega2_expected": riem2 * tr["riem2"] + rfperp2 * tr["rfperp2"]}

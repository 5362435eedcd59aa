"""Pseudodifferential symbols of the inverse sub-Dirac operator and its square
at a boundary point of the collar metric (1/h(x_n)) g_dM + dx_n^2, restricted
to the unit tangential cosphere.

Symbols are Clifford-valued rational functions of the conormal variable,
carried together with their first x_n-jet at the boundary point.  Connection
data stays symbolic: antisymmetrized placeholders <nabla_w u, v> that are
eliminated only by the normal-coordinate contract (the divergence sums
vanish at the base point).  Any placeholder surviving to a final value is an
error, so the cancellation is verified, not assumed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .clifford import Algebra, CliffordElement, Gen, spin_algebra, sub_dirac_algebra
from .symbolic import (
    GR_I,
    GaussianRational,
    RationalXi,
    ScalarPoly,
    _as_poly,
    reduce_unit_norm,
)

H1 = "h1"  # h'(0), the normal metric derivative at the boundary point
TOTAL_DIM_SYMBOL = "ldim2q"  # symbolic trace dimension l~ * 2^q


def h1_poly(power: int = 1) -> ScalarPoly:
    return ScalarPoly.symbol(H1, power)


def conn(w: int, u: int, v: int) -> ScalarPoly:
    """<nabla_{e_w} e_u, e_v> as an antisymmetrized placeholder symbol."""
    if u == v:
        return ScalarPoly.zero()
    if u < v:
        return ScalarPoly.symbol(f"g_{w}_{u}_{v}")
    return -ScalarPoly.symbol(f"g_{w}_{v}_{u}")


def omega(s: int, t: int, w: int) -> ScalarPoly:
    """Frame connection matrix entry omega_{s,t}(e_w) = <nabla_w e_t, e_s>."""
    return conn(w, t, s)


class Jet(NamedTuple):
    """Value and first x_n-derivative of a symbol at the boundary point."""

    val: CliffordElement
    dxn: CliffordElement | None

    def component(self, j: int) -> CliffordElement:
        if j == 0:
            return self.val
        if j == 1:
            if self.dxn is None:
                raise ValueError("x_n-jet not available for this symbol")
            return self.dxn
        raise ValueError("only first-order x_n-jets are carried")

    def pi_plus(self) -> "Jet":
        return Jet(self.val.pi_plus(), None if self.dxn is None else self.dxn.pi_plus())

    def dxi(self, order: int = 1) -> "Jet":
        return Jet(self.val.dxi(order), None if self.dxn is None else self.dxn.dxi(order))

    def mul(self, other: "Jet") -> "Jet":
        val = self.val * other.val
        if self.dxn is None or other.dxn is None:
            return Jet(val, None)
        return Jet(val, self.val * other.dxn + self.dxn * other.val)

    def scale(self, c) -> "Jet":
        return Jet(self.val * c, None if self.dxn is None else self.dxn * c)


def trace_product(e1: CliffordElement, e2: CliffordElement, total_dim) -> RationalXi:
    """trace(e1 * e2) without building the full product element.  Canonical words
    hold distinct sorted generators, so w1 * w2 is a scalar exactly when w1 == w2."""
    td = _as_poly(total_dim)
    alg = e1.algebra
    acc = RationalXi.zero()
    for w, c1 in e1.terms.items():
        c2 = e2.terms.get(w)
        if c2 is not None:
            x = c1 * c2
            acc = acc + (x if alg.normalize_word(w + w)[0] > 0 else -x)
    return acc * td


# ---------------------------------------------------------------------------
# The boundary model
# ---------------------------------------------------------------------------

class BoundaryModel:
    """Collar-metric data at a boundary point, on the unit cosphere.

    ``tangential`` lists the n-1 tangential generators paired with their
    cosphere coordinate symbols; ``normal`` is the conormal generator.
    ``total_dim`` may be an integer or a formal symbol (ScalarPoly).
    """

    def __init__(self, n: int, algebra: Algebra, tangential: list[Gen], coords: list[str],
                 normal: Gen, total_dim, gamma_n: Fraction = Fraction(5, 2)):
        if len(tangential) != n - 1 or len(coords) != n - 1:
            raise ValueError("need n-1 tangential generators and coordinates")
        self.n = n
        self.algebra = algebra
        self.tangential = tangential
        self.coords = coords
        self.normal = normal
        self.total_dim = total_dim  # int | ScalarPoly
        self.gamma_n = gamma_n  # Gamma^n(x0) as a multiple of h'(0)
        self._jets = {}  # symbol_jet memo
        self._subs = self._normal_coordinate_table()

    # -- index helpers -------------------------------------------------------
    def gen_index(self, g: Gen) -> int:
        """Global frame index 0..n-1 (tangential order, then the normal)."""
        if g == self.normal:
            return self.n - 1
        return self.tangential.index(g)

    @property
    def frame(self) -> list[Gen]:
        return self.tangential + [self.normal]

    @property
    def leaf_gens(self) -> list[Gen]:
        return [g for g in self.frame if g[0] == 0]

    @property
    def perp_gens(self) -> list[Gen]:
        """c(h_*) generators, normal included (empty for the spin model)."""
        if len(self.algebra.families) == 1:
            return []
        return [g for g in self.frame if g[0] == 1]

    def hatted(self, g: Gen) -> Gen:
        return (2, g[1])

    def total_dim_poly(self) -> ScalarPoly:
        return _as_poly(self.total_dim)

    # -- normal-coordinate contract -------------------------------------------
    def _normal_coordinate_table(self) -> dict[str, ScalarPoly]:
        """Substitutions enforcing sum_w <nabla_w w, d>(x0) = 0 for all d,
        with <nabla_N N, .> = 0 (the normal coordinate is geodesic)."""
        n = self.n
        table: dict[str, ScalarPoly] = {}
        for d in range(n):
            if d != n - 1:
                # <nabla_N N, d> = 0; canonical symbol has u < v
                u, v = sorted((n - 1, d))
                table[f"g_{n - 1}_{u}_{v}"] = ScalarPoly.zero()
        for d in range(n):
            cands = [w for w in range(n - 1) if w != d]
            if not cands:
                continue
            W = max(cands)
            rest = ScalarPoly.zero()
            for w in cands:
                if w != W:
                    rest = rest + conn(w, w, d)
            # conn(W, W, d) = -rest; express via the canonical symbol
            if W < d:
                table[f"g_{W}_{W}_{d}"] = -rest
            else:
                table[f"g_{W}_{d}_{W}"] = rest
        # subs_many substitutes in one pass, which needs values free of the keys
        assert not any(v.symbols() & table.keys() for v in table.values())
        return table

    def normal_reduce(self, poly: ScalarPoly) -> ScalarPoly:
        return poly.subs_many(self._subs)

    def reduce_coeff(self, poly: ScalarPoly) -> ScalarPoly:
        return reduce_unit_norm(self.normal_reduce(poly), self.coords)

    # -- Clifford-valued building blocks ---------------------------------------
    def gen_elem(self, g: Gen, coeff=1) -> CliffordElement:
        return self.algebra.gen(g, RationalXi.const(coeff))

    def c_xi_prime(self) -> CliffordElement:
        out = self.algebra.element()
        for g, name in zip(self.tangential, self.coords):
            out = out + self.gen_elem(g, ScalarPoly.symbol(name))
        return out

    def c_xi_prime_jet(self) -> Jet:
        """c(xi')(x_n): the frame rescaling gives d/dx_n = (h'(0)/2) c(xi')."""
        v = self.c_xi_prime()
        return Jet(v, v * (h1_poly() * Fraction(1, 2)))

    def c_dxn(self) -> CliffordElement:
        return self.gen_elem(self.normal)

    def c_xi_jet(self) -> Jet:
        prime = self.c_xi_prime_jet()
        nterm = self.c_dxn() * RationalXi.xi()
        return Jet(prime.val + nterm, prime.dxn)

    def inv_norm_sq_jet(self, k: int = 1) -> Jet:
        """|xi|^{-2k} on the cosphere: d/dx_n |xi|^2 (x0) = h'(0)."""
        val = self.algebra.scalar(RationalXi.inv_norm_sq(k))
        dxn = self.algebra.scalar(RationalXi.inv_norm_sq(k + 1) * (-h1_poly() * k))
        return Jet(val, dxn)


def foliation_model(p: int, q: int, total_dim, gamma_n=Fraction(5, 2)) -> BoundaryModel:
    """Sub-Dirac collar model: dx_n = h_q*, tangential f_1..f_p, h_1..h_{q-1}."""
    if q < 1:
        raise ValueError("foliation model needs q >= 1 (dx_n lies in the perp factor)")
    algebra = sub_dirac_algebra(p, q)
    tang = [(0, i) for i in range(p)] + [(1, s) for s in range(q - 1)]
    coords = [f"a{i + 1}" for i in range(p)] + [f"b{u + 1}" for u in range(q - 1)]
    return BoundaryModel(p + q, algebra, tang, coords, (1, q - 1), total_dim, gamma_n)


def spin_model(n: int, total_dim, gamma_n=Fraction(5, 2)) -> BoundaryModel:
    algebra = spin_algebra(n)
    tang = [(0, i) for i in range(n - 1)]
    coords = [f"a{i + 1}" for i in range(n - 1)]
    return BoundaryModel(n, algebra, tang, coords, (0, n - 1), total_dim, gamma_n)


# ---------------------------------------------------------------------------
# Symbol builders
# ---------------------------------------------------------------------------

def sigma1_D(model: BoundaryModel) -> Jet:
    """Leading symbol i*c(xi)."""
    return model.c_xi_jet().scale(GR_I)


def connection_word(model: BoundaryModel, k: int) -> CliffordElement:
    """The Clifford word W_k through which the connection along the frame vector
    e_k (global index k) enters the symbols of D_F = sum_k c(e_k) nabla_{e_k}:

        W_k =   1/2 sum_{a,b in F}      omega_{a,b}(e_k) c(f_a) c(f_b)
              - 1/2 sum_{r,t in F-perp} omega_{r,t}(e_k) [hc(h_r) hc(h_t) - c(h_r) c(h_t)]
              -     sum_{j in F, s in F-perp} <nabla_{e_k} f_j, h_s> c(f_j) c(h_s)

    With no perpendicular factor (single-family model) only the first sum survives.
    Each term's coefficient is added under the normalized generator pair, and
    the sums become constant RationalXi coefficients once at the end.
    """
    alg = model.algebra
    leaf = model.leaf_gens
    perp = model.perp_gens
    idx = model.gen_index
    half = Fraction(1, 2)
    acc: dict = {}

    def add(g1, g2, coeff, sign=1):
        s, word = alg.normalize_word((g1, g2))
        x = coeff if s * sign > 0 else -coeff
        acc[word] = acc[word] + x if word in acc else x

    for fa in leaf:
        for fb in leaf:
            w = omega(idx(fa), idx(fb), k)
            if not w.is_zero():
                add(fa, fb, w * half)
    for hr in perp:
        for ht in perp:
            w = omega(idx(hr), idx(ht), k)
            if w.is_zero():
                continue
            add(model.hatted(hr), model.hatted(ht), w * half, -1)
            add(hr, ht, w * half)
    for fj in leaf:
        for hs in perp:
            w = conn(k, idx(fj), idx(hs))
            if not w.is_zero():
                add(fj, hs, w, -1)
    return alg.element({word: RationalXi.const(c) for word, c in acc.items()})


def sigma0_DF(model: BoundaryModel) -> CliffordElement:
    """Zeroth-order symbol -1/2 sum_k c(e_k) W_k of the sub-Dirac operator, with
    symbolic connection data; expanding it gives the paper's five sums."""
    out = model.algebra.element()
    for g in model.frame:
        word = connection_word(model, model.gen_index(g))
        out = out + model.gen_elem(g, Fraction(-1, 2)) * word
    return out


def sigma_minus1_Dinv(model: BoundaryModel) -> Jet:
    """i c(xi) / |xi|^2 with its x_n-jet."""
    return model.c_xi_jet().mul(model.inv_norm_sq_jet(1)).scale(GR_I)


def sigma_minus2_Dinv(model: BoundaryModel) -> Jet:
    """Second symbol of the inverse operator at the boundary point (value only):

        c(xi) p0 c(xi)/|xi|^4
        + c(xi)/|xi|^6 * c(dx_n) [ d_{x_n}c(xi) |xi|^2 - c(xi) d_{x_n}|xi|^2 ]
    """
    cxi = model.c_xi_jet()
    p0 = sigma0_DF(model)
    N = model.c_dxn()
    inv2 = RationalXi.inv_norm_sq(2)
    inv3 = RationalXi.inv_norm_sq(3)
    main = (cxi.val * p0 * cxi.val).map_coeffs(lambda c: c * inv2)
    mid = (cxi.val * N * cxi.dxn).map_coeffs(lambda c: c * inv2)
    last = (cxi.val * N * cxi.val).map_coeffs(lambda c: c * (inv3 * h1_poly()))
    return Jet(main + mid - last, None)


def sigma_minus2_Dsq(model: BoundaryModel) -> Jet:
    """|xi|^{-2} times the identity, with its x_n-jet."""
    return model.inv_norm_sq_jet(1)


def sigma_minus3_Dsq(model: BoundaryModel) -> Jet:
    """Third symbol of the inverse square at the boundary point (value only).

    A1 = -2i h'(0) xi_n |xi|^{-6};  A2 = -i |xi|^{-4} xi_k (Gamma^k + W_k),
    Gamma^n(x0) = gamma_n * h'(0), tangential Gamma^k(x0) = 0.
    """
    alg = model.algebra
    xi = RationalXi.xi()
    inv2 = RationalXi.inv_norm_sq(2)
    inv3 = RationalXi.inv_norm_sq(3)

    a1 = alg.scalar(xi * inv3 * (h1_poly() * GaussianRational(0, -2)))

    # k = n: xi_n ( Gamma^n + W_n )
    a2 = alg.scalar(xi * inv2 * (h1_poly() * GaussianRational(model.gamma_n)))
    a2 = a2 + connection_word(model, model.n - 1).map_coeffs(lambda c: c * (xi * inv2))
    # tangential k: coordinate-weighted word terms (odd on the cosphere)
    for g, name in zip(model.tangential, model.coords):
        wt = connection_word(model, model.gen_index(g))
        if not wt.is_zero():
            factor = inv2 * ScalarPoly.symbol(name)
            a2 = a2 + wt.map_coeffs(lambda c, f=factor: c * f)
    a2 = a2 * GaussianRational(0, -1)
    return Jet(a1 + a2, None)


_BUILDERS = {
    (1, -1): sigma_minus1_Dinv,
    (1, -2): sigma_minus2_Dinv,
    (2, -2): sigma_minus2_Dsq,
    (2, -3): sigma_minus3_Dsq,
}


def symbol_jet(model: BoundaryModel, power: int, order: int) -> Jet:
    """Symbol of D^{-power} at the given order, as a jet at the base point.

    Built once per model and (power, order); callers share the returned jet,
    whose elements no caller mutates.
    """
    key = (power, order)
    jet = model._jets.get(key)
    if jet is None:
        if key not in _BUILDERS:
            raise KeyError(f"no symbol builder for D^-{power} at order {order}")
        jet = model._jets[key] = _BUILDERS[key](model)
    return jet

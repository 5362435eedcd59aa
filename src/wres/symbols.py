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
    U_H1,
    GaussianRational,
    RationalXi,
    ScalarPoly,
    antisymmetric_symbol,
)


def h1_poly() -> ScalarPoly:
    return ScalarPoly.symbol(U_H1)


def conn(w: int, u: int, v: int) -> ScalarPoly:
    """<nabla_{e_w} e_u, e_v> as an antisymmetrized placeholder symbol."""
    return antisymmetric_symbol(f"g_{w}", u, v)


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

    def mul(self, other: "Jet") -> "Jet":
        val = self.val * other.val
        if self.dxn is None or other.dxn is None:
            return Jet(val, None)
        return Jet(val, self.val * other.dxn + self.dxn * other.val)

    def scale(self, c) -> "Jet":
        return Jet(self.val * c, None if self.dxn is None else self.dxn * c)


def trace_product(e1: CliffordElement, e2: CliffordElement) -> RationalXi:
    """trace(e1 * e2) per unit trace, without building the full product
    element.  Canonical words hold distinct sorted generators, so w1 * w2 is
    a scalar exactly when w1 == w2."""
    alg = e1.algebra
    acc = RationalXi.zero()
    for w, c1 in e1.terms.items():
        c2 = e2.terms.get(w)
        if c2 is not None:
            x = c1 * c2
            acc = acc + (x if alg.normalize_word(w + w)[0] > 0 else -x)
    return acc


# ---------------------------------------------------------------------------
# The boundary model
# ---------------------------------------------------------------------------

class BoundaryModel:
    """Collar-metric data at a boundary point, on the unit cosphere.

    The frame is the algebra's unhatted generators in order: the last one is
    the conormal c(dx_n), and each other one is tangential, paired with its
    cosphere coordinate, a<i> in the first family and b<i> in the second.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.frame = [g for g in algebra.gens() if algebra.square(g) < 0]
        *self.tangential, self.normal = self.frame
        self.n = len(self.frame)
        self.coords = [f"{'ab'[family]}{i + 1}" for family, i in self.tangential]
        self._jets = {}  # symbol_jet memo
        self._subs = self._normal_coordinate_table()

    # -- index helpers -------------------------------------------------------
    def gen_index(self, g: Gen) -> int:
        """Global frame index 0..n-1 (tangential order, then the normal)."""
        return self.frame.index(g)

    @property
    def leaf_gens(self) -> list[Gen]:
        return [g for g in self.frame if g[0] == 0]

    @property
    def perp_gens(self) -> list[Gen]:
        """c(h_*) generators, normal included (empty for the spin model)."""
        return [g for g in self.frame if g[0] == 1]

    def hatted(self, g: Gen) -> Gen:
        return (2, g[1])

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

    def reduce_coeff(self, poly: ScalarPoly) -> ScalarPoly:
        """The normal-coordinate contract applied to a coefficient."""
        return poly.subs_many(self._subs)

    # -- Clifford-valued building blocks ---------------------------------------
    def gen_elem(self, g: Gen, coeff=1) -> CliffordElement:
        return self.algebra.gen(g, RationalXi.const(coeff))

    def c_xi_prime(self) -> CliffordElement:
        out = CliffordElement(self.algebra)
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

    def inv_norm_sq_jet(self) -> Jet:
        """|xi|^{-2} on the cosphere: d/dx_n |xi|^2 (x0) = h'(0)."""
        val = self.algebra.scalar(RationalXi.inv_norm_sq(1))
        dxn = self.algebra.scalar(RationalXi.inv_norm_sq(2) * -h1_poly())
        return Jet(val, dxn)


def foliation_model(p: int, q: int) -> BoundaryModel:
    """Sub-Dirac collar model: dx_n = h_q*, tangential f_1..f_p, h_1..h_{q-1}."""
    if q < 1:
        raise ValueError("foliation model needs q >= 1 (dx_n lies in the perp factor)")
    return BoundaryModel(sub_dirac_algebra(p, q))


def spin_model(n: int) -> BoundaryModel:
    return BoundaryModel(spin_algebra(n))


# ---------------------------------------------------------------------------
# Symbol builders
# ---------------------------------------------------------------------------

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
    return CliffordElement(alg, {word: RationalXi.const(c) for word, c in acc.items()})


def sigma0_DF(model: BoundaryModel) -> CliffordElement:
    """Zeroth-order symbol -1/2 sum_k c(e_k) W_k of the sub-Dirac operator, with
    symbolic connection data; expanding it gives the paper's five sums."""
    out = CliffordElement(model.algebra)
    for g in model.frame:
        word = connection_word(model, model.gen_index(g))
        out = out + model.gen_elem(g, Fraction(-1, 2)) * word
    return out


def sigma_minus1_Dinv(model: BoundaryModel) -> Jet:
    """i c(xi) / |xi|^2 with its x_n-jet."""
    return model.c_xi_jet().mul(model.inv_norm_sq_jet()).scale(GR_I)


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
    main = cxi.val * p0 * cxi.val * inv2
    mid = cxi.val * N * cxi.dxn * inv2
    last = cxi.val * N * cxi.val * (inv3 * h1_poly())
    return Jet(main + mid - last, None)


def sigma_minus3_Dsq(model: BoundaryModel) -> Jet:
    """Third symbol of the inverse square at the boundary point (value only).

    A1 = -2i h'(0) xi_n |xi|^{-6};  A2 = -i |xi|^{-4} xi_k (Gamma^k + W_k).
    The collar metric g_ab = delta_ab / h(x_n) gives
    Gamma^n(x0) = -1/2 g^ab d_n g_ab = (n-1)/2 h'(0); tangential Gamma^k(x0) = 0.
    """
    alg = model.algebra
    xi = RationalXi.xi()
    inv2 = RationalXi.inv_norm_sq(2)
    inv3 = RationalXi.inv_norm_sq(3)

    a1 = alg.scalar(xi * inv3 * (h1_poly() * GaussianRational(0, -2)))

    # k = n: xi_n ( Gamma^n + W_n )
    a2 = alg.scalar(xi * inv2 * (h1_poly() * GaussianRational(Fraction(model.n - 1, 2))))
    a2 = a2 + connection_word(model, model.n - 1) * (xi * inv2)
    # tangential k: coordinate-weighted word terms (odd on the cosphere)
    for g, name in zip(model.tangential, model.coords):
        wt = connection_word(model, model.gen_index(g))
        if not wt.is_zero():
            a2 = a2 + wt * (inv2 * ScalarPoly.symbol(name))
    a2 = a2 * GaussianRational(0, -1)
    return Jet(a1 + a2, None)


_BUILDERS = {
    (1, -1): sigma_minus1_Dinv,
    (1, -2): sigma_minus2_Dinv,
    (2, -2): BoundaryModel.inv_norm_sq_jet,
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

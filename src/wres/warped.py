"""Warped-product geometry for the interval-times-3-manifold model: warp
function parsing, truncated-Taylor differentiation to third order, the
connection/curvature contractions, and the spectral-action coefficients by
adaptive quadrature.

Boundary orientation: the t = a endpoint uses the inward normal +d/dt, the
t = b endpoint uses -d/dt, so odd-in-normal invariants flip sign between the
two slices.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from .heat import A4_BOUNDARY_PRINTED, SPINOR, CurvatureData, boundary_coeffs, bracket, v_nk
from .symbolic import power

QUAD_TOL = 1e-10  # relative tolerance of the adaptive quadrature

# the model's dimension and trace dimension (the interval-leaf value), and
# the prefactors T (4 pi)^(-m/2) of the interior and T (4 pi)^(-(m-1)/2) of
# the boundary coefficients
_DIM = 4
_TOTAL_DIM = 8
_C_INTERIOR = float(_TOTAL_DIM) * (4.0 * math.pi) ** (-_DIM / 2)
_C_BOUNDARY = float(_TOTAL_DIM) * (4.0 * math.pi) ** (-(_DIM - 1) / 2)


class WarpSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")


class WarpDomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Order-3 jets (value and first three derivatives)
# ---------------------------------------------------------------------------

class Jet3:
    """(f, f', f'', f''') at a point with exact chain-rule propagation."""

    __slots__ = ("d",)

    def __init__(self, d0, d1=0.0, d2=0.0, d3=0.0):
        self.d = (d0, d1, d2, d3)

    @classmethod
    def variable(cls, t):
        return cls(t, 1.0)

    def __add__(self, o):
        a, b = self.d, o.d
        return Jet3(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, o):
        a, b = self.d, o.d
        return Jet3(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __mul__(self, o):
        a, b = self.d, o.d
        return Jet3(
            a[0] * b[0],
            a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
            a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3],
        )

    def compose(self, f0, f1, f2, f3) -> "Jet3":
        """Outer function with the given derivatives at self.value (Faa di Bruno)."""
        g1, g2, g3 = self.d[1], self.d[2], self.d[3]
        return Jet3(
            f0,
            f1 * g1,
            f2 * g1 * g1 + f1 * g2,
            f3 * g1 ** 3 + 3 * f2 * g1 * g2 + f1 * g3,
        )

    def inverse(self):
        v = self.d[0]
        return self.compose(_reciprocal(v), -1 / v ** 2, 2 / v ** 3, -6 / v ** 4)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k: int):
        return power(self, k, Jet3(1.0), Jet3.inverse)

    @property
    def value(self):
        return self.d[0]

    def derivatives(self):
        return self.d


# Scalar helpers shared by the jets' value component and ``VALUE_RULES``.

def _reciprocal(v: float) -> float:
    if v == 0:
        raise WarpDomainError("division by zero in warp evaluation")
    return 1 / v


def _log(v: float) -> float:
    if v <= 0:
        raise WarpDomainError(f"ln of nonpositive value {v}")
    return math.log(v)


# the warp vocabulary: every function name a warp may call, with its float
# function and the function of v that gives (f, f', f'', f''') at v, the value
# first and through the float function, so a jet raises where its value does
_FUNCTIONS = {
    "sin": (math.sin, lambda v: (math.sin(v), math.cos(v), -math.sin(v), -math.cos(v))),
    "cos": (math.cos, lambda v: (math.cos(v), -math.sin(v), -math.cos(v), math.sin(v))),
    "exp": (math.exp, lambda v: (math.exp(v),) * 4),
    "sinh": (math.sinh, lambda v: (math.sinh(v), math.cosh(v)) * 2),
    "cosh": (math.cosh, lambda v: (math.cosh(v), math.sinh(v)) * 2),
    "ln": (_log, lambda v: (_log(v), 1 / v, -1 / v ** 2, 2 / v ** 3)),
}


def _chain_rule(derivatives):
    return lambda x: x.compose(*derivatives(x.d[0]))


# The arithmetic ``compile_ast`` evaluates a warp in: a constant from its
# float, division, integer powers and the named functions.  Sums, differences
# and products are the operators of the scalar type.
JET_RULES = SimpleNamespace(const=Jet3, divide=Jet3.__truediv__, power=Jet3.__pow__,
                            functions={name: _chain_rule(derivatives)
                                       for name, (_, derivatives) in _FUNCTIONS.items()})


def _divide_values(a: float, b: float) -> float:
    return a * _reciprocal(b)


def _power_value(x: float, k: int) -> float:
    return power(x, k, 1.0, _reciprocal)


# The float evaluator: each rule is the value component of its jet rule,
# through the same helpers and the float functions of ``_FUNCTIONS``, so a
# warp's float at a point has the bits of its jet's d[0] there, and it raises
# where the jet's value raises.  It does not raise where only a derivative would:
# where v ** 2 .. v ** 4 underflow (to a division by zero) or overflow in
# ``Jet3.inverse`` and ln's derivatives, or g1 ** 3 overflows in
# ``Jet3.compose``.  (The jets of sin and cos call both math.sin and math.cos,
# which fail at the same arguments, and those of sinh and cosh both math.sinh
# and math.cosh, which overflow at the same arguments.)  So only the jet
# oracle uses it, at its finite-difference stencil points: the oracle's warps
# divide by and take ln of x*x + 1 >= 1, and its filter bounds every subtree
# by 1e8 at the probes, so it never meets those cases.  ``WarpFunction`` stays
# on jets, and a user's warp keeps its errors.
VALUE_RULES = SimpleNamespace(const=float, divide=_divide_values, power=_power_value,
                              functions={name: value for name, (value, _) in _FUNCTIONS.items()})


# ---------------------------------------------------------------------------
# Warp-function grammar
# ---------------------------------------------------------------------------
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := base ('^' integer)?
# base   := number | 't' | ident '(' expr ')' | '(' expr ')'
# A warp is scanned whole into tokens before it is parsed.

# Deepest AST, and deepest nesting of parentheses and calls, that a warp may
# have.  Parsing, compiling and evaluation recurse once per level, so this
# keeps them well inside the interpreter's recursion limit.
MAX_WARP_DEPTH = 100


# One warp token per match, the first alternative that matches winning: a
# number (decimal digits and dots, from a digit or from a dot before one), a
# name, an operator, or any other character, which is an error.  Whitespace
# matches nothing, so it separates tokens.  \d, \w and \s read what
# str.isdecimal, str.isalnum (and '_') and str.isspace read; isdecimal gives
# the digits Fraction reads, so '2²' fails here with its offset.
_TOKEN = re.compile(r"(?P<num>(?:\d|\.(?=\d))[\d.]*)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|\S")


def _tokens(text: str) -> list[tuple[str, str | None, int]]:
    """The tokens of the whole warp as (kind, source text, offset), ending in
    ("end", None, len(text)); an operator's kind is its text."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, off = match.lastgroup, match.group(), match.start()
        if kind == "num" and (token.count(".") > 1 or token.endswith(".")):
            raise WarpSyntaxError("malformed number", off)
        # [^\W\d] also admits digits that are not decimal, like '²' and '½',
        # and no name starts with those
        if kind is None or kind == "ident" and not (token[0].isalpha() or token[0] == "_"):
            raise WarpSyntaxError(f"unexpected character {token[0]!r}", off)
        tokens.append((token if kind == "op" else kind, token, off))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_warp(text: str) -> "WarpFunction":
    """Parse the warp grammar into an AST; errors carry the character offset.

    Each parse function returns (node, AST depth); both the AST depth and the
    nesting of parentheses and calls are limited to MAX_WARP_DEPTH.
    """
    tokens = _tokens(text)
    pos = nesting = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def limit(depth, off):
        if depth > MAX_WARP_DEPTH:
            raise WarpSyntaxError(f"expression nested deeper than {MAX_WARP_DEPTH} levels", off)
        return depth

    def binary(ops):
        # expr with ops "+-", whose operands are terms; term with "*/"
        node, depth = binary("*/") if ops == "+-" else factor()
        while tokens[pos][0] in ops:
            op, _, off = take()
            rhs, rdepth = binary("*/") if ops == "+-" else factor()
            node, depth = (op, node, rhs), limit(1 + max(depth, rdepth), off)
        return node, depth

    def factor():
        node, depth = base()
        if tokens[pos][0] == "^":
            take()
            sign = 1
            if tokens[pos][0] == "-":
                take()
                sign = -1
            kind, val, off = take()
            if kind != "num" or Fraction(val).denominator != 1:
                raise WarpSyntaxError("exponent must be an integer", off)
            node, depth = ("pow", node, sign * int(Fraction(val))), limit(depth + 1, off)
        return node, depth

    def base():
        nonlocal nesting
        kind, val, off = take()
        if kind == "num":
            return ("num", Fraction(val)), 1
        if kind == "(":
            nesting = limit(nesting + 1, off)
            node = binary("+-")
            _expect(")")
            nesting -= 1
            return node
        if kind == "ident":
            if val == "t":
                return ("t",), 1
            if val not in _FUNCTIONS:
                raise WarpSyntaxError(f"unknown identifier {val!r}", off)
            _expect("(")
            nesting = limit(nesting + 1, off)
            arg, depth = binary("+-")
            nk, _, noff = tokens[pos]
            if nk != ")":
                raise WarpSyntaxError(f"arity mismatch for {val!r}", noff)
            take()
            nesting -= 1
            return ("call", val, arg), limit(depth + 1, off)
        raise WarpSyntaxError("unexpected token: end of input" if val is None
                              else f"unexpected token {val!r}", off)

    def _expect(symbol):
        kind, _, off = take()
        if kind != symbol:
            raise WarpSyntaxError(f"expected {symbol!r}", off)

    node, _ = binary("+-")
    kind, val, off = tokens[pos]
    if kind != "end":
        raise WarpSyntaxError(f"trailing input {val!r}", off)
    return WarpFunction(node)


def _ast_to_string(node) -> str:
    op = node[0]
    if op == "num":
        v: Fraction = node[1]
        return str(v) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if op == "t":
        return "t"
    if op == "call":
        return f"{node[1]}({_ast_to_string(node[2])})"
    if op == "pow":
        return f"({_ast_to_string(node[1])})^{node[2]}"
    return f"({_ast_to_string(node[1])} {op} {_ast_to_string(node[2])})"


def compile_ast(node, record: Callable[[object], object] | None = None,
                rules: SimpleNamespace = JET_RULES) -> Callable:
    """The AST as nested closures from the variable to the warp, in ``rules``:
    from the variable's jet to the warp's jet (the default), or from a float
    to the warp's value with ``VALUE_RULES``.

    Constants are converted once, here; a call makes the same operations in
    the same order as a walk of the tree, and raises the same exceptions.
    With ``record``, every node passes its result to it as it is computed,
    children before their parent.
    """
    op = node[0]
    if op == "num":
        const = rules.const(float(node[1]))
        fn = lambda t: const
    elif op == "t":
        fn = lambda t: t
    elif op == "pow":
        base, k, power = compile_ast(node[1], record, rules), node[2], rules.power
        fn = lambda t: power(base(t), k)
    elif op == "call":
        outer, arg = rules.functions[node[1]], compile_ast(node[2], record, rules)
        fn = lambda t: outer(arg(t))
    elif op in ("+", "-", "*", "/"):
        lhs, rhs = compile_ast(node[1], record, rules), compile_ast(node[2], record, rules)
        if op == "+":
            fn = lambda t: lhs(t) + rhs(t)
        elif op == "-":
            fn = lambda t: lhs(t) - rhs(t)
        elif op == "*":
            fn = lambda t: lhs(t) * rhs(t)
        else:
            divide = rules.divide
            fn = lambda t: divide(lhs(t), rhs(t))
    else:
        raise ValueError(f"bad AST node {op!r}")
    if record is None:
        return fn

    def recorded(t):
        out = fn(t)
        record(out)
        return out
    return recorded


class WarpFunction:
    def __init__(self, ast: tuple):
        self.ast = ast

    @functools.cached_property
    def _compiled(self) -> Callable[[Jet3], Jet3]:
        return compile_ast(self.ast)

    def jet(self, t: float) -> Jet3:
        return self._compiled(Jet3.variable(float(t)))

    def derivatives(self, t: float):
        """(f, f', f'', f''') at t."""
        return self.jet(t).derivatives()

    def __call__(self, t: float) -> float:
        return self.jet(t).value

    def to_string(self) -> str:
        return _ast_to_string(self.ast)


# ---------------------------------------------------------------------------
# The warped model and its curvature data
# ---------------------------------------------------------------------------

class RWModel:
    """Interval times a constant-curvature 3-manifold, warped metric."""

    def __init__(self, a: float, b: float, warp: WarpFunction, curv: float = 0.0,
                 base_vol: float = 1.0):
        if not a < b:
            raise ValueError("need a < b")
        if not base_vol > 0:
            raise ValueError(f"--base-vol must be positive (got {base_vol})")
        self.a, self.b = a, b
        self.warp = warp
        self.curv = curv        # constant sectional curvature of the base
        self.base_vol = base_vol

    # base contractions for R_ijkl = c (delta delta - delta delta): r = 6c, the squares 12c^2
    @property
    def base_r(self):
        return 6.0 * self.curv

    @property
    def base_ric2(self):
        return 12.0 * self.curv ** 2

    base_riem2 = base_rfperp2 = base_ric2

    def volume_element(self, t: float) -> float:
        return self.warp(t) ** 3 * self.base_vol


def _warp_curvature(model: RWModel, t: float, jet: tuple):
    """(f, f', f'', f''', f'/f, f''/f, r~, |Riem|^2 = |Ric|^2) at t, in floats,
    from the warp's jet (f, f', f'', f''') at t."""
    f0, f1, f2, f3 = jet
    if f0 <= 0:
        raise WarpDomainError(f"warp function must be positive (f({t}) = {f0})")
    lf = f1 / f0
    ff = f2 / f0
    r_tilde = model.base_r / f0 ** 2 + 6.0 * (ff + lf * lf)
    return f0, f1, f2, f3, lf, ff, r_tilde, model.base_riem2 + 12.0 * ff * ff


def _a4_integrand(model: RWModel, t: float, jet: tuple) -> float:
    """The interior a4 bracket at an interior point, rounded once."""
    *_, r_tilde, riem2 = _warp_curvature(model, t, jet)
    point = SimpleNamespace(r2=r_tilde ** 2, ric2=riem2, riem2=riem2, rfperp2=model.base_rfperp2)
    return float(bracket(SPINOR[4].interior, point, False))


def warped_geometry(model: RWModel, t: float, normal_sign: int = 1) -> CurvatureData:
    """Curvature data of the warped metric at parameter t.

    ``normal_sign`` is +1 when the inward normal is +d/dt (the t = a slice)
    and -1 at the opposite end; odd-in-normal entries flip accordingly.
    """
    f0, f1, f2, f3, lf, ff, r_tilde, riem2 = _warp_curvature(model, t, model.warp.derivatives(t))
    s = float(normal_sign)
    r_base = model.base_r
    # d/dt of r_tilde, then projected on the inward normal
    dr = (-2.0 * r_base * f1 / f0 ** 3
          + 6.0 * (f3 / f0 - f1 * f2 / f0 ** 2)
          + 12.0 * lf * (f2 / f0 - f1 * f1 / f0 ** 2))
    return CurvatureData(
        vol=0, bvol=0,
        r=r_tilde,
        r2=r_tilde ** 2,
        ric2=riem2,
        riem2=riem2,
        rfperp2=model.base_rfperp2,
        L_aa=-3.0 * s * lf,
        L2_abab=3.0 * lf * lf,
        L2_aabb=9.0 * lf * lf,
        L3_aabbcc=-27.0 * s * lf ** 3,
        L3_ababcc=-9.0 * s * lf ** 3,
        L3_abbcac=-3.0 * s * lf ** 3,
        R_aNaN=3.0 * ff,
        R_aNaN_L_bb=-9.0 * s * lf * ff,
        R_aNbN_L_ab=-3.0 * s * lf * ff,
        R_abcb_L_ac=s * (3.0 * lf * r_base - 18.0 * lf * ff),
        L_aa_bb=0,
        r_N=s * dr,
        r_L_aa=r_tilde * (-3.0 * s * lf),
    )


def quad_adaptive(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Gauss-Kronrod quadrature at relative tolerance ``QUAD_TOL``;
    an estimate beyond the float range raises OverflowError."""
    from .quadpack import quad

    val, err, _, _ = quad(fn, a, b, epsabs=1e-300, epsrel=QUAD_TOL, limit=400)
    if not math.isfinite(val):
        raise OverflowError(f"quadrature estimate {val}")
    if err > 1e3 * QUAD_TOL * max(abs(val), 1.0) + 1e-12:
        raise ValueError(f"quadrature did not converge (estimate {val}, error {err})")
    return val


def gauss_legendre_check(fn: Callable[[float], float], a: float,
                         b: float) -> tuple[float, float]:
    """Gauss-Legendre at 64 and 128 nodes (convergence diagnostic)."""
    from .quadpack import gauss_legendre

    half, mid = 0.5 * (b - a), 0.5 * (a + b)

    def with_n(n):
        total = 0
        for x, w in gauss_legendre(n):
            total += w * fn(half * x + mid)
        return half * total

    return with_n(64), with_n(128)


def _interior_integral(model: RWModel, pointwise: Callable[[float, tuple], float]) -> float:
    """The integral of ``pointwise(t, jet)`` against the warped volume element,
    where ``jet`` is the warp's (f, f', f'', f''') at t, evaluated once per point."""

    def integrand(t):
        jet = model.warp.derivatives(t)
        return pointwise(t, jet) * (jet[0] ** 3 * model.base_vol)
    return quad_adaptive(integrand, model.a, model.b)


def _boundary_sum(ends: list, pointwise: Callable[[CurvatureData], float]) -> float:
    total = 0.0
    for data, vol in ends:
        total += pointwise(data) * vol
    return total


class RWCoeffs:
    """Spectral-action coefficients; a4 carries the two boundary readings.
    ``vol`` and ``r_int``, the integrals of 1 and of the scalar curvature
    against the warped volume element, are reused by ``rw_lower_volumes``."""

    def __init__(self, a0: float, a1: float, a2: float, a3: float, a4_interior: float,
                 a4_printed: float, a4_derived: float, diagnostics: dict,
                 vol: float, r_int: float):
        self.a0, self.a1, self.a2, self.a3 = a0, a1, a2, a3
        self.a4_interior = a4_interior
        self.a4_printed = a4_printed    # stated closed-form boundary bracket
        self.a4_derived = a4_derived    # bracket re-derived from the general heat formula
        self.diagnostics = diagnostics
        self.vol, self.r_int = vol, r_int

    def as_dict(self):
        return {
            "a0": self.a0, "a1": self.a1, "a2": self.a2, "a3": self.a3,
            "a4_interior": self.a4_interior,
            "a4_printed_bracket": self.a4_printed,
            "a4_derived_bracket": self.a4_derived,
        }


def rw_spectral_coeffs(model: RWModel) -> RWCoeffs:
    """a0..a4 for the 4-dimensional warped model (Dirichlet condition) at
    trace dimension 8.

    Interior integrals use adaptive quadrature against the warped volume
    element; boundary terms are evaluated at both endpoints with the
    orientation convention above.
    """
    c_i, c_b = _C_INTERIOR, _C_BOUNDARY
    vol = _interior_integral(model, lambda t, jet: 1.0)
    a0 = c_i * vol
    # the exact curvature data at t = a and at t = b, each with its volume element
    ends = [(warped_geometry(model, t, sign), model.volume_element(t))
            for t, sign in ((model.a, 1), (model.b, -1))]

    def boundary(coeffs):
        return _boundary_sum(ends, lambda d: float(bracket(coeffs, d, True)))

    # a_k = c * prefactor * (brackets), the prefactors read from the table
    a1 = c_b * float(SPINOR[1].prefactor) * boundary(SPINOR[1].boundary)
    r_int = _interior_integral(model, lambda t, jet: _warp_curvature(model, t, jet)[6])
    a2 = c_i * float(SPINOR[2].prefactor) * (_a2_interior(r_int) + boundary(SPINOR[2].boundary))
    a3 = c_b * float(SPINOR[3].prefactor) * boundary(SPINOR[3].boundary)

    c4 = c_i * float(SPINOR[4].prefactor)
    a4_int = c4 * _interior_integral(model, lambda t, jet: _a4_integrand(model, t, jet))
    a4_derived = a4_int + c4 * boundary(SPINOR[4].boundary)
    a4_printed = a4_int + c4 * boundary(A4_BOUNDARY_PRINTED)

    # consistency of the assembled a0..a2 against the generic bounded-manifold
    # formulas fed the same warped data (reported; asserted by the test suite)
    diag = _consistency_against_generic(ends, (a0, a1, a2, a3), vol, r_int)
    return RWCoeffs(a0, a1, a2, a3, a4_int, a4_printed, a4_derived, diag, vol, r_int)


def _a2_interior(r_int: float) -> float:
    """a2's interior bracket, -r/2, on the integrated scalar curvature (in
    floats, not through ``bracket``: a Fraction would drop the sign of a zero)."""
    return float(SPINOR[2].interior["r"]) * r_int


def _consistency_against_generic(ends: list, got, vol, r_int):
    bvol = Fraction(_boundary_sum(ends, lambda d: 1.0))

    def bavg(getter):
        return Fraction(_boundary_sum(ends, lambda d: float(getter(d)))) / bvol

    # feed boundary-averaged totals through the generic Dirichlet formulas
    hc = boundary_coeffs(CurvatureData(
        vol=Fraction(vol), bvol=bvol,
        r=Fraction(r_int) / Fraction(vol),
        L_aa=bavg(lambda d: d.L_aa),
        L2_abab=bavg(lambda d: d.L2_abab),
        L2_aabb=bavg(lambda d: d.L2_aabb),
        R_aNaN=bavg(lambda d: d.R_aNaN),
        r_bd=bavg(lambda d: d.r),
    ), _DIM, _TOTAL_DIM)
    generic = [complex(x.numeric()).real for x in (hc.a0, hc.a1, hc.a2, hc.a3)]
    return {
        "generic_a0": generic[0], "generic_a1": generic[1],
        "generic_a2": generic[2], "generic_a3": generic[3],
        "residual_a0": abs(generic[0] - got[0]),
        "residual_a1": abs(generic[1] - got[1]),
        "residual_a2": abs(generic[2] - got[2]),
        "residual_a3": abs(generic[3] - got[3]),
    }


def asymptotic_action(coeffs: RWCoeffs, moments: dict, scale: float) -> dict[str, float]:
    """scale^4 F_4 a0 + scale^3 F_3 a1 + scale^2 F_2 a2 + scale F_1 a3 + F_0 a4 for the
    cutoff moments F_k, with the printed and with the derived a4 bracket."""
    return {name: (scale ** 4 * moments[4] * coeffs.a0 + scale ** 3 * moments[3] * coeffs.a1
                   + scale ** 2 * moments[2] * coeffs.a2 + scale * moments[1] * coeffs.a3
                   + moments[0] * a4)
            for name, a4 in (("printed", coeffs.a4_printed), ("derived", coeffs.a4_derived))}


def rw_lower_volumes(model: RWModel, coeffs: RWCoeffs) -> dict:
    """The three lower-volume lines for the circle-times-base model (closed,
    no boundary terms).  The top line is emitted in both volume-element
    readings: 'weighted' integrates f^3 against the warped volume element,
    'plain' reads the f^3 as the volume element itself.

    ``coeffs`` is ``rw_spectral_coeffs`` of the same model: its interior
    integrals are reused, and only the weighted f^3 is integrated here."""
    m, c_i = _DIM, _C_INTERIOR
    f3_plain, r_int = coeffs.vol, coeffs.r_int
    f3_weighted = _interior_integral(model, lambda t, jet: jet[0] ** 3)

    def vconst(k):
        return complex(v_nk(m, k).numeric()).real

    return {
        "vol_top_k": m,
        "vol_top_weighted": vconst(m) * c_i * f3_weighted,
        "vol_top_plain": vconst(m) * c_i * f3_plain,
        "vol_mid_k": m - 2,
        "vol_mid": vconst(m - 2) * (c_i * float(SPINOR[2].prefactor)) * _a2_interior(r_int),
        # the a4 line would need v_{4,0}, which does not exist (v_{n,k} needs k >= 1)
        "vol_low_k": m - 4,
        "vol_low": 0.0,
        "vol_low_parity_flag": True,
    }

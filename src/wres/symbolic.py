"""Exact scalar arithmetic: Gaussian rationals, multivariate polynomials,
rational functions of the conormal variable with poles restricted to ±i,
the half-plane projection, residue-based line integration, and unit-sphere
monomial moments.

Everything in this module is exact; floats appear only in lossy renderings
of exact values: ``complex()`` of a Gaussian rational and
``UnitValue.numeric``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, pi
from typing import Iterable, Mapping


class DivergentSymbol(ValueError):
    """Raised when a projection/integral is requested for a non-proper symbol."""


class ConditionallyConvergent(ValueError):
    """Raised for degree-gap-1 integrands (not absolutely integrable)."""


def power(x, k: int, one, inverse):
    """x ** k by binary exponentiation from ``one``; a negative k inverts
    the power |k|.  The square after the top bit of k is never used, so it
    is not taken."""
    if k < 0:
        return inverse(power(x, -k, one, inverse))
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
    """Exact element of Q(i), stored as (a + b*i)/d with integers a, b, d,
    d > 0 and gcd(a, b, d) == 1, so that equal values have equal fields.
    ``re`` and ``im`` give the parts as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # both parts are in lowest terms, so over their lcm gcd(a, b, d) == 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _gr_operand(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.d
        if d == other.d:
            return _reduced(self.a + other.a, self.b + other.b, d)
        e = other.d
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _gr_operand(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other):
        other = _gr_operand(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = _gr_operand(other)
        return NotImplemented if other is NotImplemented else other * self.inverse()

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __pow__(self, k: int):
        return power(self, k, GR_ONE, GaussianRational.inverse)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other and not self.b and self.d == 1
        if isinstance(other, Fraction):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):  # a real value hashes as its Fraction, like __eq__ compares
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def __complex__(self):
        # int / int is correctly rounded, so this equals complex(self.re, self.im)
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from fields that already satisfy the invariant."""
    x = object.__new__(GaussianRational)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in lowest terms, for d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _gr(a, b, d)
    return _gr(a // g, b // g, d // g)


# The binary operators of the three coefficient types coerce an operand of a
# lower type and return NotImplemented for any other, so that Python runs the
# other operand's reflected method: GaussianRational * ScalarPoly is the
# polynomial's __rmul__, and a str operand ends in TypeError.

def _gr_operand(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _gr(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _gr(x.numerator, 0, x.denominator)
    return NotImplemented


def _as_gr(x) -> GaussianRational:
    y = _gr_operand(x)
    if y is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
    return y


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

# the plain numbers, which every exact value type takes as an operand
SCALARS = (int, Fraction, GaussianRational)


# ---------------------------------------------------------------------------
# Multivariate polynomials over Q(i) in named formal symbols
# ---------------------------------------------------------------------------

Mono = tuple  # tuple[tuple[str, int], ...] sorted by symbol name

_EMPTY: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in merged.items() if e))


class ScalarPoly:
    """Polynomial with GaussianRational coefficients; zero coefficients absent."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, GaussianRational] | None = None):
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()} if terms else {}

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "ScalarPoly":
        return cls({_EMPTY: _as_gr(c)})

    @classmethod
    def symbol(cls, name: str) -> "ScalarPoly":
        return cls({((name, 1),): GR_ONE})

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def one(cls) -> "ScalarPoly":
        return cls.const(1)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        other = _poly_operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, x in other.terms.items():
            out[m] = out[m] + x if m in out else x
        return ScalarPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _sp({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """A constant operand (a number, or one term on the empty monomial)
        returns or scales the other operand; only two polynomials take the
        double loop."""
        if other.__class__ is not ScalarPoly:
            other = _gr_operand(other)
            return NotImplemented if other is NotImplemented else self._scaled(other)
        a, b = self.terms, other.terms
        if len(b) == 1 and _EMPTY in b:
            return self._scaled(b[_EMPTY])
        if len(a) == 1 and _EMPTY in a:
            return other._scaled(a[_EMPTY])
        out: dict[Mono, GaussianRational] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                x = c1 * c2
                out[m] = out[m] + x if m in out else x
        return ScalarPoly(out)

    __rmul__ = __mul__

    def _scaled(self, c: GaussianRational) -> "ScalarPoly":
        """self * c: self itself for 1 (values are never mutated), its negation
        for -1, else every coefficient times c, none of them zero."""
        if not c.b and c.d == 1:
            if c.a == 1:
                return self
            if c.a == -1:
                return -self
            if not c.a:
                return ScalarPoly()
        return _sp({m: x * c for m, x in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        return power(self, k, ScalarPoly.one(), None)

    # -- queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> GaussianRational | None:
        """The value if this polynomial is constant, else None."""
        if not self.terms:
            return GR_ZERO
        if len(self.terms) == 1 and _EMPTY in self.terms:
            return self.terms[_EMPTY]
        return None

    def symbols(self) -> set:
        out = set()
        for m in self.terms:
            out.update(name for name, _ in m)
        return out

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = ScalarPoly.const(other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        c = self.constant_value()
        return hash(c) if c is not None else hash(frozenset(self.terms.items()))

    # -- substitution ---------------------------------------------------------
    def subs_many(self, table: Mapping[str, "ScalarPoly"]) -> "ScalarPoly":
        """Substitute every name of ``table`` in one pass over the monomials.

        Equals substituting the names one after another only when no value
        mentions a name of the table.
        """
        out: dict[Mono, GaussianRational] = {}
        for m, c in self.terms.items():
            kept = tuple((n, e) for n, e in m if n not in table)
            if len(kept) == len(m):
                pieces = ((m, c),)
            else:
                value = ScalarPoly({_EMPTY: c})
                for n, e in m:
                    if n in table:
                        value = value * _as_poly(table[n]) ** e
                pieces = ((_mono_mul(kept, m2), c2) for m2, c2 in value.terms.items())
            for m2, x in pieces:
                out[m2] = out[m2] + x if m2 in out else x
        return ScalarPoly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{e}" if e > 1 else n for n, e in m)
            bits.append(f"{c!r}*{mono}" if mono else repr(c))
        return " + ".join(bits)


def _sp(terms: dict) -> ScalarPoly:
    """A polynomial from terms that already have no zero coefficient."""
    x = object.__new__(ScalarPoly)
    x.terms = terms
    return x


def _poly_operand(x):
    if isinstance(x, ScalarPoly):
        return x
    if isinstance(x, SCALARS):
        return ScalarPoly.const(x)
    return NotImplemented


def _as_poly(x) -> ScalarPoly:
    y = _poly_operand(x)
    if y is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to ScalarPoly")
    return y


def antisymmetric_symbol(prefix: str, a: int, b: int) -> ScalarPoly:
    """Placeholder for an entry antisymmetric in (a, b): the symbol
    ``{prefix}_{a}_{b}`` for a < b, its negative for a > b, zero for a == b."""
    if a == b:
        return ScalarPoly.zero()
    if a < b:
        return ScalarPoly.symbol(f"{prefix}_{a}_{b}")
    return -ScalarPoly.symbol(f"{prefix}_{b}_{a}")


# ---------------------------------------------------------------------------
# Rational functions of xi_n with poles only at +/- i
# ---------------------------------------------------------------------------

class RationalXi:
    """num(xi) / ((xi - i)^mp * (xi + i)^mm), num with ScalarPoly coefficients.

    Not unique: num may share (xi -+ i) factors with the denominator, and
    ``_normalize`` gives the lowest-terms copy.  Values produced by the symbol
    builders are proper (deg num < mp + mm); intermediate arithmetic may not be.
    """

    __slots__ = ("num", "mp", "mm")

    def __init__(self, num: Iterable, mp: int = 0, mm: int = 0):
        coeffs = [_as_poly(c) for c in num]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.num = tuple(coeffs)
        self.mp = mp
        self.mm = mm

    # -- canonicalization ---------------------------------------------------
    def _normalize(self) -> "RationalXi":
        """The lowest-terms copy; zero gets no poles."""
        num, orders = self.num, [self.mp, self.mm]
        for side, root in enumerate((GR_I, -GR_I)):
            # divide out (xi - root) while it divides, at most the pole order times
            while num and orders[side]:
                quotient, remainder = _divide_linear(num, root)
                if not remainder.is_zero():
                    break
                num, orders[side] = quotient, orders[side] - 1
        return RationalXi(num, *orders) if num else RationalXi.zero()

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((c,), 0, 0)

    @classmethod
    def xi(cls):
        return cls((0, 1), 0, 0)

    @classmethod
    def inv_norm_sq(cls, k: int = 1):
        """1 / (1 + xi^2)^k, the on-cosphere |xi|^{-2k}."""
        return cls((1,), k, k)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = _rx_operand(other)
        if other is NotImplemented:
            return NotImplemented
        mp = max(self.mp, other.mp)
        mm = max(self.mm, other.mm)
        return RationalXi(_poly_add(self._raised(mp, mm), other._raised(mp, mm)), mp, mm)

    __radd__ = __add__

    def __neg__(self):
        return RationalXi([-c for c in self.num], self.mp, self.mm)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (*SCALARS, ScalarPoly)):
            return RationalXi([p * other for p in self.num], self.mp, self.mm)
        if other.__class__ is not RationalXi:
            return NotImplemented
        a, b = self.num, other.num
        if len(b) == 1:  # a constant numerator, such as inv_norm_sq's
            num = [x * b[0] for x in a]
        elif len(a) == 1:
            num = [a[0] * y for y in b]
        else:
            num = _poly_mul(a, b)
        return RationalXi(num, self.mp + other.mp, self.mm + other.mm)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _rx_operand(other)
        return NotImplemented if other is NotImplemented else (self - other).is_zero()

    def __hash__(self):
        r = self._normalize()
        if not r.mp and not r.mm and len(r.num) <= 1:  # a constant hashes as its value
            return hash(r.num[0]) if r.num else 0
        return hash((r.num, r.mp, r.mm))

    def is_zero(self) -> bool:
        return not self.num

    def _raised(self, mp: int, mm: int):
        """The numerator over (xi - i)^mp * (xi + i)^mm, for mp, mm at least the orders."""
        num = self.num
        for _ in range(mp - self.mp):
            num = _times_linear(num, GR_I)
        for _ in range(mm - self.mm):
            num = _times_linear(num, -GR_I)
        return num

    # -- structure ------------------------------------------------------------
    def degree_gap(self) -> int:
        """Denominator degree minus numerator degree (decay order at infinity)."""
        return (self.mp + self.mm) - (len(self.num) - 1)

    def map_coeffs(self, fn) -> "RationalXi":
        """``fn`` must be Q(i)-linear, so that equal functions map to equal functions."""
        return RationalXi([fn(c) for c in self.num], self.mp, self.mm)

    # -- calculus -------------------------------------------------------------
    def derivative(self) -> "RationalXi":
        """d/dxi via the quotient rule; pole orders each increase by one."""
        if self.is_zero():
            return self
        dnum = [c * (k + 1) for k, c in enumerate(self.num[1:])]
        # N' * (xi-i)(xi+i) - N * (mp*(xi+i) + mm*(xi-i))
        a = _poly_add(dnum, [ScalarPoly.zero()] * 2 + dnum)  # N' * (1 + xi^2)
        b = _poly_mul(self.num, [ScalarPoly.const(GR_I * (self.mm - self.mp)),
                                 ScalarPoly.const(-(self.mp + self.mm))])
        return RationalXi(_poly_add(a, b), self.mp + 1, self.mm + 1)

    # -- the half-plane projection and line integral ---------------------------
    def _upper_taylor(self) -> list[ScalarPoly]:
        """Taylor coefficients of num(i+u) * (2i+u)^{-mm} up to u^{mp-1}."""
        shifted = _shift_poly(self.num, GR_I)  # num(i + u)
        inv = _inv_binomial_series(self.mm, self.mp)
        out = []
        for k in range(self.mp):
            acc = ScalarPoly.zero()
            for j in range(min(k + 1, len(shifted))):
                acc = acc + shifted[j] * inv[k - j]
            out.append(acc)
        return out

    def pi_plus(self) -> "RationalXi":
        """Partial-fraction part with poles only at xi = +i (Cauchy projection)."""
        if self.is_zero():
            return self
        if self.degree_gap() < 1:
            raise DivergentSymbol("divergent symbol")
        if self.mp == 0:
            return RationalXi.zero()
        # pi+ f = sum_j coeffs[j] (xi-i)^j / (xi-i)^mp: the numerator is the
        # truncated Taylor polynomial in u = xi - i, shifted back to xi
        return RationalXi(_shift_poly(self._upper_taylor(), -GR_I), self.mp, 0)

    def integrate_pi_coefficient(self) -> ScalarPoly:
        """(1/pi) * integral over R: equals 2i * residue at +i.  Exact."""
        if self.is_zero():
            return ScalarPoly.zero()
        gap = self.degree_gap()
        if gap <= 0:
            raise DivergentSymbol("divergent symbol")
        if gap == 1:
            raise ConditionallyConvergent("conditionally convergent, unsupported")
        if self.mp == 0:
            return ScalarPoly.zero()
        return self._upper_taylor()[self.mp - 1] * (GR_I * 2)

    def __repr__(self):
        num = " + ".join(f"({c!r})*xi^{k}" if k else f"({c!r})"
                         for k, c in enumerate(self.num)) or "0"
        den = ""
        if self.mp:
            den += f"(xi-i)^{self.mp}"
        if self.mm:
            den += f"(xi+i)^{self.mm}"
        return f"[{num}] / [{den or '1'}]"


def _rx_operand(x):
    if isinstance(x, RationalXi):
        return x
    if isinstance(x, (*SCALARS, ScalarPoly)):
        return RationalXi((x,), 0, 0)
    return NotImplemented


# Dense coefficient lists of ScalarPoly, constant term first.

def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            z = out[i + j]
            out[i + j] = x * y if z is None else z + x * y
    return [ScalarPoly.zero() if z is None else z for z in out]


def _times_linear(coeffs, root: GaussianRational):
    """Coefficients of (xi - root) * p(xi) given those of p(xi)."""
    if not coeffs:
        return []
    neg = -root
    return ([coeffs[0] * neg]
            + [lo + hi * neg for lo, hi in zip(coeffs, coeffs[1:])]
            + [coeffs[-1]])


def _divide_linear(coeffs, root: GaussianRational):
    """Quotient and remainder of p(xi) / (xi - root) given p's coefficients,
    at least one, by one Horner step at root."""
    quotient = [coeffs[-1]]
    for c in coeffs[-2::-1]:
        quotient.append(c + quotient[-1] * root)
    remainder = quotient.pop()
    quotient.reverse()
    return quotient, remainder


def _shift_poly(coeffs, a: GaussianRational):
    """Coefficients of p(a + u) given those of p(xi): the u^k coefficient is
    the remainder of the k-th successive division by (xi - a)."""
    out = []
    while coeffs:
        coeffs, remainder = _divide_linear(coeffs, a)
        out.append(remainder)
    return out


def _inv_binomial_series(b: int, order: int):
    """Taylor coefficients of (2i + u)^(-b) around u = 0, up to u^(order-1)."""
    if b == 0:
        return [_as_poly(1)] + [ScalarPoly.zero()] * (order - 1)
    inv_a = (GR_I * 2).inverse()
    out = []
    c = inv_a ** b
    for k in range(order):
        out.append(_as_poly(c))
        c = c * GaussianRational(Fraction(-(b + k), k + 1)) * inv_a
    return out


# ---------------------------------------------------------------------------
# Symbolic result values: exact coefficient times a unit word
# ---------------------------------------------------------------------------

U_PI = "pi"
U_TDIM = "l~2^q"  # the formal trace dimension l~ 2^q
U_H1 = "h'(0)"  # the normal metric derivative at the boundary point

# numeric values of the units (lossy rendering only); every other unit, the
# cosphere-measure labels Omega2..Omega4 among them, renders no float
_UNIT_NUMERIC = {U_PI: pi}


class UnitValue:
    """coefficient * product(base^exponent).

    Bases are "pi", opaque units (Omega3, h'(0), Vol_dM, dx', l~2^q, I_Gr,b,
    integral placeholders) with Fraction exponents, and small prime bases for
    radicals such as 2^(1/2).  Compared exactly; addition requires equal units.
    """

    __slots__ = ("coeff", "powers")

    def __init__(self, coeff, powers: Mapping[str, Fraction] | None = None):
        self.coeff = _as_gr(coeff)
        pw: dict[str, Fraction] = {}
        for base, e in (powers or {}).items():
            e = Fraction(e)
            if e == 0:
                continue
            pw[base] = pw.get(base, Fraction(0)) + e
        # fold integer powers of numeric prime bases into the coefficient
        for base in list(pw):
            if base.isdigit():
                n = int(pw[base].__floor__())
                frac = pw[base] - n
                if n:
                    self.coeff = self.coeff * (GaussianRational(int(base)) ** n)
                if frac:
                    pw[base] = frac
                else:
                    del pw[base]
        if self.coeff.is_zero():
            pw = {}
        self.powers = dict(sorted(pw.items()))

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def unit(cls, name: str):
        return cls(1, {name: Fraction(1)})

    def is_zero(self):
        return self.coeff.is_zero()

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return UnitValue(self.coeff * other, self.powers)
        merged = dict(self.powers)
        for b, e in other.powers.items():
            merged[b] = merged.get(b, Fraction(0)) + e
        return UnitValue(self.coeff * other.coeff, merged)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SCALARS):
            return UnitValue(self.coeff / other, self.powers)
        inv = UnitValue(other.coeff.inverse(), {b: -e for b, e in other.powers.items()})
        return self * inv

    def __neg__(self):
        return UnitValue(-self.coeff, self.powers)

    def __add__(self, other):
        if isinstance(other, SCALARS):
            other = UnitValue(other)  # a plain number is a unitless value
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.powers != other.powers:
            raise ValueError(f"unit mismatch: {self.powers} vs {other.powers}")
        return UnitValue(self.coeff + other.coeff, self.powers)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            return self.coeff == other and not self.powers
        if not isinstance(other, UnitValue):
            return NotImplemented
        return self.coeff == other.coeff and self.powers == other.powers

    def __hash__(self):
        if not self.powers:  # a plain number hashes as that number
            return hash(self.coeff)
        return hash((self.coeff, tuple(self.powers.items())))

    def substitute(self, name: str, value: "UnitValue") -> "UnitValue":
        """Replace an opaque unit by another exact value (e.g. dx' -> Vol)."""
        if name not in self.powers:
            return self
        e = self.powers[name]
        if e != int(e) or e < 0:
            raise ValueError(f"cannot substitute fractional power of {name}")
        rest = {b: x for b, x in self.powers.items() if b != name}
        return UnitValue(self.coeff, rest) * power(value, int(e), UnitValue(1), None)

    def numeric(self) -> complex:
        """Lossy float rendering; opaque units need values in the table."""
        v = complex(self.coeff)
        for b, e in self.powers.items():
            if b.isdigit():
                v *= float(int(b)) ** float(e)
            elif b in _UNIT_NUMERIC:
                v *= _UNIT_NUMERIC[b] ** float(e)
            else:
                raise KeyError(f"no numeric value for unit {b!r}")
        return v

    def json_obj(self):
        units = []
        for b, e in self.powers.items():
            if e == 1:
                units.append(b)
            else:
                units.append(f"{b}^{e}")
        coef = (_frac_str(self.coeff.re) if self.coeff.im == 0
                else {"re": _frac_str(self.coeff.re), "im": _frac_str(self.coeff.im)})
        return {"coef": coef, "unit": units}

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = [repr(self.coeff)]
        for b, e in self.powers.items():
            bits.append(b if e == 1 else f"{b}^{e}")
        return "*".join(bits)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def integrate_line(f: RationalXi) -> UnitValue:
    """Exact line integral over R of a proper rational function: 2*pi*i*Res(+i).

    Requires a symbol-free coefficient ring; degree gap >= 2.
    """
    coeff = f.integrate_pi_coefficient().constant_value()
    if coeff is None:
        raise ValueError("integrand coefficients carry formal symbols; "
                         "use integrate_pi_coefficient for the symbolic path")
    return UnitValue(coeff, {U_PI: Fraction(1)})


# ---------------------------------------------------------------------------
# Unit-sphere moments
# ---------------------------------------------------------------------------

def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_moment_ratio(exponents: Iterable[int], m: int) -> Fraction:
    """integral over S^{m-1} of x^alpha, as a fraction of the total measure.

    Gamma-product formula; zero when any exponent is odd.
    """
    if m < 1:
        raise ValueError("ambient dimension must be >= 1")
    alphas = list(exponents)
    if any(a < 0 for a in alphas):
        raise ValueError("negative exponent")
    if any(a % 2 for a in alphas):
        return Fraction(0)
    total = sum(alphas)
    if total == 0:
        return Fraction(1)
    num = 1
    for a in alphas:
        num *= _double_factorial(a - 1)
    den = 1
    for j in range(total // 2):
        den *= m + 2 * j
    return Fraction(num, den)


def gamma_exact(two_z: int) -> tuple[Fraction, Fraction]:
    """Gamma(two_z / 2) = rational * pi^(0 or 1/2); returns (rational, pi exponent)."""
    if two_z <= 0:
        raise ValueError("Gamma argument must be positive")
    if two_z % 2 == 0:
        return Fraction(factorial(two_z // 2 - 1)), Fraction(0)
    # Gamma(m + 1/2) = (2m-1)!! / 2^m * sqrt(pi)
    mhalf = two_z // 2
    return Fraction(_double_factorial(2 * mhalf - 1), 2 ** mhalf), Fraction(1, 2)


def sphere_measure(m: int) -> UnitValue:
    """vol(S^{m-1}) = 2 pi^(m/2) / Gamma(m/2) as an exact rational times a power of pi."""
    gamma, gamma_pi = gamma_exact(m)
    return UnitValue(2 / gamma, {U_PI: Fraction(m, 2) - gamma_pi})


def sphere_moment(exponents: Iterable[int], m: int) -> UnitValue:
    """Exact moment as a rational multiple of the opaque unit Omega_{m-1}."""
    q = sphere_moment_ratio(exponents, m)
    return UnitValue(q, {f"Omega{m - 1}": Fraction(1)})


def sphere_integrate(poly: ScalarPoly, coords: list[str], m: int) -> ScalarPoly:
    """Integrate a polynomial in the sphere coordinates over S^{m-1}.

    Returns the coefficient of the total measure (a polynomial in the
    remaining symbols).  Coordinates not listed are treated as constants.
    """
    coord_set = set(coords)
    out: dict[Mono, GaussianRational] = {}
    for mono, c in poly.terms.items():
        exps = {n: e for n, e in mono if n in coord_set}
        rest = tuple((n, e) for n, e in mono if n not in coord_set)
        ratio = sphere_moment_ratio([exps.get(n, 0) for n in coords], m)
        if ratio == 0:
            continue
        x = c * ratio
        out[rest] = out[rest] + x if rest in out else x
    return ScalarPoly(out)

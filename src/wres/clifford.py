"""Exact algebra of anticommuting generator families acting on S(F) x Lambda(F-perp*).

Three families for the sub-Dirac setting: c(f_i) and c(h_s) square to -1,
the hatted actions square to +1; all distinct generators anticommute.  The
trace functional is totalDim times the identity-word coefficient, which makes
every nonempty canonical word traceless.  The oracle that checks the normal
ordering is a Jordan-Wigner representation by exact monomial matrices: each
word acts as a signed permutation with entries in {0, +-1, +-i}, kept as a
column and a power of i per row in plain ints.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import Iterable, Sequence

from .symbolic import SCALARS, GaussianRational, ScalarPoly, _as_poly


class AlgebraSignature(namedtuple("AlgebraSignature", "p q")):
    """Leaf dimension p and codimension q of the splitting TM = F + F_perp."""

    __slots__ = ()

    @property
    def leaf_dim(self) -> int:
        # dim S(F) = 2^floor(p/2)
        return 2 ** (self.p // 2)

    @property
    def total_dim(self) -> int:
        return self.leaf_dim * 2 ** self.q


# A generator is (family_index, index); families are ordered, and words are
# kept sorted by generator with strictly increasing entries.
Gen = tuple
Word = tuple


class Algebra:
    """Clifford-type algebra from ordered generator families with given squares."""

    def __init__(self, families: Sequence[tuple[str, int, int]]):
        for name, count, square in families:
            if square not in (-1, 1):
                raise ValueError("generator squares must be +1 or -1")
            if count < 0:
                raise ValueError("negative family size")
        self.families = tuple((name, count, square) for name, count, square in families)

    def gens(self) -> list[Gen]:
        return [(f, i) for f, (_, count, _) in enumerate(self.families)
                for i in range(count)]

    def square(self, gen: Gen) -> int:
        return self.families[gen[0]][2]

    def gen_name(self, gen: Gen) -> str:
        return f"{self.families[gen[0]][0]}{gen[1] + 1}"

    # -- normal ordering -----------------------------------------------------
    def normalize_word(self, gens: Iterable[Gen]) -> tuple[int, Word]:
        """Sort a raw product; returns (sign-ish scalar, canonical word).

        The scalar is +-1 from anticommutations and squares (squares of the
        hatted family contribute +1, the rest -1).
        """
        seq = list(gens)
        sign = 1
        # insertion sort with anticommutation signs
        i = 1
        while i < len(seq):
            j = i
            while j > 0 and seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                sign = -sign
                j -= 1
            if j > 0 and seq[j - 1] == seq[j]:
                sign *= self.square(seq[j])
                del seq[j - 1:j + 1]
                i = max(j - 1, 1)
            else:
                i += 1
        return sign, tuple(seq)

    def scalar(self, c) -> "CliffordElement":
        return CliffordElement(self, {(): _as_coeff(c)})

    def gen(self, g: Gen, coeff=1) -> "CliffordElement":
        return CliffordElement(self, {(g,): _as_coeff(coeff)})


def sub_dirac_algebra(p: int, q: int) -> Algebra:
    """c(f_1..f_p), c(h_1..h_q), hatted c(h_1..h_q)."""
    return Algebra([("f", p, -1), ("h", q, -1), ("H", q, 1)])


def spin_algebra(n: int) -> Algebra:
    return Algebra([("e", n, -1)])


def _as_coeff(c):
    """Plain numbers become constant polynomials; ring elements pass through."""
    return _as_poly(c) if isinstance(c, SCALARS) else c


class CliffordElement:
    """Linear combination of canonical words.

    The coefficients may come from any commutative ring that multiplies with
    plain numbers: ScalarPoly for the algebra itself, RationalXi for the
    boundary symbols (which also use the conormal calculus ``dxi`` and
    ``pi_plus``).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()} if terms else {}

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            other = self.algebra.scalar(other)
        out = dict(self.terms)
        for w, x in other.terms.items():
            out[w] = out[w] + x if w in out else x
        return CliffordElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return self.map_coeffs(lambda c: c * other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                sign, w = self.algebra.normalize_word(w1 + w2)
                x = c1 * c2 if sign > 0 else -(c1 * c2)
                out[w] = out[w] + x if w in out else x
        return CliffordElement(self.algebra, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = self.algebra.scalar(other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if not self.terms.keys() - {()}:  # a scalar hashes as its coefficient
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def map_coeffs(self, fn) -> "CliffordElement":
        return CliffordElement(self.algebra, {w: fn(c) for w, c in self.terms.items()})

    def trace(self, total_dim):
        """totalDim times the identity-word coefficient."""
        return self.terms.get((), ScalarPoly.zero()) * total_dim

    def dxi(self, order: int = 1) -> "CliffordElement":
        """d/dxi of every RationalXi coefficient."""
        out = self
        for _ in range(order):
            out = out.map_coeffs(lambda c: c.derivative())
        return out

    def pi_plus(self) -> "CliffordElement":
        """Half-plane projection of every RationalXi coefficient."""
        return self.map_coeffs(lambda c: c.pi_plus())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = "*".join(self.algebra.gen_name(g) for g in w) or "1"
            bits.append(f"({c!r})*{word}")
        return " + ".join(bits)


def normalize(algebra: Algebra, gens: Iterable[Gen]) -> CliffordElement:
    """Canonical form of a raw generator word."""
    sign, word = algebra.normalize_word(gens)
    return CliffordElement(algebra, {word: _as_poly(sign)})


# ---------------------------------------------------------------------------
# Matrix oracle (Jordan-Wigner construction on exact monomial matrices)
# ---------------------------------------------------------------------------

# Jordan-Wigner needs ceil(g/2) qubits for g generators; 20 generators
# (p <= 8, q <= 6) give 1024 x 1024 matrices.
MAX_MATRIX_GENS = 20

# A monomial matrix is a pair (cols, phases): row r holds i^phases[r] in
# column cols[r] and zeros elsewhere.
_PAULI_X = ((1, 0), (0, 0))
_PAULI_Y = ((1, 0), (3, 1))  # [[0, -i], [i, 0]]
_PAULI_Z = ((0, 1), (0, 2))
_ONE = ((0, 1), (0, 0))
# i^k as (re, im)
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _kron(a, b):
    """Kronecker product of two monomial matrices (numpy.kron's row order)."""
    (ca, pa), (cb, pb) = a, b
    n = len(cb)
    return (tuple(i * n + j for i in ca for j in cb),
            tuple((x + y) & 3 for x in pa for y in pb))


class MatrixRep:
    """Faithful representation with all nonempty canonical words traceless.

    Jordan-Wigner on ceil(g/2) qubits for g generators; generators with
    square -1 are the JW gammas times i.  Coincides with a totalDim-dim
    module exactly when the leaf dimension is even.

    Every word matrix is monomial with entries in {0, +-1, +-i}.  A generator
    is kept in ``gen_matrices`` as its column per row and the phase k of each
    entry i^k, built as Kronecker products of Pauli monomials; a product of
    generators composes the columns and adds the phases mod 4.  The matrices
    handed out are sparse dicts ``{(row, col): (re, im)}`` of plain ints
    without zero entries, so equal matrices are equal dicts and every product,
    sum and trace is exact.
    """

    def __init__(self, algebra: Algebra):
        g = sum(count for _, count, _ in algebra.families)
        if g > MAX_MATRIX_GENS:
            raise ValueError("representation size guard exceeded")
        self.algebra = algebra
        m = max((g + 1) // 2, 1)
        self.dim = 2 ** m
        self.gen_matrices = {}
        for k, gen in enumerate(algebra.gens()):
            qubit, kind = divmod(k, 2)
            ops = ([_PAULI_Z] * qubit + [_PAULI_X if kind == 0 else _PAULI_Y]
                   + [_ONE] * (m - qubit - 1))
            cols, phases = functools.reduce(_kron, ops)
            if algebra.square(gen) == -1:
                phases = tuple((x + 1) & 3 for x in phases)
            self.gen_matrices[gen] = (cols, phases)

    def _monomial(self, word: Iterable[Gen]):
        """The word's product as (cols, phases)."""
        cols = range(self.dim)
        phases = [0] * self.dim
        for g in word:
            gc, gp = self.gen_matrices[g]
            phases = [(x + gp[c]) & 3 for x, c in zip(phases, cols)]
            cols = [gc[c] for c in cols]
        return cols, phases

    def word_matrix(self, word: Iterable[Gen]) -> dict:
        cols, phases = self._monomial(word)
        return dict(zip(enumerate(cols), (_UNITS[k] for k in phases)))

    def element_matrix(self, elem: CliffordElement) -> dict:
        """Requires constant Gaussian-integer coefficients."""
        out = {}
        for w, c in elem.terms.items():
            cv = c.constant_value()
            if cv is None:
                raise ValueError("element has formal-symbol coefficients")
            if cv.d != 1:
                raise ValueError("matrix oracle needs Gaussian-integer coefficients")
            a, b = cv.a, cv.b
            rotated = ((a, b), (-b, a), (-a, -b), (b, -a))  # (a + b i) i^k
            cols, phases = self._monomial(w)
            for key, k in zip(enumerate(cols), phases):
                re, im = rotated[k]
                if key in out:
                    re0, im0 = out[key]
                    re, im = re + re0, im + im0
                out[key] = (re, im)
        return {key: v for key, v in out.items() if v != (0, 0)}

    def normalized_trace(self, mat: dict) -> GaussianRational:
        """The exact trace over dim."""
        re = im = 0
        for (row, col), (x, y) in mat.items():
            if row == col:
                re += x
                im += y
        return GaussianRational(re, im) / GaussianRational(self.dim)


def matrix_rep(sig: AlgebraSignature) -> MatrixRep:
    """The sub-Dirac oracle representation; size-guarded per the contract."""
    if sig.p > 8 or sig.q > 6:
        raise ValueError("matrix_rep size guard: need p <= 8 and q <= 6")
    return MatrixRep(sub_dirac_algebra(sig.p, sig.q))

"""Exact algebra of anticommuting generator families acting on S(F) x Lambda(F-perp*).

Three families for the sub-Dirac setting: c(f_i) and c(h_s) square to -1,
the hatted actions square to +1; all distinct generators anticommute.  The
trace functional is totalDim times the identity-word coefficient, which makes
every nonempty canonical word traceless.  A dense-matrix Jordan-Wigner
representation serves as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .symbolic import GR_I, GR_ONE, GR_ZERO, GaussianRational, ScalarPoly, _as_poly


@dataclass(frozen=True)
class AlgebraSignature:
    """Leaf dimension p and codimension q of the splitting TM = F + F_perp."""

    p: int
    q: int

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

    def element(self, terms=None) -> "CliffordElement":
        return CliffordElement(self, terms)

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
    return _as_poly(c) if isinstance(c, (int, Fraction, GaussianRational)) else c


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
                x = c1 * c2 * sign
                out[w] = out[w] + x if w in out else x
        return CliffordElement(self.algebra, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.algebra.scalar(other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def map_coeffs(self, fn) -> "CliffordElement":
        return CliffordElement(self.algebra, {w: fn(c) for w, c in self.terms.items()})

    def identity_coefficient(self):
        return self.terms.get((), ScalarPoly.zero())

    def trace(self, total_dim):
        """totalDim times the identity-word coefficient."""
        return self.identity_coefficient() * total_dim

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


def normalize(algebra: Algebra, gens: Iterable[Gen], coeff=1) -> CliffordElement:
    """Canonical form of a raw generator word."""
    sign, word = algebra.normalize_word(gens)
    return CliffordElement(algebra, {word: _as_coeff(coeff) * sign})


# ---------------------------------------------------------------------------
# Dense matrix oracle (Jordan-Wigner construction)
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix over Q(i); small sizes only, used by the oracle."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(rows_i) for rows_i in rows)

    @classmethod
    def identity(cls, n):
        return cls([[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n):
        return cls([[GR_ZERO] * n for _ in range(n)])

    @property
    def n(self):
        return len(self.rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else GaussianRational(other)
            return Matrix([[x * c for x in row] for row in self.rows])
        n = self.n
        out = [[GR_ZERO] * n for _ in range(n)]
        for i in range(n):
            for k, a in enumerate(self.rows[i]):
                if a.is_zero():
                    continue
                brow = other.rows[k]
                orow = out[i]
                for j in range(n):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return Matrix(out)

    __rmul__ = __mul__

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return self.rows == other.rows

    def trace(self) -> GaussianRational:
        t = GR_ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def kron(self, other: "Matrix") -> "Matrix":
        n, m = self.n, other.n
        out = [[GR_ZERO] * (n * m) for _ in range(n * m)]
        for i in range(n):
            for j in range(n):
                a = self.rows[i][j]
                if a.is_zero():
                    continue
                for k in range(m):
                    for l in range(m):
                        b = other.rows[k][l]
                        if not b.is_zero():
                            out[i * m + k][j * m + l] = a * b
        return Matrix(out)


_PX = Matrix([[GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO]])
_PY = Matrix([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]])
_PZ = Matrix([[GR_ONE, GR_ZERO], [GR_ZERO, -GR_ONE]])
_P1 = Matrix.identity(2)


def _pauli_string(ops: Sequence[Matrix]) -> Matrix:
    out = ops[0]
    for op in ops[1:]:
        out = out.kron(op)
    return out


class MatrixRep:
    """Faithful representation with all nonempty canonical words traceless.

    Jordan-Wigner on ceil(g/2) qubits for g generators; generators with
    square -1 are the JW gammas times i.  Coincides with a totalDim-dim
    module exactly when the leaf dimension is even.
    """

    def __init__(self, algebra: Algebra, max_gens: int = 20):
        g = sum(count for _, count, _ in algebra.families)
        if g > max_gens:
            raise ValueError("representation size guard exceeded")
        self.algebra = algebra
        m = max((g + 1) // 2, 1)
        self.dim = 2 ** m
        mats = []
        for k in range(g):
            qubit, kind = divmod(k, 2)
            ops = [_PZ] * qubit + [_PX if kind == 0 else _PY] + [_P1] * (m - qubit - 1)
            mats.append(_pauli_string(ops))
        self.gen_matrices: dict[Gen, Matrix] = {}
        for gen, mat in zip(algebra.gens(), mats):
            if algebra.square(gen) == -1:
                mat = mat * GR_I
            self.gen_matrices[gen] = mat

    def word_matrix(self, word: Iterable[Gen]) -> Matrix:
        out = Matrix.identity(self.dim)
        for g in word:
            out = out * self.gen_matrices[g]
        return out

    def element_matrix(self, elem: CliffordElement,
                       env: dict | None = None) -> Matrix:
        """Requires constant coefficients (or an evaluation env of exact values)."""
        out = Matrix.zero(self.dim)
        for w, c in elem.terms.items():
            cv = c.constant_value()
            if cv is None:
                raise ValueError("element has formal-symbol coefficients")
            out = out + self.word_matrix(w) * cv
        return out

    def normalized_trace(self, mat: Matrix) -> GaussianRational:
        return mat.trace() / GaussianRational(self.dim)


def matrix_rep(sig: AlgebraSignature) -> MatrixRep:
    """The sub-Dirac oracle representation; size-guarded per the contract."""
    if sig.p > 8 or sig.q > 6:
        raise ValueError("matrix_rep size guard: need p <= 8 and q <= 6")
    return MatrixRep(sub_dirac_algebra(sig.p, sig.q), max_gens=8 + 2 * 6)

"""Generator algebra: normal ordering, the trace functional, and the
Jordan-Wigner matrix oracle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres import oracles
from wres.clifford import (
    Algebra,
    AlgebraSignature,
    MatrixRep,
    matrix_rep,
    normalize,
    spin_algebra,
    sub_dirac_algebra,
)
from wres.oracles import random_signature, random_word
from wres.symbolic import GaussianRational, ScalarPoly


def _delta(a, b):
    return 1 if a == b else 0


def test_signature_dimensions():
    assert AlgebraSignature(2, 2).leaf_dim == 2
    assert AlgebraSignature(2, 2).total_dim == 8
    assert AlgebraSignature(3, 1).leaf_dim == 2
    assert AlgebraSignature(4, 0).total_dim == 4


def test_defining_relations():
    alg = sub_dirac_algebra(2, 2)
    for g in alg.gens():
        sq = normalize(alg, [g, g])
        want = alg.scalar(alg.square(g))
        assert sq == want
    # distinct generators anticommute, including across families
    for g1, g2 in itertools.combinations(alg.gens(), 2):
        assert normalize(alg, [g1, g2]) == -normalize(alg, [g2, g1])


def test_hat_swap():
    alg = sub_dirac_algebra(0, 2)
    assert normalize(alg, [(2, 1), (2, 0)]) == -normalize(alg, [(2, 0), (2, 1)])


def test_single_generator_traceless():
    alg = sub_dirac_algebra(2, 2)
    for g in alg.gens():
        assert alg.gen(g).trace(8).is_zero()


def test_quadratic_traces():
    # tr[c(f_i) c(f_j)] = -delta * T ; hatted squares give +delta * T
    alg = sub_dirac_algebra(3, 3)
    T = 16
    for i in range(3):
        for j in range(3):
            tr = (alg.gen((0, i)) * alg.gen((0, j))).trace(T).constant_value()
            assert tr == -_delta(i, j) * T
            tr = (alg.gen((2, i)) * alg.gen((2, j))).trace(T).constant_value()
            assert tr == _delta(i, j) * T


def test_hatted_four_factor_identity():
    # tr[hc_s hc_t hc_s' hc_t'] = (d_t^s' d_s^t' - d_t^t' d_s^s') * 2^q for t!=s, t'!=s'
    q = 3
    alg = Algebra([("H", q, 1)])
    T = 2 ** q
    for s, t, sp, tp in itertools.product(range(q), repeat=4):
        if s == t or sp == tp:
            continue
        got = normalize(alg, [(0, s), (0, t), (0, sp), (0, tp)]).trace(T).constant_value()
        want = (_delta(t, sp) * _delta(s, tp) - _delta(t, tp) * _delta(s, sp)) * T
        assert got == want


def test_mixed_four_factor_identities():
    # the mixed-family identities used by the boundary tables
    p = q = 2
    alg = sub_dirac_algebra(p, q)
    T = AlgebraSignature(p, q).total_dim
    for i, j, s, u in itertools.product(range(p), range(p), range(q), range(q)):
        got = (alg.gen((0, i)) * alg.gen((0, j)) * alg.gen((1, s)) * alg.gen((1, u))
               ).trace(T).constant_value()
        assert got == _delta(i, j) * _delta(s, u) * T
    for s, t, i, j in itertools.product(range(q), range(q), range(p), range(p)):
        got = (alg.gen((1, s)) * alg.gen((1, t)) * alg.gen((0, i)) * alg.gen((0, j))
               ).trace(T).constant_value()
        assert got == _delta(s, t) * _delta(i, j) * T
    # tr[c(h_s)(hc hc - c c)(h_r, h_t) c(h_u)] = -(d_r^s d_t^u - d_r^u d_s^t) 2^{p+q}
    # for r != t (the connection matrix is antisymmetric, so only r != t occurs)
    for s, r, t, u in itertools.product(range(q), repeat=4):
        if r == t:
            continue
        hat = alg.gen((1, s)) * alg.gen((2, r)) * alg.gen((2, t)) * alg.gen((1, u))
        reg = alg.gen((1, s)) * alg.gen((1, r)) * alg.gen((1, t)) * alg.gen((1, u))
        got = (hat - reg).trace(T).constant_value()
        assert got == -(_delta(r, s) * _delta(t, u) - _delta(r, u) * _delta(s, t)) * T


def test_four_leaf_factor_identity():
    # tr[c(f_i) c(f_k) c(f_l) c(f_j)]: pairing formula with three deltas
    p = 3
    alg = sub_dirac_algebra(p, 1)
    T = AlgebraSignature(p, 1).total_dim
    for i, k, l, j in itertools.product(range(p), repeat=4):
        got = (alg.gen((0, i)) * alg.gen((0, k)) * alg.gen((0, l)) * alg.gen((0, j))
               ).trace(T).constant_value()
        want = (_delta(i, k) * _delta(l, j) - _delta(i, l) * _delta(k, j)
                + _delta(i, j) * _delta(k, l)) * T
        assert got == want


def test_hat_minus_plain_pair_trace():
    # tr[hc(h_r) hc(h_t) - c(h_r) c(h_t)] = 2 delta_rt * T
    alg = sub_dirac_algebra(1, 2)
    T = AlgebraSignature(1, 2).total_dim
    for r, t in itertools.product(range(2), repeat=2):
        got = (alg.gen((2, r)) * alg.gen((2, t))
               - alg.gen((1, r)) * alg.gen((1, t))).trace(T).constant_value()
        assert got == 2 * _delta(r, t) * T


def test_tensor_factorization():
    # a product of a leaf word and a perp word traces to the product of the
    # normalized factor traces
    alg = sub_dirac_algebra(2, 2)
    T = 8
    wf = alg.gen((0, 0)) * alg.gen((0, 0))   # = -1
    wh = alg.gen((1, 1)) * alg.gen((1, 1))   # = -1
    assert (wf * wh).trace(T).constant_value() == T  # (-1)(-1) T


random_words = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10_000))


@given(random_words)
@settings(max_examples=60, deadline=None)
def test_trace_cyclicity(data):
    p, q, seed = data
    if p + q == 0:
        return
    rng = random.Random(seed)
    alg = sub_dirac_algebra(p, q)
    gens = alg.gens()
    x = normalize(alg, [rng.choice(gens) for _ in range(rng.randint(1, 5))])
    y = normalize(alg, [rng.choice(gens) for _ in range(rng.randint(1, 5))])
    T = AlgebraSignature(p, q).total_dim
    assert (x * y).trace(T) == (y * x).trace(T)


@given(random_words)
@settings(max_examples=40, deadline=None)
def test_associativity(data):
    p, q, seed = data
    if p + q == 0:
        return
    rng = random.Random(seed)
    alg = sub_dirac_algebra(p, q)
    gens = alg.gens()

    def rand_elem():
        e = alg.scalar(0)
        for _ in range(rng.randint(1, 3)):
            w = normalize(alg, [rng.choice(gens) for _ in range(rng.randint(0, 4))])
            e = e + w * Fraction(rng.randint(-3, 3))
        return e

    x, y, z = rand_elem(), rand_elem(), rand_elem()
    assert (x * y) * z == x * (y * z)


def test_matrix_rep_relations_and_guard():
    rep = matrix_rep(AlgebraSignature(2, 2))
    alg = sub_dirac_algebra(2, 2)
    ident = rep.word_matrix([])
    for g in alg.gens():
        sq = rep.word_matrix([g, g])
        s = alg.square(g)
        assert sq == {k: (re * s, im * s) for k, (re, im) in ident.items()}
    # hatted generator squares contribute the full dimension to the trace
    m = rep.word_matrix([(2, 0), (2, 0)])
    assert rep.normalized_trace(m) * GaussianRational(8) == GaussianRational(8)
    with pytest.raises(ValueError):
        matrix_rep(AlgebraSignature(9, 1))


def _dense_jordan_wigner(alg):
    """The generator matrices as complex numpy arrays: Kronecker products of
    Pauli matrices, times i for the generators that square to -1."""
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    py = np.array([[0, -1j], [1j, 0]])
    pz = np.diag([1, -1]).astype(complex)
    one = np.eye(2, dtype=complex)
    gens = alg.gens()
    m = max((len(gens) + 1) // 2, 1)
    out = {}
    for k, g in enumerate(gens):
        qubit, kind = divmod(k, 2)
        mat = np.eye(1, dtype=complex)
        for op in [pz] * qubit + [px if kind == 0 else py] + [one] * (m - qubit - 1):
            mat = np.kron(mat, op)
        out[g] = mat * 1j if alg.square(g) == -1 else mat
    return out


def test_monomial_rep_matches_dense_jordan_wigner():
    rng = random.Random(2024)
    for p, q in itertools.product(range(4), repeat=2):
        if p + q == 0:
            continue
        alg = sub_dirac_algebra(p, q)
        rep = MatrixRep(alg)
        dense = _dense_jordan_wigner(alg)
        dim = rep.dim
        for g, (cols, phases) in rep.gen_matrices.items():
            got = np.zeros((dim, dim), dtype=complex)
            for row, (col, k) in enumerate(zip(cols, phases)):
                got[row, col] = 1j ** k
            assert np.array_equal(got, dense[g]), (p, q, g)
        gens = alg.gens()
        for _ in range(200):
            word = [rng.choice(gens) for _ in range(rng.randint(0, 8))]
            want = np.eye(dim, dtype=complex)
            for g in word:
                want = want @ dense[g]
            got = np.zeros((dim, dim), dtype=complex)
            for (row, col), (re, im) in rep.word_matrix(word).items():
                got[row, col] = complex(re, im)
            assert np.array_equal(got, want), (p, q, word)


def test_words_against_matrix_oracle_500():
    rng = random.Random(99)
    reps = {}
    for _ in range(500):
        sig = random_signature(rng)
        alg, word = random_word(rng, sig)
        key = (sig.p, sig.q)
        if key not in reps:
            reps[key] = MatrixRep(alg)
        rep = reps[key]
        sym = normalize(alg, word)
        assert rep.element_matrix(sym) == rep.word_matrix(word)


def test_element_traces_against_matrix_oracle():
    rng = random.Random(123)
    reps = {}
    for _ in range(500):
        sig = random_signature(rng)
        alg, _ = random_word(rng, sig)
        key = (sig.p, sig.q)
        if key not in reps:
            reps[key] = MatrixRep(alg)
        rep = reps[key]
        gens = alg.gens()
        elem = alg.scalar(0)
        for _ in range(rng.randint(1, 4)):
            w = normalize(alg, [rng.choice(gens) for _ in range(rng.randint(0, 6))])
            elem = elem + w * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # the matrix oracle takes Gaussian-integer coefficients only
        d = math.lcm(*(c.constant_value().re.denominator for c in elem.terms.values()))
        sym_tr = elem.trace(sig.total_dim).constant_value()
        mat_tr = (rep.normalized_trace(rep.element_matrix(elem * d))
                  * GaussianRational(sig.total_dim))
        assert d * sym_tr == mat_tr


def test_element_matrix_needs_gaussian_integer_coefficients():
    alg = sub_dirac_algebra(1, 1)
    rep = MatrixRep(alg)
    word = normalize(alg, [(0, 0), (1, 0)])
    for bad in (word * Fraction(1, 3), word * ScalarPoly.symbol("x")):
        with pytest.raises(ValueError):
            rep.element_matrix(bad)
    # plain ints: exact at any size
    mat = rep.word_matrix([(0, 0), (1, 0)])
    for c in (2 ** 53 - 1, 2 ** 53 + 1, 3 ** 200):
        assert rep.element_matrix(word * c) == {k: (re * c, im * c) for k, (re, im) in mat.items()}


def test_trace_oracle_names_its_first_failure(monkeypatch):
    assert "first_failure" not in oracles.run_trace_oracle(seed=5, count=3)
    monkeypatch.setattr(oracles, "normalize", lambda alg, word: -normalize(alg, word))
    report = oracles.run_trace_oracle(seed=5, count=3)
    assert report["failures"] == 3 and not report["pass"]
    rng = random.Random(5)
    sig = random_signature(rng)
    alg, word = random_word(rng, sig)
    assert report["first_failure"] == {"index": 0, "p": sig.p, "q": sig.q,
                                       "word": [alg.gen_name(g) for g in word]}


def test_spin_algebra_words():
    alg = spin_algebra(3)
    assert normalize(alg, [(0, 0), (0, 0)]) == alg.scalar(-1)
    assert (alg.gen((0, 0)) * alg.gen((0, 1))).trace(4).is_zero()

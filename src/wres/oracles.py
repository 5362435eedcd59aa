"""Independent numeric oracles: adaptive quadrature for line integrals,
finite differences for jets, and seeded random generators for the
randomized suites.

These deliberately avoid the exact code paths they check: integrals go
through adaptive quadrature on the real line, never through residues.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .clifford import AlgebraSignature, MatrixRep, normalize, sub_dirac_algebra
from .symbolic import GaussianRational, RationalXi, _frac_str
from .warped import _FUNCTIONS, VALUE_RULES, Jet3, _ast_to_string, compile_ast

# the points at which the jet oracle compares a warp's jet with finite differences
PROBES = (0.2, 0.7, 1.3)
# the largest relative error each suite accepts
RESIDUE_REL_TOL = 1e-8
JET_REL_TOL = 1e-6


def _rational_function(f: RationalXi, tables: dict):
    """f as a function of a panel's points, a tuple of real floats, that
    returns the list of its values there.

    ``tables`` maps a panel's points to columns of their powers ``x ** k``
    (k >= 1), ``(x - 1j) ** m`` and ``(x + 1j) ** m``, each column built the
    first time a function needs it, so the integrands that share ``tables``
    share them.  The value at x is num(x) / ((x - 1j) ** mp * (x + 1j) ** mm)
    with the numerator summed from the int 0 in ascending powers, one column
    at a time: the floats of the point-by-point ``evaluate_rational`` in
    ``tests/references.py``.
    """
    coeffs = []
    for poly in f.num:
        c = poly.constant_value()
        if c is None:
            raise ValueError("the oracle evaluates constant coefficients only")
        coeffs.append(complex(c))
    mp, mm = f.mp, f.mm
    # sum()'s additions, from the int 0: the first term, c * x ** 0 with
    # x ** 0 == 1.0, is the same float at every point
    head = 0 + coeffs[0] * 1.0 if coeffs else 0
    rest = coeffs[1:]

    def values(nodes):
        table = tables.get(nodes)
        if table is None:
            # (x - 1j) ** 0 and (x + 1j) ** 0 are (1+0j) at every point
            one = [1+0j] * len(nodes)
            table = tables[nodes] = ([], [one], [one])
        powers, lower, upper = table
        while len(powers) < len(rest):
            k = len(powers) + 1
            powers.append([x ** k for x in nodes])
        while len(lower) <= mp:
            m = len(lower)
            lower.append([(x - 1j) ** m for x in nodes])
        while len(upper) <= mm:
            m = len(upper)
            upper.append([(x + 1j) ** m for x in nodes])
        nums = [head] * len(nodes)
        for c, column in zip(rest, powers):
            nums = [n + c * p for n, p in zip(nums, column)]
        return [n / (lo * up) for n, lo, up in zip(nums, lower[mp], upper[mm])]
    return values


def numeric_line_integral(f: RationalXi, tables: dict) -> complex:
    """Adaptive quadrature of the rational function over the real line, one
    panel of ``quadpack.quad_complex`` at a time; ``tables`` as for
    ``_rational_function``."""
    from .quadpack import quad_complex

    re, im = quad_complex(_rational_function(f, tables), epsabs=1e-12, epsrel=1e-11, limit=400)
    return complex(re.value, im.value)


def fd_jet(fn, t: float, h: float = 1e-3):
    """Central finite differences for (f, f', f'', f''') with step h."""
    f_m2, f_m1, f_0, f_p1, f_p2 = (fn(t + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (f_p1 - f_m1) / (2 * h)
    d2 = (f_p1 - 2 * f_0 + f_m1) / (h * h)
    d3 = (f_p2 - 2 * f_p1 + 2 * f_m1 - f_m2) / (2 * h ** 3)
    return f_0, d1, d2, d3


# ---------------------------------------------------------------------------
# Seeded random inputs
# ---------------------------------------------------------------------------

def random_rational_xi(rng: random.Random) -> RationalXi:
    """Random rational function with poles only at +-i, its degree gap at
    least 2 so that it is integrable over the real line."""
    while True:
        mp = rng.randint(0, 4)
        mm = rng.randint(0, 4)
        if mp + mm < 2:
            continue
        deg = rng.randint(0, mp + mm - 2)
        coeffs = [GaussianRational(Fraction(rng.randint(-5, 5)),
                                   Fraction(rng.randint(-5, 5)))
                  for _ in range(deg + 1)]
        # in lowest terms, because the oracles evaluate it in floats
        f = RationalXi(coeffs, mp, mm)._normalize()
        if not f.is_zero() and f.degree_gap() >= 2:
            return f


def random_signature(rng: random.Random) -> AlgebraSignature:
    while True:
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        if p + q > 0:
            return AlgebraSignature(p, q)


def random_word(rng: random.Random, sig: AlgebraSignature):
    alg = sub_dirac_algebra(sig.p, sig.q)
    gens = alg.gens()
    return alg, [rng.choice(gens) for _ in range(rng.randint(1, 8))]


def tame_warp_jets(ast) -> dict[float, tuple[Jet3, tuple]] | None:
    """For a warp AST that is finite and tame at the ``PROBES``, each probe's
    jet and its central finite differences at step 1e-3, keyed by probe.
    None for any other AST.

    The jet is computed at the probes only.  The stencil points (steps 2e-3
    and 1e-3, which share their points) are evaluated once each, as plain
    floats with the bits of the jet's value there (``VALUE_RULES``), and
    stay inside this filter; each finite-difference jet is computed once.

    Besides the bound on the final jet, every subtree must stay below 1e8 in
    magnitude: in exp(64) + t the t is lost to rounding, so finite
    differences would see a constant.  The subtree jets are collected during
    the probe's own evaluation.
    """
    subtrees: list[Jet3] = []
    probe_jet = compile_ast(ast, subtrees.append)
    point_value = compile_ast(ast, rules=VALUE_RULES)
    values: dict[float, float] = {}
    tame: dict[float, tuple[Jet3, tuple]] = {}

    def value(x):
        v = values.get(x)
        if v is None:
            v = values[x] = point_value(x)
        return v

    try:
        for t in PROBES:
            subtrees.clear()
            jet = probe_jet(Jet3.variable(t))
            values[t] = jet.d[0]
            if not all(math.isfinite(v) and abs(v) < 1e4 for v in jet.derivatives()):
                return None
            if any(abs(sub.d[0]) >= 1e8 for sub in subtrees):
                return None
            # reject functions whose finite differences are not yet in the
            # asymptotic regime at step 1e-3 (wild fifth derivatives)
            coarse = fd_jet(value, t, h=2e-3)
            fine = fd_jet(value, t, h=1e-3)
            scale = max(1.0, *(abs(v) for v in fine))
            if max(abs(a - b) for a, b in zip(coarse, fine)) > 2.5e-7 * scale:
                return None
            tame[t] = (jet, fine)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    return tame


def random_warp_ast(rng: random.Random) -> tuple[tuple, dict[float, tuple[Jet3, tuple]]]:
    """Random warp AST that passes ``tame_warp_jets``, and what it returned:
    each probe's jet and finite differences."""

    def build(depth):
        if depth <= 0 or rng.random() < 0.3:
            # t, an integer n or a fraction p/q; the seeded stream draws the
            # numbers of all three before the choice
            n, p, q = rng.randint(1, 4), rng.randint(1, 9), rng.randint(1, 4)
            leaf = rng.choice(((), (n,), (p, q)))
            return ("num", Fraction(*leaf)) if leaf else ("t",)
        op = rng.choice(["+", "-", "*", "call", "pow", "/"])
        if op == "call":
            name = rng.choice(list(_FUNCTIONS))
            arg = build(depth - 1)
            if name == "ln":
                # keep the argument positive by construction
                arg = ("+", ("*", arg, arg), ("num", Fraction(1)))
            return ("call", name, arg)
        if op == "pow":
            return ("pow", build(depth - 1), rng.randint(1, 3))
        if op == "/":
            denom = ("+", ("*", build(depth - 1), build(depth - 1)), ("num", Fraction(1)))
            return ("/", build(depth - 1), denom)
        return (op, build(depth - 1), build(depth - 1))

    while True:
        ast = build(4)
        jets = tame_warp_jets(ast)
        if jets is not None:
            return ast, jets


# ---------------------------------------------------------------------------
# Oracle suites (used by the command line and the tests)
# ---------------------------------------------------------------------------

def _run_suite(name: str, count: int, check, relative: bool) -> dict:
    """The report of a suite of ``count`` seeded inputs: ``check()`` draws
    the next input and returns whether it failed, its error (None for a
    suite that is not ``relative``) and a function that gives the fields
    naming the input.  A relative suite reports its largest error as
    ``worst_rel_err``; a failing run names its first failing input under
    ``first_failure``, with its ``index`` in the seeded sequence."""
    worst = 0.0
    failures = 0
    first_failure = None
    for index in range(count):
        failed, err, describe = check()
        if relative:
            worst = max(worst, err)
        if failed:
            failures += 1
            if first_failure is None:
                first_failure = {"index": index, **describe()}
    report = {"name": name, "count": count, "failures": failures, "pass": failures == 0}
    if relative:
        report["worst_rel_err"] = worst
    if first_failure is not None:
        report["first_failure"] = first_failure
    return report


def run_trace_oracle(seed: int, count: int) -> dict:
    """Random words: symbolic normal ordering against the monomial matrices.

    A failing run names its first failing input: the index of the word in the
    seeded sequence, the signature and the word as generator names.
    """
    rng = random.Random(seed)
    reps: dict[tuple[int, int], MatrixRep] = {}

    def check():
        sig = random_signature(rng)
        alg, word = random_word(rng, sig)
        key = (sig.p, sig.q)
        if key not in reps:
            reps[key] = MatrixRep(alg)
        rep = reps[key]
        sym = normalize(alg, word)
        mat = rep.word_matrix(word)
        ok = (rep.element_matrix(sym) == mat
              and sym.trace().constant_value() == rep.normalized_trace(mat))
        return not ok, None, lambda: {"p": sig.p, "q": sig.q,
                                      "word": [alg.gen_name(g) for g in word]}
    return _run_suite("trace-matrix", count, check, relative=False)


def run_quadrature_oracle(seed: int, count: int) -> dict:
    """Random proper rational functions: exact residue integral vs quadrature.

    A failing run names its first failing input: its index in the seeded
    sequence, the pole orders and the numerator's coefficients, constant
    term first.
    """
    rng = random.Random(seed)
    # the integrands' power tables, shared by this run and dropped with it
    tables: dict = {}

    def check():
        f = random_rational_xi(rng)
        exact = complex(f.integrate_pi_coefficient().constant_value()) * math.pi
        approx = numeric_line_integral(f, tables)
        err = abs(exact - approx) / max(abs(exact), 1e-6)
        return err > RESIDUE_REL_TOL, err, lambda: {
            "mp": f.mp, "mm": f.mm,
            "coefficients": [{"re": _frac_str(c.re), "im": _frac_str(c.im)}
                             for c in (poly.constant_value() for poly in f.num)]}
    return _run_suite("residue-quadrature", count, check, relative=True)


def run_ad_oracle(seed: int, count: int) -> dict:
    """Random warp expressions: order-3 jets vs central finite differences.

    The generator's filter has already computed the jet at every probe and
    its finite differences at step 1e-3 (from plain floats at the stencil
    points); this compares the two.  A failing run names its first failing input:
    its index in the seeded sequence, the probe t and the warp as text that
    ``wres rw --f`` parses.
    """
    rng = random.Random(seed)

    def check():
        ast, tame = random_warp_ast(rng)
        t = PROBES[rng.randrange(len(PROBES))]
        probe_jet, fd = tame[t]
        jet = probe_jet.derivatives()
        scale = max(1.0, *(abs(v) for v in jet))
        err = max(abs(a - b) for a, b in zip(jet, fd)) / scale
        return err > JET_REL_TOL, err, lambda: {"t": t, "warp": _ast_to_string(ast)}
    return _run_suite("jet-finite-difference", count, check, relative=True)

"""Wrappers the traced passes install around wres entry points.

Nothing here changes wres: the worker imports wres, then replaces names on
its modules and classes with wrappers, at the place where callers look them
up (``boundary`` calls its module globals ``symbol_jet``, ``trace_product``
and ``sphere_integrate``; ``cli`` calls ``oracles.*``, ``warped.*`` and
``heat.*`` through the module).

Two modes, each its own pass, because timing 10^5 calls would distort the
spans:

* ``spans``: a span (name, start, end, parent) at every wrapped entry point,
  plus distinct-key counts for builders that could be memoised and the
  integrand evaluations of the adaptive quadrature;
* ``counts``: call counters on the high-volume operators, with a seeded
  reservoir of their operands.  After the operation the originals are put
  back and the sampled calls are replayed to time one call in isolation.

Spans are kept in memory and written once, when the operation ends.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
import time

SAMPLE_SIZE = 64
REPLAY_ROUND_S = 0.01
REPLAY_REPEATS = 5

# (module, class or None, attribute, span name, distinct-key function)
SPAN_POINTS = [
    ("wres.symbolic", "RationalXi", "pi_plus", "symbolic.pi_plus", None),
    ("wres.symbolic", "RationalXi", "integrate_pi_coefficient",
     "symbolic.integrate_pi_coefficient", None),
    ("wres.symbolic", "ScalarPoly", "subs_many", "symbolic.subs_many", None),
    ("wres.boundary", None, "sphere_integrate", "symbolic.sphere_integrate", None),
    ("wres.clifford", "MatrixRep", "__init__", "clifford.matrix_rep",
     lambda rep, algebra, *a, **k: algebra.families),
    ("wres.clifford", "MatrixRep", "word_matrix", "clifford.word_matrix", None),
    ("wres.clifford", "MatrixRep", "element_matrix", "clifford.element_matrix", None),
    ("wres.boundary", None, "symbol_jet", "symbols.symbol_jet",
     lambda model, power, order: (id(model), power, order)),
    ("wres.boundary", None, "trace_product", "symbols.trace_product", None),
    ("wres.symbols", "BoundaryModel", "reduce_coeff", "symbols.reduce_coeff", None),
    ("wres.boundary", None, "eval_case", "boundary.eval_case", None),
    ("wres.boundary", None, "phi_total", "boundary.phi_total", None),
    ("wres.heat", None, "interior_coeffs", "heat.interior_coeffs", None),
    ("wres.heat", None, "boundary_coeffs", "heat.boundary_coeffs", None),
    ("wres.warped", None, "boundary_coeffs", "heat.boundary_coeffs", None),
    ("wres.heat", None, "spectral_moments", "heat.spectral_moments", None),
    ("wres.warped", None, "parse_warp", "warped.parse_warp", None),
    ("wres.warped", None, "quad_adaptive", "warped.quad_adaptive", None),
    ("wres.warped", None, "rw_spectral_coeffs", "warped.rw_spectral_coeffs", None),
    ("wres.warped", None, "rw_lower_volumes", "warped.rw_lower_volumes", None),
    ("wres.oracles", None, "run_trace_oracle", "oracles.trace_suite", None),
    ("wres.oracles", None, "run_quadrature_oracle", "oracles.residue_suite", None),
    ("wres.oracles", None, "run_ad_oracle", "oracles.jet_suite", None),
    ("wres.oracles", None, "numeric_line_integral", "oracles.numeric_line_integral", None),
    ("wres.cli", None, "main", "cli.main", None),
]

# (module, class, attributes, counter name, sample operands, argument copier)
COUNT_POINTS = [
    ("wres.symbolic", "GaussianRational", ("__add__", "__radd__"), "symbolic.gr_add", True, None),
    ("wres.symbolic", "GaussianRational", ("__mul__", "__rmul__"), "symbolic.gr_mul", True, None),
    ("wres.symbolic", "ScalarPoly", ("__mul__", "__rmul__"), "symbolic.poly_mul", True, None),
    ("wres.symbolic", "RationalXi", ("_normalize",), "symbolic.rxi_normalize", False, None),
    # a word may arrive as an iterator; sampling keeps a tuple copy and passes it on
    ("wres.clifford", "Algebra", ("normalize_word",), "clifford.normalize_word", True,
     lambda args: (args[0], tuple(args[1]))),
]

EVALS = "warped.quad_adaptive.evals"


def _open_unit(rng: random.Random) -> float:
    """A uniform draw from the open interval (0, 1)."""
    while True:
        u = rng.random()
        if u > 0.0:
            return u


class Reservoir:
    """Uniform sample of ``size`` calls out of an unknown number (Algorithm L).

    Between samples the wrapper only compares the call index with ``next``.
    """

    def __init__(self, size: int, rng: random.Random):
        self.size, self.rng = size, rng
        self.items: list = []
        self.next = 1
        self.w = 1.0

    def _advance(self, n: int):
        self.w *= math.exp(math.log(_open_unit(self.rng)) / self.size)
        self.next = n + 1 + int(math.log(_open_unit(self.rng)) / math.log1p(-self.w))

    def offer(self, n: int, item):
        if len(self.items) < self.size:
            self.items.append(item)
            if len(self.items) < self.size:
                self.next = n + 1
            else:
                self._advance(n)
        else:
            self.items[self.rng.randrange(self.size)] = item
            self._advance(n)


class Tracer:
    def __init__(self, mode: str, op_id: str, sample_seed: str):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode, self.op_id, self.sample_seed = mode, op_id, sample_seed
        self.spans: list = []
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._keys: dict[str, set] = {}
        self._samples: dict[str, Reservoir] = {}
        self._patches: list = []
        self.missing: list[str] = []

    # -- patching --------------------------------------------------------------
    def _patch(self, module: str, cls: str | None, attr: str, make):
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        orig = None
        if owner is not None:
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(orig):
            self.missing.append(f"{module}:{cls or ''}.{attr}")
            return
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def install(self):
        if self.mode == "spans":
            self._cells[EVALS] = [0]
            for module, cls, attr, name, key in SPAN_POINTS:
                self._patch(module, cls, attr, self._span_maker(name, key))
        else:
            for module, cls, attrs, name, sample, copy_args in COUNT_POINTS:
                cell = self._cells.setdefault(name, [0])
                reservoir = None
                if sample:
                    rng = random.Random(f"{self.sample_seed}:{self.op_id}:{name}")
                    reservoir = self._samples.setdefault(name, Reservoir(SAMPLE_SIZE, rng))
                for attr in attrs:
                    self._patch(module, cls, attr, self._count_maker(cell, reservoir, copy_args))
        return self

    def _span_maker(self, name, key):
        spans, stack = self.spans, self._stack
        keys = self._keys.setdefault(name, set()) if key is not None else None
        evals = self._cells[EVALS]
        clock = time.perf_counter

        def make(orig):
            if name == "warped.quad_adaptive":
                inner = orig

                def orig(fn, *args, **kwargs):
                    def counted(t):
                        evals[0] += 1
                        return fn(t)
                    return inner(counted, *args, **kwargs)

            def wrapper(*args, **kwargs):
                if keys is not None:
                    keys.add(key(*args, **kwargs))
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent)
            return wrapper
        return make

    @staticmethod
    def _count_maker(cell, reservoir, copy_args):
        def make(orig):
            if reservoir is None:
                def wrapper(*args, **kwargs):
                    cell[0] += 1
                    return orig(*args, **kwargs)
                return wrapper

            def wrapper(*args):
                n = cell[0] = cell[0] + 1
                if n >= reservoir.next:
                    if copy_args is not None:
                        args = copy_args(args)
                    reservoir.offer(n, (orig, args))
                return orig(*args)
            return wrapper
        return make

    # -- replay and output -----------------------------------------------------
    def replay(self) -> dict[str, float]:
        """Time the sampled calls against the original functions, in ns per call."""
        out = {}
        clock = time.perf_counter
        for name, reservoir in self._samples.items():
            calls = reservoir.items
            if not calls:
                continue
            start = clock()
            for fn, args in calls:
                fn(*args)
            first = clock() - start
            inner = max(1, math.ceil(REPLAY_ROUND_S / max(first, 1e-9)))
            rounds = []
            for _ in range(REPLAY_REPEATS):
                start = clock()
                for _ in range(inner):
                    for fn, args in calls:
                        fn(*args)
                rounds.append((clock() - start) / (inner * len(calls)))
            out[name] = statistics.median(rounds) * 1e9
        return out

    def finish(self, path: str):
        self.restore()
        ns = self.replay() if self.mode == "counts" else {}
        record = {
            "op": self.op_id,
            "mode": self.mode,
            "spans": [s for s in self.spans if s is not None],
            "counts": {name: cell[0] for name, cell in self._cells.items()},
            "distinct": {name: len(keys) for name, keys in self._keys.items()},
            "ns": ns,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)

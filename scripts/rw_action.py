#!/usr/bin/env python3
"""Evaluate the warped-model spectral action for a few warp functions and
print the coefficient tables, both a4 boundary readings, and the asymptotic
action for an exponential cutoff.  Exits 1 if a0..a3 differ from the generic
bounded-manifold formulas fed the same data by more than RESIDUAL_TOL relative
to max(1, |generic|)."""

import math
import sys

sys.path.insert(0, "src")

from wres.heat import spectral_moments
from wres.warped import (RWModel, asymptotic_action, parse_warp, rw_lower_volumes,
                         rw_spectral_coeffs)

RUNS = [
    ("1", 0.0, (0.0, 1.0)),
    ("exp(t)", 1.0, (0.0, 1.0)),
    ("2+sin(t)", -1.0, (0.5, 1.5)),
    ("cosh(t)", 1.0, (-0.5, 0.5)),
]
RESIDUAL_TOL = 1e-12


def main() -> int:
    failed = 0
    moments = spectral_moments(lambda s: math.exp(-s))
    scale = 2.0
    for text, curv, (a, b) in RUNS:
        model = RWModel(a, b, parse_warp(text), curv=curv)
        co = rw_spectral_coeffs(model)
        vols = rw_lower_volumes(model, co)
        diag = co.diagnostics
        off = [k for k in range(4) if diag[f"residual_a{k}"]
               > RESIDUAL_TOL * max(1.0, abs(diag[f"generic_a{k}"]))]
        failed += bool(off)
        print(f"=== f(t) = {text}, base curvature {curv}, interval [{a}, {b}] ===")
        for key, value in co.as_dict().items():
            print(f"  {key:>20}: {value: .12g}")
        print(f"  residuals vs generic path: "
              f"a0 {co.diagnostics['residual_a0']:.1e}, "
              f"a2 {co.diagnostics['residual_a2']:.1e}, "
              f"a3 {co.diagnostics['residual_a3']:.1e}")
        if off:
            print(f"  MISMATCH: residual above {RESIDUAL_TOL:g} relative in "
                  + ", ".join(f"a{k}" for k in off))
        for name, action in asymptotic_action(co, moments, scale).items():
            print(f"  action (cutoff exp, scale {scale}, {name} bracket): {action:.10g}")
        print(f"  lower volumes: mid {vols['vol_mid']:.10g}, "
              f"top weighted {vols['vol_top_weighted']:.10g}, "
              f"top plain {vols['vol_top_plain']:.10g}")
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

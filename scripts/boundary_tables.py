#!/usr/bin/env python3
"""Print every registered boundary scenario table and the leftover-term
functionals in human-readable form.  Exits 1 if any scenario's expected
checks or any functional fail (each is printed as MISMATCH)."""

import sys

sys.path.insert(0, "src")

from wres.boundary import RES_KINDS, get_scenario, phi_total, registered_scenarios, res_partial


def main() -> int:
    failed = 0
    for key in registered_scenarios():
        scenario = get_scenario(*key)
        report = phi_total(scenario)
        print(f"=== {scenario.name} (n={scenario.n}, powers={scenario.powers}) ===")
        for label, case, value in report.cases:
            idx = f"r={case.r} l={case.l} k={case.k} j={case.j} |a|={case.alpha}"
            print(f"  {label:>4}  [{idx}]  {value}")
        print(f"  total            {report.total}")
        print(f"  over boundary    {report.total_over_boundary}")
        status = "ok" if report.all_pass else "MISMATCH"
        failed += not report.all_pass
        print(f"  expected checks  {status}")
        print()

    print("=== leftover-term functionals ===")
    for kind in RES_KINDS:
        r = res_partial(kind)
        flag = "ok" if r.passes else "MISMATCH"
        failed += not r.passes
        print(f"  {kind:>9}: {r.raw}")
        print(f"             = {r.igrb_multiple}  [{flag}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

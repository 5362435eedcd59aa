#!/usr/bin/env bash
# Runs every CLI report that has a reference in perfbench/reference/, each
# from a cold process, the --p/--q extrapolations and both example scripts,
# whose outputs are in tests/reference/, and compares each byte for byte.  Needs no installed
# package: wres has no runtime dependency.  Run from the repository root:
#   bash .github/check_references.sh
# -o pipefail: a run that prints the reference bytes but exits nonzero fails,
# not only a cmp mismatch
set -eo pipefail

# every CLI operation of the benchmark's table of fixed operations: the
# verify-boundary, rw, heat and oracle references
compared=0
while read -r ref argv; do
  eval "set -- $argv"
  PYTHONPATH=src python -m wres.cli "$@" | cmp - "perfbench/reference/$ref.json"
  echo "$ref matches"
  compared=$((compared + 1))
done < <(PYTHONPATH=perfbench python -c '
import shlex, workloads
for op in workloads.fixed_ops():
    if op["argv"]:
        print(op["ref"], shlex.join(op["argv"]))')
# an empty or short table fails: each reference but res_partial's (checked
# below) was compared
listed=$(ls perfbench/reference/*.json | grep -cv '/res_partial\.json$')
if [ "$compared" -ne "$listed" ]; then
  echo "compared $compared CLI reports; perfbench/reference/ holds $listed" >&2
  exit 1
fi
# --p/--q extrapolations, on signatures that no registered scenario has
for run in "4 1,1 1 3" "6 2,2 3 3" "6 2,2 0 6" "5 2,2 2 3"; do
  set -- $run
  PYTHONPATH=src python -m wres.cli verify-boundary --dim "$1" --powers "$2" --p "$3" --q "$4" \
    | cmp - "tests/reference/verify_dim$1_${2/,/}_sig$3.$4.json"
done
echo "extrapolations match"
# negative values spaced from their flag read as the joined forms above
PYTHONPATH=src python -m wres.cli rw --f "2+sin(t)" --interval 0.5,1.5 --curv -1.0 \
    --base-vol 1.0 --lambda 2 | cmp - perfbench/reference/rw_fixed2.json
PYTHONPATH=src python -m wres.cli rw --f "cosh(t)" --interval -0.5,0.5 --curv 1.0 \
    --base-vol 1.0 --lambda 2 | cmp - perfbench/reference/rw_fixed3.json
echo "spaced negative values match"
PYTHONPATH=src python -m wres.cli --help > /dev/null
# res_partial has no wres subcommand: the benchmark worker's report of the six
# leftover-term functionals
PYTHONPATH=src:perfbench python -c '
import sys, workloads, worker
from wres import boundary
text, ok = worker.res_partial_report(boundary, workloads.RES_KINDS)
print(text)
sys.exit(0 if ok else 1)' \
  | cmp - perfbench/reference/res_partial.json
echo "res_partial matches"
for script in boundary_tables rw_action; do
  PYTHONPATH=src python "scripts/$script.py" | cmp - "tests/reference/$script.txt"
done
echo "example scripts match"

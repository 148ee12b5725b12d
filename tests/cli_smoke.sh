#!/bin/sh
# Runs the copdep command line end to end, in a scratch directory it removes
# afterwards: every verify suite, synth, estimate and measure on a CSV (a
# quoted, blank-led file included) and on a saved copula file, and invalid
# calls that must exit 2 (a NaN token, a file nested 200,000 levels deep, an
# unknown key and a nested mass among them).
#
# Usage: sh tests/cli_smoke.sh COMMAND...
#   sh tests/cli_smoke.sh copdep                 # the installed entry point
#   sh tests/cli_smoke.sh python -m copdep.cli   # the module, with copdep importable
set -eu

[ "$#" -gt 0 ] || { echo "usage: sh $0 COMMAND..." >&2; exit 64; }
COMMAND="$*"
copdep() { $COMMAND "$@"; }

# Runs copdep with the given arguments and fails unless it exits with code 2.
exits_two() {
    code=0
    copdep "$@" || code=$?
    [ "$code" -eq 2 ] || { echo "expected exit code 2, got $code: copdep $*" >&2; exit 1; }
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

copdep --version
copdep verify --suite axioms --trials 3
copdep verify --suite dpi --trials 3
copdep verify --suite equitability --trials 3
copdep verify --suite bounds --trials 3
copdep synth --model gaussian --dimension 3 --rows 2000 --output sample.csv
copdep estimate --input sample.csv --output fit.json
copdep measure --input sample.csv --kind tau_quadratic
copdep measure --input sample.csv --v-cols x0
copdep measure --input sample.csv --v-cols x1,y --kind group_tau_normalized
copdep measure --input fit.json --kind tau_quadratic
printf '\n"a","b"\n"1","2"\n"3","5"\n"4","3"\n"2","1"\n' > quoted.csv
copdep measure --input quoted.csv --resolution 2

exits_two measure --input sample.csv --u-cols x0
exits_two measure --input sample.csv --columns y
exits_two measure --input fit.json --resolution 8
exits_two synth --model independent --theta 0.3 --output ind.csv
exits_two synth --model mixture --theta 0.5 --sigma 1 --output mix.csv

printf '{"dims": 1, "resolutions": [2], "mass": [NaN, 0.5]}' > nan.json
exits_two measure --input nan.json
{
    printf '{"dims": 1, "resolutions": [1], "mass": '
    head -c 200000 /dev/zero | tr '\0' '['
    head -c 200000 /dev/zero | tr '\0' ']'
    printf '}'
} > deep.json
exits_two measure --input deep.json
printf '{"dims": 2, "resolutions": [2, 2], "mass": [0.25, 0.25, 0.25, 0.25], "note": "x"}' > unknown_key.json
exits_two measure --input unknown_key.json
printf '{"dims": 2, "resolutions": [1, 4], "mass": [[0.25, 0.25], [0.25, 0.25]]}' > nested.json
exits_two measure --input nested.json

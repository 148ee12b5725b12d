#!/bin/sh
# Runs the copdep command line end to end, in a scratch directory it removes
# afterwards: every verify suite, synth, estimate and measure on a CSV (a
# quoted, blank-led file included, one sample written so that each CSV parser
# reads it and must measure the same, and target columns that precede a
# conditioning column, so the split is relabelled, for tau_alpha on its
# Gauss-Legendre nodes and for group_tau, and a sample of signed zeros and
# ulp neighbours beside +-1e300 whose ties estimate must count and whose
# rows, reversed, must measure the same) and on saved copula files (the
# entropy kinds among them, and a 4^3 fit that stores every cell, measured on
# splits out of axis order, which the walk reads as a transposed view of its
# masses), invalid calls that must exit 2 (a CSV field longer than csv's
# limit of 131,072 characters, a NaN token, a file nested 200,000 levels
# deep, an unknown key, a nested mass, a boolean among the masses, and dims,
# resolutions or mass given twice, once with the second resolutions spelled
# with an escape), and a copula file whose marginals are not uniform, which
# must exit 3 with an error naming the file.
#
# Usage: sh tests/cli_smoke.sh COMMAND...
#   sh tests/cli_smoke.sh copdep                 # the installed entry point
#   sh tests/cli_smoke.sh python -m copdep.cli   # the module, with copdep importable
#   PYTHONPATH=src sh tests/cli_smoke.sh python -m copdep.cli   # from the repository root
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

# A relative PYTHONPATH entry names a directory under this one, which the cd
# below leaves, so each such entry is made absolute first.
if [ -n "${PYTHONPATH:-}" ]; then
    absolute=
    set -f
    IFS=:
    for entry in $PYTHONPATH; do
        case $entry in
            /*) ;;
            *) entry=$PWD/$entry ;;
        esac
        absolute=${absolute:+$absolute:}$entry
    done
    unset IFS
    set +f
    export PYTHONPATH="$absolute"
fi

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
copdep measure --input sample.csv --v-cols x0 --kind tau_alpha --alpha 1
copdep measure --input sample.csv --v-cols x0,y --kind group_tau
copdep measure --input fit.json --kind tau_quadratic
copdep measure --input fit.json --kind renyi_limit
copdep measure --input fit.json --kind renyi_alpha --alpha 0.5
copdep estimate --input sample.csv --output fit4.json --resolution 4
copdep measure --input fit4.json --v-cols 1 --kind tau_alpha --alpha 1
copdep measure --input fit4.json --v-cols 0,1 --kind group_tau
printf '\n"a","b"\n"1","2"\n"3","5"\n"4","3"\n"2","1"\n' > quoted.csv
copdep measure --input quoted.csv --resolution 2
# One sample written five ways, read by the two parsers: orjson for the
# plain file and the one whose lines end in \r alone, and the row reader
# (csv.reader and float) for quoted fields with a blank line, a +-signed
# token and a number with an underscore.
printf 'a,b\n1,2\n3,5\n4,3\n2,10\n5,4\n' > plain.csv
printf '"a","b"\n1,"2"\n\n"3",5\n4,3\n2,10\n5,4\n' > quoted_blank.csv
printf 'a,b\n+1,2\n3,5\n4,3\n2,10\n5,4\n' > signed.csv
printf 'a,b\n1,2\n3,5\n4,3\n2,1_0\n5,4\n' > underscore.csv
printf 'a,b\r1,2\r3,5\r4,3\r2,10\r5,4\r' > cr_only.csv
plain=$(copdep measure --input plain.csv --resolution 2)
for variant in quoted_blank signed underscore cr_only; do
    [ "$(copdep measure --input "$variant.csv" --resolution 2)" = "$plain" ] ||
        { echo "$variant.csv measured unlike plain.csv" >&2; exit 1; }
done

# A sample of 48 rows: column z holds -0, 0.0 and +-5e-324, and column u
# holds +-1e300 beside 1 + 2 eps, 1 + eps and 1 + 2 eps in rows 3, 10 and
# 30, whose rank keys share a prefix out of value order, so ranking sorts
# them again. estimate must count the ties, and the rows read in reverse
# must measure the same at rank resolution, where every rank shows.
{
    echo z,u
    i=0
    while [ "$i" -lt 48 ]; do
        case $((i % 4)) in 0) z=-0 ;; 1) z=0.0 ;; 2) z=5e-324 ;; *) z=-5e-324 ;; esac
        case $i in
            0) u=1e300 ;;
            1) u=-1e300 ;;
            3 | 30) u=1.0000000000000004 ;;
            10) u=1.0000000000000002 ;;
            *) u=$i.5 ;;
        esac
        echo "$z,$u"
        i=$((i + 1))
    done
} > keys.csv
{ head -n 1 keys.csv; sed 1d keys.csv | sed '1!G;h;$!d'; } > keys_reversed.csv
case $(copdep estimate --input keys.csv --output keys.json) in
    *'"ties": [45, 1]'*) ;;
    *) echo "keys.csv: expected ties [45, 1]" >&2; exit 1 ;;
esac
[ "$(copdep measure --input keys_reversed.csv --resolution 48)" = \
  "$(copdep measure --input keys.csv --resolution 48)" ] ||
    { echo "keys_reversed.csv measured unlike keys.csv" >&2; exit 1; }

exits_two measure --input sample.csv --u-cols x0
exits_two measure --input sample.csv --columns y
exits_two measure --input fit.json --resolution 8
exits_two synth --model independent --theta 0.3 --output ind.csv
exits_two synth --model mixture --theta 0.5 --sigma 1 --output mix.csv

{
    printf 'a,b\n1,2\n3,4\n1,'
    head -c 131073 /dev/zero | tr '\0' '1'
    printf '\n5,6\n'
} > long_field.csv
exits_two measure --input long_field.csv

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
printf '{"dims": 2, "resolutions": [2, 2], "mass": [0.5, false, false, 0.5]}' > boolean_mass.json
exits_two measure --input boolean_mass.json
printf '{"dims": 7, "dims": 2, "resolutions": [2, 2], "mass": [0.5, 0, 0, 0.5]}' > duplicate_key.json
exits_two measure --input duplicate_key.json
printf '{"dims": 1, "resolutions": [2], "resolutions": [2], "mass": [0.5, 0.5]}' > duplicate_resolutions.json
exits_two measure --input duplicate_resolutions.json
printf '{"dims": 1, "resolutions": [2], "mass": [0.5, 0.5], "mass": [0.5, 0.5]}' > duplicate_mass.json
exits_two measure --input duplicate_mass.json
printf '%s' '{"dims": 1, "resolutions": [2], "resolu\u0074ions": [2], "mass": [0.5, 0.5]}' > escaped_resolutions.json
exits_two measure --input escaped_resolutions.json

printf '{"dims": 2, "resolutions": [2, 2], "mass": [0.4, 0.2, 0.2, 0.2]}' > skewed.json
code=0
copdep measure --input skewed.json 2> skewed.err || code=$?
[ "$code" -eq 3 ] || { echo "expected exit code 3, got $code: copdep measure --input skewed.json" >&2; exit 1; }
case $(cat skewed.err) in
    "error: skewed.json: FAIL"*) ;;
    *) { echo "expected 'error: skewed.json: FAIL', got:"; cat skewed.err; } >&2; exit 1 ;;
esac

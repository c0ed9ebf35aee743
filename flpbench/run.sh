#!/usr/bin/env bash
# Build flp_bench from source, then measure one workload.
#
#   bash flpbench/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the JSON result.  Exits 2 without a result when the
# checkout holds no buildable repository.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ]; then
  echo "flpbench/run.sh: no dune-project in $(pwd); run from a full checkout" >&2
  exit 2
fi
dune build --root . ./flpbench/flp_bench.exe 1>&2 || exit 2
exec ./_build/default/flpbench/flp_bench.exe measure "$@"

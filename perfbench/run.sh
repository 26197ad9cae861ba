#!/bin/sh
# Build the benchmark and the astg binary from this checkout's sources,
# then run it.  Run from the repository root:
#
#   sh perfbench/run.sh --workload synth|reduce|serve --seed N \
#                       --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's result is the last line
# of stdout (see perfbench/perfbench.ml).
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full repository checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/perfbench.exe ./bin/astg.exe 1>&2 || exit 2
exec ./_build/default/perfbench/perfbench.exe --astg ./_build/default/bin/astg.exe "$@"

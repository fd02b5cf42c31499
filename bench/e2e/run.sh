#!/bin/sh
# Builds the daemon and the benchmark program, then runs the benchmark
# with the given arguments.  Run from the repository root:
#   sh bench/e2e/run.sh --workload synth-cold --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result; the shared dune cache is off, so the build
# writes only under _build.
set -e
dune build --root . --cache=disabled ./bin/main.exe ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"

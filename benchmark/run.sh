#!/usr/bin/env bash
# Build the benchmark runner and the CLI it drives from this checkout,
# then run it with the given arguments (see benchmark/README.md).
set -euo pipefail
dune build --root . ./benchmark/run.exe ./bin/diagnose.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments go to main.exe.
#   bash perfbench/run.sh --workload fleet-hf --seed 1 --seconds 10 --trace 0
# Build output goes to stderr: stdout carries only the report, whose last
# line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --build-dir .bench_build --profile release --cache disabled \
  ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"

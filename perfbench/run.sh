#!/usr/bin/env bash
# Build the synth CLI and the benchmark from source, then run the benchmark
# with the given arguments (see perfbench/README.md). Run from anywhere in
# the checkout; build output goes to stderr.
set -u
cd "$(dirname "$0")/.." || exit 1
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
if ! dune build --root . perfbench/main.exe bin/synth.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
exec ./_build/default/perfbench/main.exe "$@"

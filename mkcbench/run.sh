#!/bin/sh
# Build the mkc CLI and the benchmark from source, then run the benchmark
# from the repository root:
#   sh mkcbench/run.sh --workload uniform-bin --seed 11 --seconds 15 --trace 0
set -e
dune build --root . ./bin/mkc.exe ./mkcbench/main.exe >&2
exec ./_build/default/mkcbench/main.exe "$@"

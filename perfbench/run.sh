#!/bin/sh
# Build the benchmark from source and run one workload. Run it from the
# repository root; the arguments pass through to perfbench/main.exe:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
exec dune exec --root . --display quiet ./perfbench/main.exe -- "$@"

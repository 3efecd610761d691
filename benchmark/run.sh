#!/usr/bin/env bash
# Build kbench from this checkout's sources and run it with the given flags,
# e.g. bash benchmark/run.sh --workload local-read --seed 1 --seconds 20 --trace 0
# The build stays inside the checkout (_build), with dune's shared cache off.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "kbench: run from a full Khazana checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet --no-print-directory ./benchmark/kbench.exe -- "$@"

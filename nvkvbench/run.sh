#!/usr/bin/env bash
# Build nvkv_server and the benchmark driver from this checkout, then run
# the driver with the given arguments, e.g.
#
#   bash nvkvbench/run.sh --workload kv_mixed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# driver's JSON result stays the last line of stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/nvkv_server.ml ] || [ ! -d lib ]; then
  echo "run.sh: not a repository checkout (run from its root)" >&2
  exit 2
fi
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/nvkv_server.exe ./nvkvbench/driver.exe 1>&2
exec ./_build/default/nvkvbench/driver.exe "$@"

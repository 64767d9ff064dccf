#!/bin/sh
# Rewrites tests/golden/digests.tsv (routes),
# tests/golden/sim_digests.tsv (simulators) and
# tests/golden/sketch_digests.tsv (sketch accounting) from the current
# code.
#
# Only for an intentional behaviour change: regenerating turns every
# drift into the new truth, so say in CHANGES.md why the routes, the
# delivery schedules or the sketch estimates moved.
#
#   tests/golden/regenerate.sh [build-dir]   (default: build)
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
build=${1:-"$root/build"}
cmake --build "$build" --target golden_dump
"$build/tests/golden_dump" > "$root/tests/golden/digests.tsv"
"$build/tests/golden_dump" sim > "$root/tests/golden/sim_digests.tsv"
"$build/tests/golden_dump" sketch > "$root/tests/golden/sketch_digests.tsv"
for f in digests.tsv sim_digests.tsv sketch_digests.tsv; do
  echo "wrote $root/tests/golden/$f ($(grep -vc '^#' "$root/tests/golden/$f") entries)"
done

#!/bin/sh
# Rewrites tests/golden/digests.tsv from the current code.
#
# Only for an intentional behaviour change: regenerating turns every
# drift into the new truth, so say in CHANGES.md why the routes moved.
#
#   tests/golden/regenerate.sh [build-dir]   (default: build)
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
build=${1:-"$root/build"}
cmake --build "$build" --target golden_dump
"$build/tests/golden_dump" > "$root/tests/golden/digests.tsv"
echo "wrote $root/tests/golden/digests.tsv ($(grep -vc '^#' "$root/tests/golden/digests.tsv") entries)"

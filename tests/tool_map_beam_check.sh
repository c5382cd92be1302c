#!/usr/bin/env bash
# rahtm_map must reject an out-of-range --beam before any work starts: a
# nonzero exit, an error naming the flag, no source location in the text,
# and no mapfile written. In-range extremes are covered by the other tests.
# Usage: tool_map_beam_check.sh <rahtm_map> <scratch dir>
set -euo pipefail
map_bin="$1"
dir="$2"
rm -rf "$dir" && mkdir -p "$dir"

for beam in -1 0 2147483648; do
  rc=0
  "$map_bin" --machine 2x2x2 --concentration 2 --benchmark CG --beam "$beam" \
    --out "$dir/beam.map" 2> "$dir/err.txt" || rc=$?
  if [[ "$rc" -eq 0 ]]; then
    echo "--beam $beam: accepted"; exit 1
  fi
  if ! grep -q -- "--beam" "$dir/err.txt"; then
    echo "--beam $beam: error does not name the flag:"; cat "$dir/err.txt"; exit 1
  fi
  if grep -q "\.cpp:" "$dir/err.txt"; then
    echo "--beam $beam: error leaks a source location:"; cat "$dir/err.txt"; exit 1
  fi
  if [[ -e "$dir/beam.map" ]]; then
    echo "--beam $beam: a mapfile was written"; exit 1
  fi
done
echo "beam range checks passed"

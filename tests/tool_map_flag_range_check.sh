#!/usr/bin/env bash
# rahtm_map must reject an out-of-range or malformed integer flag before any
# work starts: exit code 2, an error naming the flag, no source location in
# the text, and no mapfile written. In-range extremes are covered by the
# other tests.
# Usage: tool_map_flag_range_check.sh <rahtm_map> <scratch dir> FLAG VALUE...
set -euo pipefail
map_bin="$1"
dir="$2"
shift 2
rm -rf "$dir" && mkdir -p "$dir"

while [[ $# -ge 2 ]]; do
  flag="$1"
  value="$2"
  shift 2
  rc=0
  "$map_bin" --machine 2x2x2 --concentration 2 --benchmark CG \
    "$flag" "$value" --out "$dir/flag.map" 2> "$dir/err.txt" || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "$flag $value: exit code $rc, want 2"; cat "$dir/err.txt"; exit 1
  fi
  if ! grep -q -- "$flag" "$dir/err.txt"; then
    echo "$flag $value: error does not name the flag:"; cat "$dir/err.txt"; exit 1
  fi
  if grep -q "\.cpp:" "$dir/err.txt"; then
    echo "$flag $value: error leaks a source location:"; cat "$dir/err.txt"; exit 1
  fi
  if [[ -e "$dir/flag.map" ]]; then
    echo "$flag $value: a mapfile was written"; exit 1
  fi
done
echo "flag range checks passed"

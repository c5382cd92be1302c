#!/usr/bin/env bash
# Run rahtm_map on one machine/workload with its default search settings
# and require the exact quality line it prints (MCL and hop-bytes at full
# precision). Any change that moves the mapping changes this line.
# Usage: tool_map_quality_check.sh <rahtm_map> <scratch dir> <expected line>
#          -- <rahtm_map args>...
set -euo pipefail
map_bin="$1"
dir="$2"
expected="$3"
shift 3
[[ "${1:-}" == "--" ]] && shift
rm -rf "$dir" && mkdir -p "$dir"

"$map_bin" "$@" --out "$dir/quality.map" 2> "$dir/err.txt" || {
  echo "rahtm_map failed:"; cat "$dir/err.txt"; exit 1
}
if ! grep -qxF -- "$expected" "$dir/err.txt"; then
  echo "quality line differs; want:"
  echo "$expected"
  echo "got:"
  cat "$dir/err.txt"
  exit 1
fi
echo "quality matches: $expected"

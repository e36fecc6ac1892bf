#!/usr/bin/env bash
# Paired benchmark runs of this working tree against a base commit: the
# way a performance claim is made on a noisy host. Pair i runs bench/run.sh
# on both trees at seed i with the same run length, alternating which side
# goes first; the script prints every pair, then for each end-to-end metric
# the two sides' medians and quartiles, the change's wins, and whether the
# change clears the claim rule (better in at least nine tenths of the pairs,
# ties counting for neither, and medians further apart than the base's own
# interquartile range).
#
#   scripts/benchpairs.sh <base-ref> <workload> [pairs] [seconds]
#
# pairs defaults to 10 and seconds to BENCHMARK.json's run length (20). The
# base is extracted from git into a temporary directory and built there; the
# working tree runs as it is, uncommitted changes included. Never run two
# benchmarks at once on the same host: the pairs would measure each other.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: $0 <base-ref> <workload> [pairs] [seconds]" >&2
  exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"

# run <tree> <seed>: one benchmark run; prints its driver JSON line.
run() {
  local log="$tmp/run.log"
  if ! (cd "$1" && bash bench/run.sh -workload "$workload" -seed "$2" -seconds "$seconds" -trace 0) >"$log" 2>&1; then
    echo "benchpairs: run failed in $1 (seed $2):" >&2
    tail -20 "$log" >&2
    exit 1
  fi
  tail -1 "$log"
}

# value <metric> <json line>: the metric's value from a driver line.
value() {
  grep -o "\"$1\":{\"value\":[^,}]*" <<<"$2" | sed 's/.*"value"://'
}

lines_base=() lines_change=()
echo "# $workload: $pairs pairs of $seconds s, base $base_ref ($(git -C "$root" rev-parse --short "$base_ref")) vs the working tree"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    b=$(run "$tmp/base" "$i")
    c=$(run "$root" "$i")
  else
    c=$(run "$root" "$i")
    b=$(run "$tmp/base" "$i")
  fi
  lines_base+=("$b") lines_change+=("$c")
  printf 'pair %2d (seed %d, %s first): ops_per_s base %.0f change %.0f\n' "$i" "$i" \
    "$( ((i % 2)) && echo base || echo change)" "$(value ops_per_s "$b")" "$(value ops_per_s "$c")"
done

# The end-to-end metrics and which way is better, from BENCHMARK.json.
mapfile -t metrics < <(awk -F'"' '
  /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { name = $4 }
  on && /"better"/ { print name " " $4 }' "$root/BENCHMARK.json")

echo
printf '%-14s %-32s %-32s %-6s %s\n' metric "base median [q1, q3]" "change median [q1, q3]" wins verdict
for entry in "${metrics[@]}"; do
  read -r metric better <<<"$entry"
  {
    for ((i = 0; i < pairs; i++)); do
      echo "$(value "$metric" "${lines_base[i]}") $(value "$metric" "${lines_change[i]}")"
    done
  } | awk -v better="$better" -v metric="$metric" '
    function q(a, n, p,   pos, lo) { # linear-interpolated quantile of sorted a[1..n]
      pos = 1 + p * (n - 1); lo = int(pos)
      return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function f(v) { return v >= 1000 ? sprintf("%.0f", v) : sprintf("%.4g", v) }
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    {
      n++; b[n] = $1; c[n] = $2
      if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
    }
    END {
      sort(b, n); sort(c, n)
      mb = q(b, n, 0.5); mc = q(c, n, 0.5); iqr = q(b, n, 0.75) - q(b, n, 0.25)
      diff = better == "higher" ? mc - mb : mb - mc
      verdict = (wins >= 0.9 * n && diff > iqr) ? "gain" : "no claim"
      printf "%-14s %-32s %-32s %2d/%-3d %s (%+.1f%%, base IQR %s)\n", metric,
        f(mb) " [" f(q(b, n, 0.25)) ", " f(q(b, n, 0.75)) "]",
        f(mc) " [" f(q(c, n, 0.25)) ", " f(q(c, n, 0.75)) "]",
        wins, n, verdict, mb ? 100 * (mc - mb) / mb : 0, f(iqr)
    }'
done

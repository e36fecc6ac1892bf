#!/usr/bin/env bash
# Paired benchmark runs of this working tree against a base commit: the
# way a performance claim, and the absence of a regression, is shown on a
# noisy host. Pair i runs bench/run.sh for every listed workload on both
# trees at seed i with the same run length, alternating which side goes
# first, before pair i+1 starts, so a shift in the host's state lands on
# the same pair of each workload. The script prints every pair (ops_per_s
# and put_p99_us of both sides), then per workload, for each end-to-end
# metric, the two sides' medians and quartiles, the change's wins and two
# verdicts:
#
#   claim       gain: better in at least nine tenths of the pairs (ties
#               count for neither) and medians further apart than the
#               base's own interquartile range; otherwise no claim.
#   regression  worse: the change's median is worse than the base's by
#               more than BENCHMARK.json's bound for the metric;
#               unresolved: the base's IQR is wider than the bound (as a
#               fraction of its median), unless every change run beats
#               every base run; held otherwise.
#
# Where a workload's report has Get latency (get_p50_us, get_p99_us), its
# medians, quartiles and wins follow, read from each tree's
# .bench_out/end_to_end.<workload>.json; they are per-layer metrics, so
# those rows carry no verdict.
#
# Last, each workload's failed operations and correctness flags, summed
# over its runs.
#
#   scripts/benchpairs.sh <base-ref> <workload>... [pairs] [seconds]
#
# pairs defaults to 10 and seconds to BENCHMARK.json's run length (20). The
# base is extracted from git into a temporary directory and built there; the
# working tree runs as it is, uncommitted changes included. Never run two
# benchmarks at once on the same host: the pairs would measure each other.
set -euo pipefail

usage() {
  echo "usage: $0 <base-ref> <workload>... [pairs] [seconds]" >&2
  exit 2
}
[[ $# -ge 2 ]] || usage
base_ref=$1
shift
workloads=() numbers=()
for arg in "$@"; do
  if [[ $arg =~ ^[0-9]+$ ]]; then
    numbers+=("$arg")
  elif ((${#numbers[@]})); then
    usage # a workload after the pair count
  else
    workloads+=("$arg")
  fi
done
((${#workloads[@]} && ${#numbers[@]} <= 2)) || usage
pairs=${numbers[0]:-10} seconds=${numbers[1]:-20}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"

# run <tree> <workload> <seed>: one benchmark run; prints its driver JSON line.
run() {
  local log="$tmp/run.log"
  if ! (cd "$1" && bash bench/run.sh -workload "$2" -seed "$3" -seconds "$seconds" -trace 0) >"$log" 2>&1; then
    echo "benchpairs: $2 failed in $1 (seed $3):" >&2
    tail -20 "$log" >&2
    exit 1
  fi
  tail -1 "$log"
}

# value <metric> <json line>: the metric's value from a driver line.
value() {
  grep -o "\"$1\":{\"value\":[^,}]*" <<<"$2" | sed 's/.*"value"://'
}

# field <name> <json line>: a top-level scalar of a driver line.
field() {
  grep -o "\"$1\":[^,}]*" <<<"$2" | head -1 | sed 's/.*://'
}

# The end-to-end metrics, which way is better and their bounds, from
# BENCHMARK.json.
mapfile -t metrics < <(awk -F'"' '
  /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { name = $4 }
  on && /"better"/ { better = $4 }
  on && /"bound"/ { split($3, b, /[:,} ]+/); print name " " better " " b[2] }' "$root/BENCHMARK.json")

# report <tree> <workload> <metric>: the metric's value in the tree's last
# end-to-end report of the workload; empty if the report has none.
report() {
  awk -v name="\"name\": \"$3\"" 'index($0, name) { on = 1; next }
    on && /"value":/ { sub(/.*"value": */, ""); sub(/,$/, ""); print; exit }' "$1/.bench_out/end_to_end.$2.json"
}

# The per-layer metrics a workload's end-to-end report may carry, lower
# is better for both.
per_layer=(get_p50_us get_p99_us)

# verdicts <metric> <better> [bound]: reads "base change" lines, prints the
# metric's table row; without a bound the row is per-layer and carries no
# verdict.
verdicts() {
  awk -v metric="$1" -v better="$2" -v bound="${3-}" '
    function q(a, n, p,   pos, lo) { # linear-interpolated quantile of sorted a[1..n]
      pos = 1 + p * (n - 1); lo = int(pos)
      return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function f(v) { return v >= 1000 ? sprintf("%.0f", v) : sprintf("%.4g", v) }
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function abs(v) { return v < 0 ? -v : v }
    {
      n++; b[n] = $1; c[n] = $2
      if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
    }
    END {
      sort(b, n); sort(c, n)
      mb = q(b, n, 0.5); mc = q(c, n, 0.5); iqr = q(b, n, 0.75) - q(b, n, 0.25)
      gain = better == "higher" ? mc - mb : mb - mc
      if (bound == "") {
        printf "%-14s %-30s %-30s %2d/%-3d per-layer, not gated (%+.1f%%)\n", metric,
          f(mb) " [" f(q(b, n, 0.25)) ", " f(q(b, n, 0.75)) "]",
          f(mc) " [" f(q(c, n, 0.25)) ", " f(q(c, n, 0.75)) "]",
          wins, n, mb ? 100 * (mc - mb) / mb : 0
        exit
      }
      claim = (wins >= 0.9 * n && gain > iqr) ? "gain" : "no claim"
      # Every change run beats every base run: its worst beats their best.
      apart = better == "higher" ? c[1] > b[n] : c[n] < b[1]
      if (mb && -gain / abs(mb) > bound) regression = "worse"
      else if (mb && iqr / abs(mb) > bound && !apart) regression = "unresolved"
      else regression = "held"
      printf "%-14s %-30s %-30s %2d/%-3d %-8s %-10s (%+.1f%%, base IQR %s, bound %g%%)\n", metric,
        f(mb) " [" f(q(b, n, 0.25)) ", " f(q(b, n, 0.75)) "]",
        f(mc) " [" f(q(c, n, 0.25)) ", " f(q(c, n, 0.75)) "]",
        wins, n, claim, regression, mb ? 100 * (mc - mb) / mb : 0, f(iqr), 100 * bound
    }'
}

# lines[<side> <workload> <pair>] is that run's driver JSON line, and
# layer[<side> <workload> <pair> <metric>] a per_layer value from its report.
declare -A lines layer
echo "# $pairs pairs of $seconds s per workload, base $base_ref ($(git -C "$root" rev-parse --short "$base_ref")) vs the working tree"
for ((i = 1; i <= pairs; i++)); do
  for workload in "${workloads[@]}"; do
    if ((i % 2)); then
      b=$(run "$tmp/base" "$workload" "$i")
      c=$(run "$root" "$workload" "$i")
    else
      c=$(run "$root" "$workload" "$i")
      b=$(run "$tmp/base" "$workload" "$i")
    fi
    lines[base $workload $i]=$b lines[change $workload $i]=$c
    for metric in "${per_layer[@]}"; do
      layer[base $workload $i $metric]=$(report "$tmp/base" "$workload" "$metric")
      layer[change $workload $i $metric]=$(report "$root" "$workload" "$metric")
    done
    printf 'pair %2d %-20s (seed %d, %s first): ops_per_s base %.0f change %.0f, put_p99_us base %.1f change %.1f\n' \
      "$i" "$workload" "$i" "$( ((i % 2)) && echo base || echo change)" \
      "$(value ops_per_s "$b")" "$(value ops_per_s "$c")" "$(value put_p99_us "$b")" "$(value put_p99_us "$c")"
  done
done

for workload in "${workloads[@]}"; do
  echo
  echo "# $workload"
  printf '%-14s %-30s %-30s %-6s %-8s %s\n' metric "base median [q1, q3]" "change median [q1, q3]" wins claim regression
  for entry in "${metrics[@]}"; do
    read -r metric better bound <<<"$entry"
    for ((i = 1; i <= pairs; i++)); do
      echo "$(value "$metric" "${lines[base $workload $i]}") $(value "$metric" "${lines[change $workload $i]}")"
    done | verdicts "$metric" "$better" "$bound"
  done
  for metric in "${per_layer[@]}"; do
    rows=""
    for ((i = 1; i <= pairs; i++)); do
      b=${layer[base $workload $i $metric]} c=${layer[change $workload $i $metric]}
      [[ -n $b && -n $c ]] || continue 2 # not in this workload's report
      rows+="$b $c"$'\n'
    done
    printf '%s' "$rows" | verdicts "$metric" lower
  done

  for side in base change; do
    failed=0 attempted=0 incorrect=0
    for ((i = 1; i <= pairs; i++)); do
      line=${lines[$side $workload $i]}
      failed=$((failed + $(field failed "$line")))
      attempted=$((attempted + $(field attempted "$line")))
      [[ $(field correct "$line") == true ]] || incorrect=$((incorrect + 1))
    done
    printf '%-6s failed %d of %d ops, %d of %d runs incorrect\n' "$side" "$failed" "$attempted" "$incorrect" "$pairs"
  done
done

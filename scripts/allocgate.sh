#!/usr/bin/env bash
# Zero-allocation gate for the InProc hot path with tracing compiled in
# but disabled: the steady-state benchmark must report 0 allocs/op, on
# one shard and on four sharing a runtime's cores (same-core sends go
# through the core's FIFO), or an observability hook has put an
# allocation back on the per-op path (the tracing-off cost contract is
# one atomic load per hook). And for
# the TCP send path's encoder: the wire.Codec and the message copy must
# stay on the writer's stack.
#
#   ./scripts/allocgate.sh
set -euo pipefail

gate() { # benchmark name, iterations, what allocating there would mean
  local out line
  out=$(go test -run '^$' -bench "$1\$" -benchtime "$2" -count 1 .)
  echo "$out"
  line=$(grep "$1" <<<"$out" || true)
  if [[ -z "$line" ]]; then
    echo "alloc gate: $1 did not run" >&2
    exit 1
  fi
  if ! grep -q ' 0 allocs/op' <<<"$line"; then
    echo "alloc gate: $3" >&2
    exit 1
  fi
}

gate BenchmarkKVInProcSteadyState 20000x "hot path allocates with tracing disabled"
# Two cores put two nodes of every group on each, on any host.
GOMAXPROCS=2 gate BenchmarkKVInProcSteadyStateShards 20000x "the shared-core path allocates: four shards on one runtime's cores"
gate BenchmarkCodecEncodeWire 200000x "the wire encoder allocates: a layout reaches the codec through an indirect call"
echo "alloc gate: 0 allocs/op with tracing compiled in, disabled, on one shard and on four sharing cores, and 0 allocs/op on the wire encode path"

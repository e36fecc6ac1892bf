#!/usr/bin/env bash
# Allocation gate for the InProc hot path with tracing compiled in but
# disabled. With adaptive batching at window 32 (a batch cap of 16) the
# steady-state benchmark must report 0 allocs/op, on one shard and on
# four sharing a runtime's cores (same-core sends go through the core's
# FIFO), or an observability hook has put an allocation back on the
# per-op path (the tracing-off cost contract is one atomic load per
# hook). With batching off, where nothing amortizes, a commit may
# allocate 5 objects and no more: the request, the accept and the reply
# boxed into msg.Message, and the Learn's entry slice and box — a sixth
# is a per-instance allocation back on the commit path (a timer per
# instance, a message boxed per receiver, a one-entry slice). And for
# the TCP send path's encoder: the wire.Codec and the message copy must
# stay on the writer's stack.
#
#   ./scripts/allocgate.sh
set -euo pipefail

gate() { # benchmark name, iterations, most allocs/op, what exceeding it would mean
  local out line allocs
  out=$(go test -run '^$' -bench "$1\$" -benchtime "$2" -count 1 .)
  echo "$out"
  line=$(grep "$1" <<<"$out" || true)
  if [[ -z "$line" ]]; then
    echo "alloc gate: $1 did not run" >&2
    exit 1
  fi
  allocs=$(grep -o '[0-9]\+ allocs/op' <<<"$line" | cut -d' ' -f1)
  if [[ -z "$allocs" || "$allocs" -gt "$3" ]]; then
    echo "alloc gate: $1 reports ${allocs:-no} allocs/op, at most $3 allowed: $4" >&2
    exit 1
  fi
}

gate BenchmarkKVInProcSteadyState 20000x 0 "hot path allocates with tracing disabled"
# Two cores put two nodes of every group on each, on any host.
GOMAXPROCS=2 gate BenchmarkKVInProcSteadyStateShards 20000x 0 "the shared-core path allocates: four shards on one runtime's cores"
gate BenchmarkKVInProcSteadyStateLight 20000x 5 "a batch-1 commit allocates per instance beyond its five messages"
gate BenchmarkCodecEncodeWire 200000x 0 "the wire encoder allocates: a layout reaches the codec through an indirect call"
echo "alloc gate: 0 allocs/op with adaptive batching and tracing compiled in, disabled, on one shard and on four sharing cores; at most 5 allocs/op at batch 1; 0 allocs/op on the wire encode path"

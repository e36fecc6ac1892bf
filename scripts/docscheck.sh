#!/usr/bin/env bash
# docscheck — the CI docs gate, runnable locally too:
#
#   ./scripts/docscheck.sh
#
# Fails when gofmt would change anything, when go vet complains, when
# any library package (the root, internal/*) is missing a package
# comment, when any command/example main is missing a header comment,
# when an engine package builds a subsystem the replica shell owns or
# keeps its own copy of the regime (an iAmLeader, knownLeader or aa
# field, or an IsLeader/Leader hook on replica.Agreement),
# when a wall-clock sweep driver or a recorded BENCH_*.json reappears
# beside bench/, when a second stats path grows back beside internal/obs
# (a typed stats struct, an adapter, a registry gauge, a metric name
# spelled outside its owner), when a second client grows back beside
# internal/client, when the lane grows a lock, a Transmit method or a
# static batcher back,
# a real runtime a timer channel or the TCP transport a Context of its
# own, or bridge.go a fourth mu.Lock(), when internal/runtime starts a
# goroutine anywhere but its core or api.go a runtime per shard, when the
# snapshot Manager grows
# a second recovery watchdog or timer, when protocol or recovery code
# grows a rule that revives a timer a paused simulator core lost,
# when internal/experiments grows a per-experiment
# printer or row type back or a Registry id has no EXPERIMENTS.md row,
# when the root package exports a simulator or fuzzer name again or
# cmd/consensusbench runs an experiment outside the Registry, when
# non-test Go outside bench/ cites the ROADMAP, when DESIGN.md cites a
# Test name no _test.go defines, when an engine package's tests grow a
# simnet harness of their own back or stop calling enginetest.Run, when
# internal/cluster registers the engines itself again, or
# when a doc file that other docs link to is absent.
# The point is that the docs pass of PR 2 cannot silently rot.
set -u
cd "$(dirname "$0")/.."

fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "docscheck: gofmt -l reports unformatted files:" >&2
    echo "$unformatted" >&2
    fail=1
fi

if ! go vet ./...; then
    fail=1
fi

# staticcheck, when available (CI installs it; locally it is optional so
# a bare container can still run the gate).
if command -v staticcheck >/dev/null 2>&1; then
    if ! staticcheck ./...; then
        fail=1
    fi
else
    echo "docscheck: staticcheck not installed; skipping (CI runs it)" >&2
fi

# Every library package must carry a "// Package <name> ..." comment in
# some non-test file; every main package must open with a header
# comment in at least one file.
for pkg in $(go list ./...); do
    dir=$(go list -f '{{.Dir}}' "$pkg")
    name=$(go list -f '{{.Name}}' "$pkg")
    ok=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        [ -e "$f" ] || continue
        if [ "$name" = main ]; then
            case "$(head -1 "$f")" in "//"*) ok=1 ;; esac
        elif grep -q "^// Package $name " "$f"; then
            ok=1
        fi
    done
    if [ "$ok" -eq 0 ]; then
        if [ "$name" = main ]; then
            echo "docscheck: $pkg has no header comment on any file" >&2
        else
            echo "docscheck: $pkg has no '// Package $name ...' comment" >&2
        fi
        fail=1
    fi
done

# The replica shell (internal/replica) owns sessions, the learner log,
# snapshots, the read path and the leader book's accept deadline for
# every engine, and encoding/gob lives only in the codec tests. An
# engine that builds one of these itself is re-growing a private copy
# the next fix would have to be made in twice.
engines="internal/onepaxos internal/multipaxos internal/twopc internal/basicpaxos internal/mencius"
private=$(grep -nE 'snapshot\.New\(|readpath\.New\(|rsm\.NewSessions\(|rsm\.NewLog\(|replica\.NewOutstanding\(|"encoding/gob"' \
    $(find $engines -name '*.go' ! -name '*_test.go'))
if [ -n "$private" ]; then
    echo "docscheck: engine packages must take these from the replica shell, not build their own:" >&2
    echo "$private" >&2
    fail=1
fi

# One regime record (DESIGN.md, "The regime record"): who leads and who
# accepts is the shell's Regime, installed from committed decisions, with
# one leadership bit beside it. An engine field named iAmLeader,
# knownLeader or aa, or an IsLeader or Leader hook on replica.Agreement,
# is a second copy of that state growing back.
roles=$(grep -nE '^[[:space:]]+([A-Za-z_]+,[[:space:]]*)*(iAmLeader|knownLeader|aa)([[:space:]]*,[[:space:]]*[A-Za-z_]+)*[[:space:]]+[A-Za-z*[]' \
    $(find $engines -name '*.go' ! -name '*_test.go'))
hooks=$(sed 's,//.*$,,' internal/replica/shell.go |
    awk '/^type Agreement struct/{on=1} on&&/^}/{on=0} on{print "internal/replica/shell.go:" NR ":" $0}' |
    grep -E ':[0-9]+:[[:space:]]*([A-Za-z_]+,[[:space:]]*)*(IsLeader|Leader)([[:space:],]|$)')
if [ -n "$roles$hooks" ]; then
    echo "docscheck: who leads and who accepts is the shell's Regime and IsLeader, not an engine field or an Agreement hook:" >&2
    printf '%s\n%s\n' "$roles" "$hooks" | grep . >&2
    fail=1
fi

# Wall-clock measurement lives in bench/ (named workloads, medians over
# repeats) and nowhere else: a *sweep.go driver in the root package or a
# single-run BENCH_*.json under version control is the second
# measurement stack growing back.
regrown=$(ls ./*sweep.go 2>/dev/null; git ls-files 'BENCH_*.json' 2>/dev/null)
if [ -n "$regrown" ]; then
    echo "docscheck: wall-clock measurement belongs in bench/, not in root sweep drivers or tracked BENCH_*.json:" >&2
    echo "$regrown" >&2
    fail=1
fi

# internal/obs's named snapshot is the one stats surface: a subsystem
# keeps one live counters struct and one Collect method that spells its
# names beside the fields. A typed copy-out struct in internal/metrics,
# an adapter in internal/obs, or a registry-owned gauge is the second
# stats system growing back; a "wire." / "snap." / "read." name spelled
# outside the package that owns the counters is a second place to edit
# (bench/ only reads the names; comments may mention them).
sources=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*')
second=$(grep -nE 'metrics\.(WireStats|SnapshotStats|ReadStats)|Add(Wire|Read|Snapshot)Stats\(|\*Registry\) (Gauge|Counter)\(' $sources)
if [ -n "$second" ]; then
    echo "docscheck: stats go through Collect(*obs.Snapshot), not typed structs, adapters or registry gauges:" >&2
    echo "$second" >&2
    fail=1
fi
for owned in wire:internal/transport snap:internal/snapshot read:internal/readpath; do
    prefix=${owned%%:*}
    owner=${owned#*:}
    stray=$(grep -nE "\"$prefix\\.[a-z]" $(echo "$sources" | grep -v "^./$owner/") |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')
    if [ -n "$stray" ]; then
        echo "docscheck: \"$prefix.*\" metric names are spelled only in $owner (its Collect method):" >&2
        echo "$stray" >&2
        fail=1
    fi
done

# internal/client's Lane is the one pipelined client; the KV's bridge
# and the simulator's load source are front ends that call it. Code
# outside it (and internal/shard, which defines the tag) that builds a
# ReadRequest, tags a seq or declares a retry timer kind of its own is a
# second client growing back, and so is any of the old per-front-end
# flight types, anywhere. Comments may mention the names; paxosutil's
# TimerRetry is the replicas' utility-proposal retry, not a client's.
for f in $(echo "$sources" | grep -vE '^./internal/(client|shard|paxosutil)/'); do
    regrown=$(sed 's,//.*$,,' "$f" |
        grep -nE 'msg\.ReadRequest\{|shard\.TagSeq\(|^[[:space:]]*(const[[:space:]]+)?[A-Za-z]*Timer[A-Za-z]*Retry[A-Za-z]*[[:space:]]*(=|$)')
    if [ -n "$regrown" ]; then
        echo "docscheck: $f does the one client's work (internal/client owns read requests, seq tags and retry timers):" >&2
        echo "$regrown" >&2
        fail=1
    fi
done
regrown=$(grep -rnE 'kvFlight|kvReadOp|kvReadBatch|readFlight' --include='*.go' .)
if [ -n "$regrown" ]; then
    echo "docscheck: per-front-end flight types are gone; an in-flight op is a client.Op in the lane's window:" >&2
    echo "$regrown" >&2
    fail=1
fi
# The lane has one batcher (DESIGN.md, "The client"): one command per
# instance, or the adaptive rule. A static batch size, a batch delay or
# a flush timer is the second batcher growing back.
static=$(grep -nE 'BatchSize|BatchDelay|TimerFlush' $sources)
if [ -n "$static" ]; then
    echo "docscheck: batching is BatchAdaptive or off; the static batcher and its flush timer are gone:" >&2
    echo "$static" >&2
    fail=1
fi

# Code cites the DESIGN.md section that states an invariant, not a
# ROADMAP item: the roadmap is renumbered at every re-anchor, so a cited
# number goes stale without anything failing.
roadmap=$(grep -nE 'ROADMAP' $sources)
if [ -n "$roadmap" ]; then
    echo "docscheck: non-test Go cites the ROADMAP; cite the DESIGN.md section instead:" >&2
    echo "$roadmap" >&2
    fail=1
fi

# The lane is node-private (DESIGN.md, "Who touches what in the
# adapter"): it sends and arms on the runtime.Context itself and shares
# nothing but atomic counters, the bridge's mutex guards only the caller
# hand-off (enqueue, the per-wake drain, close), and a node has one
# mailbox. A lock in internal/client, a Transmit method, a fourth
# mu.Lock() in bridge.go or a timer channel in either real runtime is the
# shared-lane design growing back.
shared=$(grep -nE '^[[:space:]]*(import[[:space:]]+)?"sync"' $(find internal/client -name '*.go' ! -name '*_test.go'))
if [ -n "$shared" ]; then
    echo "docscheck: internal/client imports sync; the lane is owned by one node and shares only sync/atomic counters:" >&2
    echo "$shared" >&2
    fail=1
fi
transmit=$(grep -rnE '^func \(l \*Lane\[T\]\) Transmit' --include='*.go' internal/client)
if [ -n "$transmit" ]; then
    echo "docscheck: lane methods send on the runtime.Context themselves; a Transmit method is the two-step growing back:" >&2
    echo "$transmit" >&2
    fail=1
fi
timerch=$(grep -rn 'timerCh' --include='*.go' internal/runtime internal/transport)
if [ -n "$timerch" ]; then
    echo "docscheck: a node's timer fires go to its one mailbox, not a timer channel:" >&2
    echo "$timerch" >&2
    fail=1
fi
# One node for both real runtimes (DESIGN.md, "Nodes"): a TCP node is a
# runtime.Node whose peer transport is sockets. An After method returning
# runtime.CancelFunc in internal/transport is a second Context — and with
# it a second actor loop — growing back.
context=$(grep -HnE '^func \([^)]*\) After\(.*\) runtime\.CancelFunc' $(find internal/transport -name '*.go' ! -name '*_test.go'))
if [ -n "$context" ]; then
    echo "docscheck: internal/transport hands its handlers runtime.Node's Context, not one of its own:" >&2
    echo "$context" >&2
    fail=1
fi
# Replicas on cores (DESIGN.md, "Cores"): a core is the one goroutine
# the runtime starts, and one InProc runtime hosts every shard. A second
# go statement in internal/runtime is a per-node goroutine growing back;
# NewInProcCluster in api.go is one runtime per shard growing back.
gostmts=$(for f in $(find internal/runtime -name '*.go' ! -name '*_test.go'); do
    sed 's,//.*$,,' "$f" | grep -nE '(^|[[:space:];{])go [[:alnum:]_(]' | sed "s,^,$f:,"
done)
if [ "$(printf '%s' "$gostmts" | grep -c .)" -gt 1 ]; then
    echo "docscheck: internal/runtime starts goroutines in one place, core.start:" >&2
    echo "$gostmts" >&2
    fail=1
fi
pershard=$(sed 's,//.*$,,' api.go | grep -n 'NewInProcCluster')
if [ -n "$pershard" ]; then
    echo "docscheck: api.go runs every shard on one runtime (NewInProcGroups), not a cluster per shard:" >&2
    echo "$pershard" >&2
    fail=1
fi
locks=$(grep -c 'mu\.Lock()' bridge.go)
if [ "$locks" -gt 3 ]; then
    echo "docscheck: bridge.go takes mu $locks times; it guards the caller hand-off only (enqueue, the per-wake drain, close):" >&2
    grep -n 'mu\.Lock()' bridge.go >&2
    fail=1
fi

# One layout function per wire type (DESIGN.md, "One layout per type"):
# a type's wire(c *wire.Codec) method names its fields once and a
# two-way wire.Codec runs it as encoder or decoder. A Marshal/Unmarshal
# method pair, the one-way Decoder or Append helpers, or an append/decode
# helper pair in internal/msg is a layout spelled twice growing back.
twice=$(grep -nE 'MarshalWire|UnmarshalWire|wire\.NewDecoder|wire\.Append(Uvarint|Varint|String|Bytes|Bool)' $sources)
if [ -n "$twice" ]; then
    echo "docscheck: a wire type has one layout method run by wire.Codec, not an encode half and a decode half:" >&2
    echo "$twice" >&2
    fail=1
fi
halves=$(grep -nE '^func (append|decode)(Command|Batch|Value|Proposal|Proposals|UtilEntry)\(' $(find internal/msg -name '*.go' ! -name '*_test.go'))
if [ -n "$halves" ]; then
    echo "docscheck: internal/msg lays a shared struct out in its wire method, not in an append/decode helper pair:" >&2
    echo "$halves" >&2
    fail=1
fi

# A snapshot is captured when a peer asks for one (DESIGN.md, "Capture &
# compaction"): the compaction cadence encodes nothing and the Manager
# keeps no image. Encode( or SnapshotState( called from a second function
# in manager.go, or a []byte field on the Manager besides the receiving
# side's assembly buffer, is the eager capture path growing back.
mgr=internal/snapshot/manager.go
capturers=$(sed 's,//.*$,,' "$mgr" |
    awk '/^func /{fn=$0} /Encode\(|SnapshotState\(/{print fn}' | sort -u)
if [ "$(printf '%s' "$capturers" | grep -c .)" -gt 1 ]; then
    echo "docscheck: $mgr builds a snapshot in more than one function; servableSnapshot is the one capture path:" >&2
    echo "$capturers" >&2
    fail=1
fi
images=$(sed 's,//.*$,,' "$mgr" |
    awk '/^type Manager struct/{on=1} on&&/^}/{on=0} on&&/\[\]byte/&&$1!="assembling"')
if [ -n "$images" ]; then
    echo "docscheck: snapshot.Manager retains an encoded image; a snapshot is captured per request and owned by its transfer:" >&2
    echo "$images" >&2
    fail=1
fi

# One recovery watchdog (DESIGN.md, "Rejoining"): the transfer retry,
# the convergence watch and the gap watch are one stall timer with one
# goal, armed in one place. The old per-watch fields, or a second
# ctx.After in manager.go (armRetry's is the only one), is a second
# timer state machine growing back.
watches=$(grep -nE 'watching|watchGoal|lastSeen|gapWatch|gapSeen|gapArmed' $(find internal/snapshot -name '*.go' ! -name '*_test.go'))
if [ -n "$watches" ]; then
    echo "docscheck: internal/snapshot has one stall watchdog (goal, seen), not a field set per watch:" >&2
    echo "$watches" >&2
    fail=1
fi
if [ "$(grep -c 'ctx\.After(' "$mgr")" -gt 1 ]; then
    echo "docscheck: $mgr arms its timer only in armRetry:" >&2
    grep -n 'ctx\.After(' "$mgr" >&2
    fail=1
fi

# A paused core keeps its timers (simnet's Crash, then Recover): the
# simulator owns that fact, so no engine or recovery code re-arms a timer
# it thinks a pause dropped. A revival rule, or the arm time it keys on,
# is that compensation growing back.
revivals=$(grep -nE 'revive|reviveStalled|armedAt|Revive\(' $(find internal -name '*.go' ! -name '*_test.go'))
if [ -n "$revivals" ]; then
    echo "docscheck: a paused simulator core keeps its timers; internal/ needs no rule that revives one:" >&2
    echo "$revivals" >&2
    fail=1
fi

# Experiments are data (internal/experiments): one Row type, one
# renderer, one list. A Print* function or a second ...Row / ...Point
# struct there is a hand-rolled driver growing back, and a Registry id
# without a row in EXPERIMENTS.md is an experiment nobody compared with
# the paper.
expsrc=$(find internal/experiments -name '*.go' ! -name '*_test.go')
printers=$(grep -nE '^func (\([^)]*\) )?Print[A-Z]' $expsrc)
if [ -n "$printers" ]; then
    echo "docscheck: internal/experiments prints every table through Experiment.report, not a per-experiment Print function:" >&2
    echo "$printers" >&2
    fail=1
fi
rowtypes=$(grep -nE '^type [A-Za-z]*(Row|Point) struct' $expsrc)
if [ "$(printf '%s' "$rowtypes" | grep -c .)" -gt 1 ]; then
    echo "docscheck: internal/experiments has one row type (Row); a second one is a private result type growing back:" >&2
    echo "$rowtypes" >&2
    fail=1
fi
for id in $(grep -oE 'ID: +"[^"]+"' internal/experiments/registry.go | cut -d'"' -f2); do
    if ! grep -q "^| \`$id\` |" EXPERIMENTS.md; then
        echo "docscheck: experiment \"$id\" is in internal/experiments.Registry but has no row in EXPERIMENTS.md" >&2
        fail=1
    fi
done

# One public API, one experiment list: the root package exports the KV
# service and its knobs only (the simulator harness is internal/cluster,
# the fuzzer internal/experiments), and cmd/consensusbench ranges over
# experiments.Registry. An exported Sim*, Machine*, Costs* or
# ScenarioFuzz* name in root non-test Go, or an experiment the command
# defines itself, is the second surface growing back.
names='(New)?(Sim|Machine|Costs|ScenarioFuzz)[A-Za-z0-9]*'
facade=$(for f in $(ls ./*.go | grep -v '_test\.go$'); do
    sed 's,//.*$,,' "$f" |
        grep -nE "^(func|type|var|const)[[:space:]]+(\([^)]*\)[[:space:]]*)?$names|^[[:space:]]+$names([[:space:]]*=|[[:space:]]+[A-Za-z*[])" |
        sed "s,^,$f:,"
done)
if [ -n "$facade" ]; then
    echo "docscheck: the root package exports the KV API only; simulator and fuzzer names live in internal/cluster and internal/experiments:" >&2
    echo "$facade" >&2
    fail=1
fi
outside=$(grep -HnE 'func scenarioFuzz|experiment\{' $(find cmd/consensusbench -name '*.go' ! -name '*_test.go'))
if [ -n "$outside" ]; then
    echo "docscheck: cmd/consensusbench runs experiments.Registry only; an experiment is a stanza there:" >&2
    echo "$outside" >&2
    fail=1
fi

# DESIGN.md states invariants and names the test that pins each; a cited
# name with no func in any _test.go is a pin a rename silently removed.
cited=$(grep -oE '\bTest[A-Z][A-Za-z0-9_]*' DESIGN.md | sort -u)
defined=$(grep -rhoE --include='*_test.go' '^func Test[A-Za-z0-9_]+\(' . | sed 's/^func //; s/($//' | sort -u)
missing=$(comm -23 <(echo "$cited") <(echo "$defined"))
if [ -n "$missing" ]; then
    echo "docscheck: DESIGN.md cites tests that no _test.go defines:" >&2
    echo "$missing" >&2
    fail=1
fi

# One engine conformance suite (DESIGN.md, "The protocol seam"): every
# engine package runs internal/protocol/enginetest, whose deployments
# come from cluster.Build. A hand-rolled simnet harness in an engine's
# tests is a per-engine copy of the suite growing back, and an engine
# package whose tests never call enginetest.Run has dropped out of it.
# Engines register only where a binary imports them (internal/protocol/all
# in internal/experiments, the root package, bench/): cluster.go importing
# the list again would make the suite an import cycle for every engine.
harness=$(grep -nwE 'recordingClient|newScenario|checkAgreement' $(find $engines -name '*_test.go'))
if [ -n "$harness" ]; then
    echo "docscheck: engine tests build deployments through enginetest or cluster.Build, not a harness of their own:" >&2
    echo "$harness" >&2
    fail=1
fi
for e in $engines; do
    if ! grep -q 'enginetest\.Run(' $(find "$e" -name '*_test.go') /dev/null; then
        echo "docscheck: $e's tests do not run the conformance suite (enginetest.Run)" >&2
        fail=1
    fi
done
if grep -n '"consensusinside/internal/protocol/all"' internal/cluster/cluster.go >&2; then
    echo "docscheck: internal/cluster must not register the engines; its importers do" >&2
    fail=1
fi

# Documentation files the code and other docs point at.
for doc in README.md DESIGN.md EXPERIMENTS.md docs/BENCHMARKS.md; do
    if [ ! -s "$doc" ]; then
        echo "docscheck: $doc is missing or empty" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docscheck: ok"

#!/bin/sh
# check.sh is the repo's verification gate: build, vet, unit tests, then the
# race detector over every package. CI and `make check` both run this.
set -eu

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

echo ">> go test ./..."
go test ./...

echo ">> go test -race ./..."
go test -race ./...

# The distributed driver fans every client into its own goroutine and shares
# algorithm hook state across the round barrier, so the multi-algorithm
# distrib suite must hold under the race detector specifically.
echo ">> go test -race -count=1 -run 'MatchesInProcess|RunOver' ./internal/distrib/"
go test -race -count=1 -run 'MatchesInProcess|RunOver' ./internal/distrib/

# Seeded chaos suite: deterministic fault injection (crash/drop/dup/corrupt/
# sendfail) over bus and TCP with partial-cohort aggregation, retry, and
# quorum aborts, plus TestChaosLadderRows, which feeds every validation
# ladder row through sync and async dispatches in both dispositions. Crash/restart churns connections and receiver goroutines, so
# this too must hold under the race detector (DESIGN.md §9). The unanchored
# pattern also picks up the TestTreeChaos* tier suite: leaf crashes, digest
# drop/corrupt/dup/sendfail on the leaf↔root links, shard deadlines and
# quorum aborts, degraded-tree rounds, and byte-identical replay over bus and
# TCP (DESIGN.md §14).
echo ">> go test -race -count=1 -run 'Chaos' ./internal/distrib/"
go test -race -count=1 -run 'Chaos' ./internal/distrib/

# Structural invariant of the fault-tolerant root: the root's only receive is
# the deadline-sliced collector loop — a bare conn.Recv() or a zero-wait
# rx.recv(0) in root.go would block forever on a lost digest and turn a leaf
# failure back into a hung round (DESIGN.md §14). root.go holds all of the
# root's side of a round: the digest collect and merge, and the open and
# close steps it shares with the flat server (DESIGN.md §13).
echo ">> structural check: no deadline-less blocking receive in root.go"
if grep -nE '\.Recv\(\)|\.recv\(0\)' internal/distrib/root.go; then
    echo "FAIL: internal/distrib/root.go must receive digests only through the deadline-sliced collector; a blocking receive hangs the round on a lost shard (DESIGN.md §14)" >&2
    exit 1
fi

# Async determinism gate: same-seed barrier-free runs must replay to
# byte-identical histories and ledger totals — in-process at the root, and
# over the bus transport — while the flush fan-out runs under the race
# detector (DESIGN.md §11).
echo ">> go test -race -count=1 -run 'TestAsyncSameSeedReplay' ."
go test -race -count=1 -run 'TestAsyncSameSeedReplay' .
echo ">> go test -race -count=1 -run 'Async' ./internal/fl/engine/ ./internal/distrib/"
go test -race -count=1 -run 'Async' ./internal/fl/engine/ ./internal/distrib/

# Churn determinism gate: same seed + same availability trace must replay to
# byte-identical histories, ledger totals, and per-round cohorts — in-process
# and over the bus — while the registration fan-in runs under the race
# detector (DESIGN.md §12).
echo ">> go test -race -count=1 -run 'TestChurnSameSeedReplay|ServiceLeave|ServiceJoin|ServicePopulation' ./internal/distrib/"
go test -race -count=1 -run 'TestChurnSameSeedReplay|ServiceLeave|ServiceJoin|ServicePopulation' ./internal/distrib/

# Tree-equivalence gate: every algorithm run through the depth-2 aggregator
# tree must produce a byte-identical history and identical client-plane
# ledger totals to the flat server (bus everywhere, TCP for the two
# heavyweight paths), the compact mode must hold its 1e-9 tolerance, and the
# combined async+churn+tree golden must replay — all under the race detector,
# because the demultiplexer, leaf workers, and root collect are one more
# concurrent fan-out (DESIGN.md §13).
echo ">> go test -race -count=1 -run 'TestTreeMatchesFlat|TestTreeCompactFedAvgTolerance|TestTopologyValidation|TestGoldenAsyncChurnTree' ."
go test -race -count=1 -run 'TestTreeMatchesFlat|TestTreeCompactFedAvgTolerance|TestTopologyValidation|TestGoldenAsyncChurnTree' .

# Structural invariant of the aggregator tree: the root merges shard digests
# and never allocates population-sized state — no make() in root.go may be
# sized by the universe (s.n), the round cohort, or the flush plan; only
# shard-count structures are allowed. O(cohort) work belongs to the leaves
# (each O(shard)) or to engine.MergeExact, which reconstructs the flat
# Aggregate input the algorithm itself requires (DESIGN.md §13).
echo ">> structural check: root aggregator holds only per-shard state"
if grep -nE 'make\([^)]*(s\.n|len\(cohort\)|plan\.(Chosen|Dispatched))' internal/distrib/root.go; then
    echo "FAIL: internal/distrib/root.go allocated population-sized state; the root may only hold per-shard structures (DESIGN.md §13)" >&2
    exit 1
fi

# Coverage floor for the round engine and the distributed driver: their
# statements must stay >= 80% covered by the merged profile of the suites
# that exercise them (root package + their own). Async buffer selection,
# staleness weighting, and the validation ladder all live here; an uncovered
# branch in either package is where replay divergence hides.
echo ">> coverage floor: engine+distrib >= 80%"
covprof=$(mktemp)
go test -coverpkg=fedpkd/internal/fl/engine,fedpkd/internal/distrib \
    -coverprofile="$covprof" . ./internal/fl/engine/ ./internal/distrib/ > /dev/null
total=$(go tool cover -func="$covprof" | awk 'END { sub(/%/, "", $NF); print $NF }')
rm -f "$covprof"
echo "   engine+distrib merged coverage: ${total}%"
if awk "BEGIN { exit !($total < 80) }"; then
    echo "FAIL: engine+distrib coverage ${total}% is below the 80% floor" >&2
    exit 1
fi

# Structural invariant of the round-engine refactor: no algorithm owns a
# round loop. The engine's Runner is the only Round() in the tree; algorithm
# packages supply phase hooks exclusively.
echo ">> structural check: no per-algorithm Round() declarations"
if grep -rnE 'func \([^)]*\) Round\(' internal/core/ internal/baselines/; then
    echo "FAIL: algorithm packages must not declare their own Round(); use engine hooks" >&2
    exit 1
fi

# Resume-equivalence suite: for all nine algorithms, run-N straight and
# run-k/checkpoint/rebuild/resume must produce byte-identical histories
# (accuracy trajectory and ledger byte totals), including over the distrib
# transport and past a corrupted newest checkpoint — under the race detector,
# because resume re-enters the concurrent fan-out mid-run.
echo ">> go test -race -count=1 -run 'TestResumeEquivalenceGoldens|TestResumeFallsBack|TestDistributedResume' ."
go test -race -count=1 -run 'TestResumeEquivalenceGoldens|TestResumeFallsBack|TestDistributedResume' .

# Structural invariant of the service refactor: the distributed runtime
# samples cohorts from the live registry, so no type under internal/distrib
# may construct a fixed-size peer/conn/channel array keyed by fleet size —
# that shape is exactly the old fixed peer list. population.go is the one
# documented compatibility path (transport fabric construction); tests are
# exempt.
echo ">> structural check: no fixed-size peer arrays in internal/distrib"
if grep -rnE 'make\(\[\](\*clientPeer|transport\.Conn|chan ) ' internal/distrib/ \
    | grep -v 'population\.go' | grep -v '_test\.go'; then
    echo "FAIL: internal/distrib must key peers by registry membership (maps), not fixed-size arrays; only population.go (strict-mode transport fabric) is exempt (DESIGN.md §12)" >&2
    exit 1
fi

# The service's operator control plane must survive its full command cycle —
# wire registration, pause/ping/save/resume/quit, kill -9, restart from the
# rolling checkpoint with a different population (DESIGN.md §12).
echo ">> sh scripts/serve_smoke.sh"
sh scripts/serve_smoke.sh

# Structural invariant of the run-state contract: every nn.Layer and
# nn.Optimizer implementation must declare Snapshot/Restore. New types are
# registered by their compile-time interface assertions (var _ Layer = ...),
# so a type that compiles without the state methods can only exist if someone
# also skipped the assertion — this gate catches exactly that drift.
echo ">> structural check: every nn.Layer/nn.Optimizer has Snapshot and Restore"
types=$(grep -rhoE 'var _ (Layer|Optimizer) = \(\*[A-Za-z0-9_]+\)' internal/nn/*.go \
    | sed -E 's/.*\(\*([A-Za-z0-9_]+)\)/\1/' | sort -u)
for ty in $types; do
    for method in Snapshot Restore; do
        if ! grep -qE "func \([a-zA-Z0-9_]+ \*$ty\) $method\(" internal/nn/*.go; then
            echo "FAIL: nn type $ty lacks $method (run-state contract, DESIGN.md §8)" >&2
            exit 1
        fi
    done
done

# Wire-codec suite: packed-section round-trip/corruption properties in comm,
# and the transport-level codec negotiation + per-codec exactness split —
# under the race detector because coded payloads cross the concurrent
# client fan-out (DESIGN.md §10).
echo ">> go test -race -count=1 -run 'Codec|Section' ./internal/comm/ ./internal/transport/"
go test -race -count=1 -run 'Codec|Section' ./internal/comm/ ./internal/transport/

# Differential fuzz of the exact wire codec: for a fixed 10 s budget,
# FuzzDecode checks that every input the hand-written decoder accepts is
# accepted by encoding/gob with the same value and is the exact encoder's own
# output, on top of its decode/validate/reconstruct properties (DESIGN.md §2).
echo ">> go test -run XXX -fuzz '^FuzzDecode\$' -fuzztime 10s ./internal/transport/"
go test -run XXX -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/transport/

# The kernel determinism contract (parallel == serial, bit for bit) must hold
# under real interleaving, so the equivalence, property, packed-NT and f32
# suites run again with the race detector and two scheduler threads forcing
# the worker pool to actually overlap panels; the AVX2-vs-generic row-kernel
# bit-identity tests ride along (DESIGN.md §6).
echo ">> GOMAXPROCS=2 go test -race ./internal/tensor/ (equivalence + property + packed + AVX2)"
GOMAXPROCS=2 go test -race -count=1 -run 'Equivalence|Property|Aliased|Parallel|Packed|F32|AVX2' ./internal/tensor/

# The generic row kernels are the only path off amd64 (and on CPUs without
# AVX2). A 386 build has no assembly, so it must reproduce the same golden
# bytes on the generic path; an arm64 vet keeps builds without the assembly
# compiling.
echo ">> GOARCH=386 go test -count=1 -run 'TestGoldenHistories\$|Equivalence|Property' . ./internal/tensor/"
GOARCH=386 go test -count=1 -run 'TestGoldenHistories$|Equivalence|Property' . ./internal/tensor/
echo ">> GOARCH=arm64 go vet ./internal/tensor/"
GOARCH=arm64 go vet ./internal/tensor/

# Compile-and-run every kernel benchmark once so perf-path-only code (panel
# kernels at benchmark shapes, scratch arena reuse) cannot rot unnoticed.
echo ">> go test -bench . -benchtime 1x ./internal/tensor/"
go test -run XXX -bench . -benchtime 1x ./internal/tensor/

echo "all checks passed"

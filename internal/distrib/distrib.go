// Package distrib runs any engine-backed algorithm as communicating
// processes: the server and every client execute in their own goroutine and
// exchange knowledge exclusively through the transport layer (in-memory bus
// or real TCP), exercising the same wire protocol a multi-host deployment
// would use. The round skeleton mirrors internal/fl/engine — RoundStart
// carries the front-loaded global state, RoundUpload the local updates,
// RoundEnd the aggregation broadcast — so the phase hooks an algorithm wrote
// for the in-process engine drive the distributed run unchanged. The ledger
// records the actual encoded wire bytes rather than the analytic sizes of
// internal/comm, so traffic totals differ from in-process runs while the
// accuracy trajectory is bit-identical (payload values travel as float64).
//
// # One round path
//
// Every round — a synchronous round or an async buffer flush, on the flat
// server or through the aggregator tree — runs the same three steps, driven
// by one service loop whose per-round step yields either a cohort or an
// engine flush plan:
//
//   - Open (openRound) builds one dispatch per shard, a
//     transport.ShardAssign: the shard's members, the RoundStart bytes they
//     receive, and the delta reference their uploads decode against. A
//     synchronous round encodes its RoundStart once and every shard shares
//     it; a flush gives each chosen client its own retained global.
//   - Serve (serveShard) fans the dispatch's round opening, collects the
//     shard's uploads through the one validation ladder (collectUploads)
//     into an engine.Partial, and fans the round close.
//   - Close (closeRound) merges the partials, staleness-weights them when a
//     flush plan is present, runs Aggregate (or the compact merge), and
//     encodes the round close.
//
// The flat server serves a single shard in-process and closes it directly.
// A tree ships each dispatch to a leaf aggregator, which serves its shard
// and digests the partial upward; the root merges the digests and runs the
// same close.
//
// # Failure model
//
// By default the runtime is strict: any protocol violation, lost message, or
// dead peer aborts the run, which is the right behavior for debugging and
// for the determinism goldens. Options turns on the failure-tolerant mode:
// a positive ClientTimeout bounds how long the server waits for uploads each
// round (stragglers and crashed clients are simply left out of the
// aggregate), a faults.Plan injects deterministic chaos beneath the
// protocol, MinQuorum aborts rounds that heard from too few clients, and
// Retry gives clients bounded exponential backoff on transient send
// failures. Strict mode is tolerant mode with every violation escalated
// instead of counted (see disposition), so each validation ladder row is
// written once. Partial rounds are recorded in fl.History.Degraded and in the
// per-round obs Robustness trace, so degradation is measurable rather than
// silent. Because every fault draw is a pure function of the plan seed and
// the message coordinates, two tolerant runs with the same seed accept the
// same uploads in the same rounds and produce identical histories.
package distrib

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/core"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Protocol-violation errors. Strict mode returns them (wrapped with
// context); tolerant mode counts the offending envelope in the round's
// Robustness trace and drops it.
var (
	// ErrStaleEnvelope marks a message stamped with a round other than the
	// one in flight — a late upload from a past round, or leftover traffic a
	// restarted client finds on its connection.
	ErrStaleEnvelope = errors.New("distrib: stale envelope")
	// ErrPeerMismatch marks an envelope whose From/To addressing does not
	// match the connection it arrived on.
	ErrPeerMismatch = errors.New("distrib: peer mismatch")
	// ErrDuplicateUpload marks a second upload from a client that already
	// contributed this round (the transport-duplication dedup).
	ErrDuplicateUpload = errors.New("distrib: duplicate upload")
	// ErrQuorumNotMet aborts a round that collected fewer uploads than
	// Options.MinQuorum.
	ErrQuorumNotMet = errors.New("distrib: quorum not met")
	// ErrShardQuorumNotMet aborts a tree round whose root merged fewer
	// surviving shard digests than Options.ShardQuorum.
	ErrShardQuorumNotMet = errors.New("distrib: shard quorum not met")
	// ErrCodecMismatch marks an upload encoded under a codec other than the
	// one the round's RoundStart negotiated.
	ErrCodecMismatch = errors.New("distrib: upload codec mismatch")
)

// Mode selects the wire.
type Mode string

// Supported modes.
const (
	// ModeBus uses the in-memory transport.
	ModeBus Mode = "bus"
	// ModeTCP uses loopback TCP connections.
	ModeTCP Mode = "tcp"
)

// Config parameterizes a distributed FedPKD run, kept for the original
// FedPKD-only entry point. The algorithm knobs are core.Config's; Mode
// selects the transport.
type Config struct {
	Core core.Config
	Mode Mode
	// Recorder, when non-nil, receives per-round spans and wire-byte
	// counters; it is attached to the run's ledger as a comm.Observer.
	Recorder *obs.Recorder
}

// Options parameterizes a distributed run of any engine-backed algorithm.
// The zero value (plus a Mode) reproduces the strict runtime.
type Options struct {
	// Mode selects the transport; empty means ModeBus.
	Mode Mode
	// Recorder, when non-nil, receives per-round spans, wire-byte counters,
	// and the Robustness trace.
	Recorder *obs.Recorder
	// ClientTimeout bounds how long the server waits for the round's
	// uploads. Zero waits forever (strict mode). When positive, clients
	// that miss the deadline are left out of the aggregate and the round
	// completes with a partial cohort.
	ClientTimeout time.Duration
	// MinQuorum is the minimum number of uploads a round must aggregate;
	// fewer aborts the round with ErrQuorumNotMet. Zero disables the check
	// (a round that heard from nobody skips aggregation, matching the
	// engine's dropout semantics).
	MinQuorum int
	// Faults, when non-nil and enabled, injects deterministic chaos on
	// every client connection. Lossy plans require a positive
	// ClientTimeout.
	Faults *faults.Plan
	// Retry configures the clients' upload backoff on transient send
	// failures; zero fields take the faults.Backoff defaults.
	Retry faults.Backoff
	// FaultStats, when non-nil, accumulates the run's injected-fault
	// counters for the caller to inspect.
	FaultStats *faults.Stats
	// Population lists the client ids registered before the first round; nil
	// registers the whole fleet up front (the legacy fixed-cohort behavior).
	// Clients outside the initial population may still register mid-run via
	// hello envelopes — their workers park until a round schedules them.
	Population []int
	// WireRegistration makes the initial population register through real
	// hello envelopes instead of being pre-seeded into the registry: the
	// service starts with nobody registered and blocks until every
	// Population member's hello arrives, the path `serve` mode uses so that
	// registration is observable wire traffic.
	WireRegistration bool
	// Barrier, when non-nil, runs at every round barrier before the round
	// opens — the control plane's pause/save/quit hook. All workers are
	// parked while it runs, so it may checkpoint safely; a returned error
	// stops the run with that error.
	Barrier func(round int) error
	// OnService, when non-nil, receives the run's Service handle before the
	// first round, giving the caller live status and the Join/Leave
	// registration API.
	OnService func(*Service)
	// Topology, when enabled (Shards > 1), runs the round over a two-tier
	// aggregator tree: leaf aggregators own contiguous client id shards and
	// the root merges shard digests only. The client-plane protocol, history,
	// and ledger totals are byte-identical to the flat runtime; the tree's
	// leaf↔root backhaul is billed separately in the tier columns.
	Topology Topology
	// LeafTimeout bounds how long the root waits for each round's shard
	// digests. Zero waits forever (strict tree mode). When positive, shards
	// whose digest misses the deadline are marked lost and the round
	// aggregates the surviving partials — the tier-plane analog of
	// ClientTimeout. Tree mode only; lossy tier fault plans require it.
	LeafTimeout time.Duration
	// ShardQuorum is the minimum number of shard digests a tree round must
	// merge; fewer aborts the round with ErrShardQuorumNotMet. Zero disables
	// the check (a round that lost every shard skips aggregation, like a
	// round that heard from nobody).
	ShardQuorum int
}

func (o *Options) validate(n int) error {
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if o.Faults.Lossy() && o.ClientTimeout <= 0 {
		return fmt.Errorf("distrib: fault plan [%v] can lose messages or clients; set a positive ClientTimeout so the server does not wait forever", o.Faults)
	}
	if o.MinQuorum < 0 || o.MinQuorum > n {
		return fmt.Errorf("distrib: MinQuorum %d out of range [0,%d]", o.MinQuorum, n)
	}
	if err := o.Topology.validate(n); err != nil {
		return err
	}
	if o.Topology.Enabled() && o.WireRegistration {
		return fmt.Errorf("distrib: WireRegistration is not supported with an aggregator tree: wire registration reads the fan-in socket the tree's demultiplexer owns")
	}
	if o.LeafTimeout < 0 {
		return fmt.Errorf("distrib: LeafTimeout must be >= 0, got %v", o.LeafTimeout)
	}
	if !o.Topology.Enabled() {
		if o.LeafTimeout > 0 {
			return fmt.Errorf("distrib: LeafTimeout requires an aggregator tree (Topology.Shards > 1)")
		}
		if o.ShardQuorum > 0 {
			return fmt.Errorf("distrib: ShardQuorum requires an aggregator tree (Topology.Shards > 1)")
		}
		if o.Faults.TierEnabled() {
			return fmt.Errorf("distrib: fault plan [%v] targets the aggregator tier but no tree is configured (Topology.Shards > 1)", o.Faults)
		}
	} else {
		if o.ShardQuorum < 0 || o.ShardQuorum > o.Topology.Shards {
			return fmt.Errorf("distrib: ShardQuorum %d out of range [0,%d]", o.ShardQuorum, o.Topology.Shards)
		}
		if o.Faults.TierLossy() && o.LeafTimeout <= 0 {
			return fmt.Errorf("distrib: fault plan [%v] can lose shard digests or leaves; set a positive LeafTimeout so the root does not wait forever", o.Faults)
		}
	}
	seen := make(map[int]bool, len(o.Population))
	for _, id := range o.Population {
		if id < 0 || id >= n {
			return fmt.Errorf("distrib: population id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("distrib: duplicate population id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Run executes rounds of FedPKD over the transport and returns the history.
// It is a convenience wrapper over RunAlgorithm for the paper's main
// algorithm.
func Run(cfg Config, rounds int) (*fl.History, error) {
	if cfg.Core.Env == nil {
		return nil, fmt.Errorf("distrib: Core.Env is required")
	}
	f, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	return RunAlgorithm(f, cfg.Mode, rounds, cfg.Recorder)
}

// RunAlgorithm executes rounds additional rounds of any engine-backed
// algorithm over the transport with the strict failure model. It is
// RunAlgorithmOpts with only Mode and Recorder set.
func RunAlgorithm(algo fl.Algorithm, mode Mode, rounds int, rec *obs.Recorder) (*fl.History, error) {
	return RunAlgorithmOpts(algo, rounds, Options{Mode: mode, Recorder: rec})
}

// RunAlgorithmUntil runs over the transport until the run has completed
// total rounds — the resume-aware entry point mirroring
// engine.Runner.RunUntil: after restoring a round-5 checkpoint,
// RunAlgorithmUntil(algo, mode, 10, rec) runs exactly the 5 remaining
// rounds.
func RunAlgorithmUntil(algo fl.Algorithm, mode Mode, total int, rec *obs.Recorder) (*fl.History, error) {
	return RunAlgorithmUntilOpts(algo, total, Options{Mode: mode, Recorder: rec})
}

// RunAlgorithmUntilOpts is RunAlgorithmUntil with the full option set.
func RunAlgorithmUntilOpts(algo fl.Algorithm, total int, opts Options) (*fl.History, error) {
	runner, err := engine.Of(algo)
	if err != nil {
		return nil, err
	}
	if total < runner.CurrentRound() {
		return nil, fmt.Errorf("distrib: RunAlgorithmUntil(%d) but %d rounds already completed", total, runner.CurrentRound())
	}
	return RunAlgorithmOpts(algo, total-runner.CurrentRound(), opts)
}

// RunAlgorithmOpts executes rounds additional rounds of any engine-backed
// algorithm over the transport and returns the cumulative history. All model
// state lives in the worker goroutines during a round; evaluation (and, when
// a checkpoint policy is set on the runner, the durable checkpoint write)
// happens at round barriers when every worker is parked. The distributed
// runner always uses full participation: ClientFraction and ClientDropProb
// apply to the in-process engine only — here the cohort shrinks through the
// failure model instead (timeouts, injected faults).
//
// Resume: restore the algorithm first (engine.Runner.ResumeAny) and the run
// continues from the checkpointed round — the server-side checkpoint holds
// every client's model and optimizer state, which the restored hooks carry
// back into the worker goroutines exactly as a real deployment would re-seed
// clients from the next RoundStart.
func RunAlgorithmOpts(algo fl.Algorithm, rounds int, opts Options) (*fl.History, error) {
	s, err := NewService(algo, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if opts.OnService != nil {
		opts.OnService(s)
	}
	return s.Run(rounds)
}

// roundStats accumulates one round's protocol-hygiene counters across the
// server and client goroutines.
type roundStats struct {
	stale   atomic.Int64
	dup     atomic.Int64
	corrupt atomic.Int64
	retries atomic.Int64
	unknown atomic.Int64
	// Tier-plane counters: digests the root gave up waiting for, leaf-side
	// digest send retries, and duplicate digests the root rejected.
	leafTimeouts  atomic.Int64
	digestRetries atomic.Int64
	digestDups    atomic.Int64
}

func (rs *roundStats) reset() {
	rs.stale.Store(0)
	rs.dup.Store(0)
	rs.corrupt.Store(0)
	rs.retries.Store(0)
	rs.unknown.Store(0)
	rs.leafTimeouts.Store(0)
	rs.digestRetries.Store(0)
	rs.digestDups.Store(0)
}

// disposition decides what a protocol violation does. Tolerant mode counts
// it on the round's Robustness counter and drops the envelope; strict mode
// escalates it, keeping the first violation as err, which ends the loop that
// found it. Strict mode is tolerant mode with this one switch flipped, so
// every violation row in a ladder is written once.
type disposition struct {
	tolerant bool
	// err is the escalated violation, or a round abort no mode tolerates
	// (a client-reported hook failure).
	err error
}

// reject applies the disposition to one violation and reports whether the
// caller may drop the envelope and carry on (always, when tolerant).
func (d *disposition) reject(counter *atomic.Int64, err error) bool {
	if d.tolerant {
		counter.Add(1)
		return true
	}
	if d.err == nil {
		d.err = err
	}
	return false
}

// recordRobustness folds one tolerant round's failure profile into the
// cumulative history (partial cohorts only) and the obs trace (always, so
// healthy chaos rounds are visible too). expected is the round's scheduled
// cohort: the registered online clients of a synchronous round, or the
// chosen contributors of an async flush.
func (s *Service) recordRobustness(t, expected int, rp *roundReport, injected int64) {
	var crashed, timedOut []int
	inLost := make(map[int]bool, len(rp.lostShards))
	for _, sh := range rp.lostShards {
		inLost[sh] = true
	}
	for _, c := range rp.missing {
		switch {
		case s.opts.Faults.CrashesAt(c, t):
			crashed = append(crashed, c)
		case s.tree != nil && inLost[ShardOf(c, s.n, s.tree.topo.Shards)]:
			// Lost with its whole shard: the per-shard detail in LostShards
			// already accounts for it, so neither client list repeats it.
		default:
			timedOut = append(timedOut, c)
		}
	}
	if rp.cohort < expected || len(rp.lostShards) > 0 {
		s.runner.RecordDegraded(fl.DegradedRound{Round: t, Cohort: rp.cohort, Expected: expected, Missing: rp.missing, LostShards: rp.lostShards})
	}
	rs := s.rs
	s.rec.SetRobustness(obs.Robustness{
		Cohort:         rp.cohort,
		Expected:       expected,
		TimedOut:       timedOut,
		Crashed:        crashed,
		StaleDropped:   int(rs.stale.Load()),
		DupDropped:     int(rs.dup.Load()),
		CorruptDropped: int(rs.corrupt.Load()),
		UnknownDropped: int(rs.unknown.Load()),
		Retries:        int(rs.retries.Load()),
		LeafTimeouts:   int(rs.leafTimeouts.Load()),
		DigestRetries:  int(rs.digestRetries.Load()),
		DigestDups:     int(rs.digestDups.Load()),
		ShardsLost:     rp.lostShards,
		FaultsInjected: injected,
	})
}

// roundReport summarizes who the server heard from in one round.
type roundReport struct {
	// cohort is the number of distinct clients whose uploads arrived in
	// time; missing lists the rest, sorted ascending.
	cohort  int
	missing []int
	// lostShards lists the shards whose digest never made it into the
	// round's merge (crashed leaf, late/corrupt digest), sorted ascending.
	// Tree rounds only.
	lostShards []int
}

// flatRound serves round t (or async flush t) on the flat server: the open
// step builds a single dispatch for the whole cohort, the leaf's own serve
// body runs it in-process against the server inbox, and the close step runs
// directly on the collected partial — no upper fabric, no digest encode. A
// client-reported error aborts the round but still produces a RoundEnd so no
// peer blocks forever.
func (s *Service) flatRound(t int, cohort []int, plan *engine.AsyncFlushPlan) (contributors []int, report *roundReport, err error) {
	assigns, err := s.openRound(t, [][]int{cohort}, plan)
	if err != nil {
		return nil, nil, err
	}
	report, err = s.serveShard(assigns[0], s.srx, func(part *engine.Partial, _ *roundReport, roundErr error) (*transport.ShardEnd, error) {
		var se *transport.ShardEnd
		se, contributors, roundErr = s.closeRound(t, []*engine.Partial{part}, plan, roundErr)
		return se, roundErr
	})
	return contributors, report, err
}

// roundGlobal returns round t's front-loaded global with the active codec
// applied, plus the delta reference cohort uploads decode against. Clients
// see decode(encode(global)); the server must hold the same bits so both
// sides agree on the reference and the distributed run stays bit-identical
// to the in-process engine.
func roundGlobal(t int, runner *engine.Runner) (global *engine.Payload, refParams []float64) {
	codec := runner.Codec()
	global = runner.Hooks().GlobalState(t)
	if codec != comm.CodecFloat64 && global != nil {
		global = global.ApplyCodec(codec, nil)
		refParams = global.Params
	}
	return global, refParams
}

// encodeRoundStart encodes one round-opening message carrying global (which
// must already be codec-applied) and prices its raw-equivalent billing size
// under a compressing codec.
func encodeRoundStart(t int, codec comm.Codec, global *engine.Payload) (payload []byte, hasGlobal bool, startRaw int, err error) {
	gw, err := transport.PayloadToWireIn(global, codec, nil)
	if err != nil {
		return nil, false, 0, err
	}
	msg := transport.RoundStart{Round: t, HasGlobal: global != nil, Global: gw, Codec: uint8(codec)}
	payload, err = transport.Encode(msg)
	if err != nil {
		return nil, false, 0, err
	}
	if codec != comm.CodecFloat64 && msg.HasGlobal {
		startRaw = rawWireSize(
			transport.RoundStart{Round: t, HasGlobal: true, Global: transport.PayloadToWire(global)},
			(&transport.Envelope{Payload: payload}).WireSize())
	}
	return payload, msg.HasGlobal, startRaw, nil
}

// buildRoundEnd encodes one round-close message from an aggregation outcome:
// the broadcast when the round succeeded, the error text when it did not
// (broadcasts are never delta-coded — receivers that missed RoundStart must
// still decode them ref-free). Encode failures fold into the returned
// roundErr; a non-nil fatal aborts the round with no close message.
func buildRoundEnd(t int, codec comm.Codec, bcast *engine.Payload, roundErr error) (payload []byte, hasBroadcast bool, endRaw int, outRoundErr, fatal error) {
	re := transport.RoundEnd{Round: t, Codec: uint8(codec)}
	if roundErr == nil && bcast != nil {
		bw, werr := transport.PayloadToWireIn(bcast, codec, nil)
		if werr != nil {
			roundErr = werr
		} else {
			re.HasBroadcast = true
			re.Broadcast = bw
		}
	}
	if roundErr != nil {
		re.HasBroadcast = false
		re.Broadcast = transport.WirePayload{}
		re.Err = roundErr.Error()
	}
	payload, err := transport.Encode(re)
	if err != nil {
		if roundErr != nil {
			return nil, false, 0, roundErr, roundErr
		}
		return nil, false, 0, nil, err
	}
	if codec != comm.CodecFloat64 && re.HasBroadcast {
		endRaw = rawWireSize(
			transport.RoundEnd{Round: t, HasBroadcast: true, Broadcast: transport.PayloadToWire(bcast)},
			(&transport.Envelope{Payload: payload}).WireSize())
	}
	return payload, re.HasBroadcast, endRaw, roundErr, nil
}

// billFraming bills one round-framing envelope: control traffic when it
// carries no knowledge, a wire/raw pair under a compressing codec, a plain
// download otherwise. The serve step bills through it for the flat server
// and every leaf alike, so a tree run's client-plane ledger stays
// byte-identical to the flat run's.
func billFraming(ledger *comm.Ledger, hasPayload, coded bool, wire, raw int) {
	switch {
	case !hasPayload:
		ledger.AddControl(wire)
	case coded:
		ledger.AddDownloadRaw(wire, raw)
	default:
		ledger.AddDownload(wire)
	}
}

// rawWireSize returns the envelope wire size msg would occupy encoded as-is —
// used to price the float64raw equivalent of a codec-compressed message into
// the ledger's informational raw columns. It sizes msg without encoding it.
// Best effort: a sizing failure falls back to the given compressed size so
// raw totals never undercount the wire.
func rawWireSize(msg any, fallback int) int {
	n, err := transport.EncodedSize(msg)
	if err != nil {
		return fallback
	}
	return (&transport.Envelope{}).WireSize() + n
}

// collectUploads is the one upload validation ladder: the flat server and
// every leaf, synchronous rounds and async flushes, collect through it. It
// drains rx until every awaited member of the dispatch sa has contributed,
// the deadline passes (tolerant), or a round error ends the round. roundErr
// is a protocol-level failure that still gets a RoundEnd; err is a
// transport-level failure that aborts the run.
//
// Each violation row is written once and handed to the round's disposition:
// tolerant mode counts it (stale, unknown, corrupt, or dup) and drops the
// envelope, strict mode escalates the first one into roundErr.
//
// Clients the shared fault schedule crashes this round are not awaited at
// all — the deterministic equivalent of a failure detector, so a
// crash-heavy round does not have to burn the whole deadline.
//
// Registration traffic flows through here too: hello/goodbye envelopes
// arriving mid-round are queued into the registry (applied at the next
// barrier) and billed as control bytes. Uploads from peers the registry does
// not know surface ErrUnknownClient; uploads from registered peers outside
// the dispatch (offline per the availability trace, or not chosen for the
// flush) are out-of-round traffic.
//
// Each upload decodes against its member's delta reference: the member's
// own Ref (an async flush's retained global) when set, the dispatch's shared
// Ref otherwise. sink, when non-nil, streams each surviving upload out
// instead of retaining it — the compact tree reduction, where a leaf folds
// uploads as they arrive and holds no per-client state. A sink failure is an
// algorithm-level error and aborts the round like a client-reported hook
// failure. Without a sink the surviving uploads are returned sorted by
// client id, the order Aggregate expects.
func collectUploads(runner *engine.Runner, rx *receiver, sa *transport.ShardAssign, reg *Registry, opts *Options, codec comm.Codec, tolerant bool, rs *roundStats, sink func(engine.Upload) error) (uploads []engine.Upload, report *roundReport, roundErr, err error) {
	t := sa.Round
	ledger := runner.Ledger()
	n := runner.Config().Env.Cfg.NumClients
	member := make(map[int]int, len(sa.Clients))
	seen := make(map[int]bool, len(sa.Clients))
	await := 0
	for i, cs := range sa.Clients {
		member[cs.Client] = i
		if !opts.Faults.CrashesAt(cs.Client, t) {
			await++
		}
	}
	if sink == nil {
		uploads = make([]engine.Upload, 0, len(sa.Clients))
	}

	// check runs one envelope down the ladder's rows in order, returning the
	// decoded upload or the first violated row: the counter tolerant mode
	// bumps and the error strict mode raises.
	check := func(e *transport.Envelope) (*transport.RoundUpload, *atomic.Int64, error) {
		switch {
		case e.Kind != transport.KindUpload:
			return nil, &rs.stale, fmt.Errorf("%w: unexpected message kind %v during round %d", ErrStaleEnvelope, e.Kind, t)
		case e.Round != t:
			return nil, &rs.stale, fmt.Errorf("%w: upload for round %d during round %d", ErrStaleEnvelope, e.Round, t)
		case e.From < 0 || e.From >= n:
			return nil, &rs.stale, fmt.Errorf("%w: upload from unknown peer %d", ErrPeerMismatch, e.From)
		case !reg.Has(e.From):
			return nil, &rs.unknown, fmt.Errorf("%w: upload from unregistered peer %d in round %d", ErrUnknownClient, e.From, t)
		}
		ru := &transport.RoundUpload{}
		if err := transport.Decode(e.Payload, ru); err != nil {
			return nil, &rs.corrupt, err
		}
		// Validate rejects malformed sections, including non-finite raw
		// values (transport.ErrNonFinite), before the client counts as heard.
		if err := ru.Validate(); err != nil {
			return nil, &rs.corrupt, err
		}
		_, inSet := member[ru.Client]
		switch {
		case ru.HasPayload && ru.Payload.Codec != uint8(codec):
			return nil, &rs.corrupt, fmt.Errorf("%w: upload from peer %d coded %d, round %d negotiated %d",
				ErrCodecMismatch, e.From, ru.Payload.Codec, t, uint8(codec))
		case ru.Client != e.From:
			// Also covers a client id outside the universe: e.From is in it.
			return nil, &rs.corrupt, fmt.Errorf("%w: upload labeled client %d arrived from peer %d", ErrPeerMismatch, ru.Client, e.From)
		case !inSet:
			// Registered but not scheduled this round (offline per the
			// availability trace, joined after the barrier, or not chosen
			// for the flush).
			return nil, &rs.corrupt, fmt.Errorf("%w: upload from client %d outside round %d's dispatch", ErrStaleEnvelope, ru.Client, t)
		case ru.Round != t:
			return nil, &rs.stale, fmt.Errorf("%w: upload payload stamped round %d during round %d", ErrStaleEnvelope, ru.Round, t)
		case seen[ru.Client]:
			return nil, &rs.dup, fmt.Errorf("%w: client %d", ErrDuplicateUpload, ru.Client)
		}
		return ru, nil, nil
	}

	d := disposition{tolerant: tolerant}
	var deadline time.Time
	if opts.ClientTimeout > 0 {
		deadline = time.Now().Add(opts.ClientTimeout)
	}
	for await > 0 && d.err == nil {
		wait := time.Duration(0)
		if !deadline.IsZero() {
			wait = time.Until(deadline)
			if wait <= 0 {
				break
			}
		}
		e, rerr := rx.recv(wait)
		if errors.Is(rerr, errRecvTimeout) {
			break
		}
		var gone *peerGoneError
		if errors.As(rerr, &gone) && tolerant {
			// A dead connection is not a dead client: a crash-restarting
			// peer redials and its upload (if any) arrives on the new conn.
			continue
		}
		if rerr != nil {
			return nil, nil, nil, fmt.Errorf("server recv: %w", rerr)
		}
		if e.Kind == transport.KindHello || e.Kind == transport.KindGoodbye {
			// Registration is legitimate mid-round traffic in both modes:
			// queue it for the next barrier and account the bytes.
			if e.Kind == transport.KindHello {
				reg.QueueJoin(e.From)
			} else {
				reg.QueueLeave(e.From)
			}
			ledger.AddControl(e.WireSize())
			continue
		}
		ru, counter, verr := check(e)
		if verr != nil {
			d.reject(counter, verr)
			continue
		}
		seen[ru.Client] = true
		await--
		if ru.Err != "" {
			// A client-side hook failure aborts the round in both modes: the
			// failure model covers the infrastructure, not the algorithm.
			d.err = fmt.Errorf("distrib: client %d: %s", ru.Client, ru.Err)
			continue
		}
		if !ru.HasPayload {
			continue
		}
		ref := sa.Clients[member[ru.Client]].Ref
		if ref == nil {
			ref = sa.Ref
		}
		// ru was validated above and is this collector's own decode.
		p, perr := ru.Payload.Adopt(ref)
		if perr != nil {
			d.reject(&rs.corrupt, perr)
			continue
		}
		if codec == comm.CodecFloat64 {
			ledger.AddUpload(e.WireSize())
		} else {
			raw := rawWireSize(
				transport.RoundUpload{Round: ru.Round, Client: ru.Client, HasPayload: true, Payload: transport.PayloadToWire(p)},
				e.WireSize())
			ledger.AddUploadRaw(e.WireSize(), raw)
		}
		if sink != nil {
			if serr := sink(engine.Upload{Client: ru.Client, Payload: p}); serr != nil {
				d.err = serr
			}
			continue
		}
		uploads = append(uploads, engine.Upload{Client: ru.Client, Payload: p})
	}
	sort.Slice(uploads, func(i, j int) bool { return uploads[i].Client < uploads[j].Client })
	missing := make([]int, 0)
	for _, cs := range sa.Clients {
		if !seen[cs.Client] {
			missing = append(missing, cs.Client)
		}
	}
	return uploads, &roundReport{cohort: len(sa.Clients) - len(missing), missing: missing}, d.err, nil
}

// clientPeer is one client worker's connection state: the fault-wrapped
// conn, its receiver pump, and the transport's reconnect hook.
type clientPeer struct {
	id     int
	conn   *faults.Conn
	rx     *receiver
	stats  *faults.Stats
	redial func(id int) (transport.Conn, error) // nil when the transport cannot reconnect (bus)
}

// restart simulates a crash-restart. On TCP the connection is torn down and
// redialed through the join handshake, exactly like a restarted process; the
// fault wrapper persists across the swap so injection streams stay aligned.
// On the bus there is no connection to drop — the restarted client instead
// loses its queued inbox, and whatever arrives later is discarded by round
// gating.
func (p *clientPeer) restart() error {
	if p.redial == nil {
		p.rx.drain()
		return nil
	}
	p.rx.stop()
	p.conn.Inner().Close()
	conn, err := p.redial(p.id)
	if err != nil {
		return fmt.Errorf("distrib: client %d rejoin: %w", p.id, err)
	}
	p.conn.SetInner(conn)
	p.rx = newReceiver(p.conn)
	return nil
}

// clientWorker runs one client's per-round protocol until its start channel
// closes. Closing the conn on the way out unblocks the receiver pump, so
// worker shutdown never leaks a goroutine stuck in Recv.
func clientWorker(p *clientPeer, runner *engine.Runner, rec *obs.Recorder, opts *Options, tolerant bool, rs *roundStats, start <-chan int, done chan<- error) {
	defer func() {
		p.rx.stop()
		p.conn.Close()
	}()
	for t := range start {
		done <- clientRound(p, t, runner, rec, opts, tolerant, rs)
	}
}

// gateClient validates a server→client envelope against the current round:
// it must be addressed server→id, stamped t, and a RoundEnd — or a
// RoundStart while startOK (the client has not uploaded yet). Every row is
// stale traffic under the client's disposition.
func gateClient(id, t int, e *transport.Envelope, startOK bool) error {
	switch {
	case e.From != -1 || e.To != id:
		return fmt.Errorf("%w: client %d got envelope from %d to %d", ErrPeerMismatch, id, e.From, e.To)
	case e.Round != t:
		return fmt.Errorf("%w: client %d got round %d envelope during round %d", ErrStaleEnvelope, id, e.Round, t)
	case e.Kind != transport.KindRoundEnd && (e.Kind != transport.KindRoundStart || !startOK):
		return fmt.Errorf("%w: client %d got unexpected message kind %v", ErrStaleEnvelope, id, e.Kind)
	}
	return nil
}

// clientRound runs one client round: receive RoundStart, train, upload,
// receive RoundEnd, digest. A local hook failure is reported upstream in the
// upload's Err field — the protocol keeps flowing so neither side deadlocks.
// In tolerant mode the client also survives the round passing it by: a recv
// timeout (2× the server's deadline, so the server always gives up first)
// parks it until the next fan-out.
func clientRound(p *clientPeer, t int, runner *engine.Runner, rec *obs.Recorder, opts *Options, tolerant bool, rs *roundStats) error {
	if opts.Faults.CrashesAt(p.id, t) {
		p.stats.CountCrash()
		return p.restart()
	}
	if opts.Topology.Enabled() &&
		opts.Faults.LeafCrashesAt(ShardOf(p.id, runner.Config().Env.Cfg.NumClients, opts.Topology.Shards), t) {
		// This client's leaf aggregator is crashed for the round, so its
		// RoundStart can never arrive. Skip deterministically — the leaf-plane
		// failure detector — instead of burning the recv deadline.
		return nil
	}
	hooks := runner.Hooks()
	rc := runner.Context(t)
	d := disposition{tolerant: tolerant}

	var wait time.Duration
	if opts.ClientTimeout > 0 {
		wait = 2 * opts.ClientTimeout
	}

	var roundErr error
	var endEnv *transport.Envelope
	uploaded := false
	for endEnv == nil && !uploaded {
		e, err := p.rx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			return nil // the round passed this client by
		}
		if err != nil {
			return fmt.Errorf("client %d recv: %w", p.id, err)
		}
		if gerr := gateClient(p.id, t, e, true); gerr != nil {
			if d.reject(&rs.stale, gerr) {
				continue
			}
			return gerr
		}
		if e.Kind == transport.KindRoundEnd {
			// RoundStart was lost in transit: no training this round, go
			// straight to the broadcast digest so local state stays current.
			endEnv = e
			break
		}
		var startMsg transport.RoundStart
		var global *engine.Payload
		err = transport.Decode(e.Payload, &startMsg)
		if err == nil {
			err = startMsg.Validate()
		}
		if err == nil && startMsg.HasGlobal {
			// Globals are never delta-coded, so the ref-free decode always
			// applies; the decoded (quantized) params double as the delta
			// reference for this client's upload.
			global, err = startMsg.Global.Adopt(nil)
		}
		if err != nil {
			if d.reject(&rs.corrupt, err) {
				continue
			}
			return err
		}
		var refParams []float64
		if global != nil {
			refParams = global.Params
		}
		stopTrain := rec.ClientSpan(p.id)
		up, uerr := hooks.LocalUpdate(rc, p.id, global)
		stopTrain()
		ru := transport.RoundUpload{Round: t, Client: p.id}
		if uerr != nil {
			roundErr = uerr
			ru.Err = uerr.Error()
		} else if up != nil {
			if w, werr := transport.PayloadToWireIn(up, comm.Codec(startMsg.Codec), refParams); werr != nil {
				roundErr = werr
				ru.Err = werr.Error()
			} else {
				ru.HasPayload = true
				ru.Payload = w
			}
		}
		// An upload lost to chaos after exhausting its retries is covered by
		// the server's deadline; any other send failure fails the round.
		if serr := p.sendUpload(t, ru, opts, rs); serr != nil && !errors.Is(serr, faults.ErrTransient) && roundErr == nil {
			roundErr = serr
		}
		uploaded = true
	}

	for endEnv == nil {
		e, err := p.rx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			return roundErr
		}
		if err != nil {
			if roundErr != nil {
				return roundErr
			}
			return fmt.Errorf("client %d recv: %w", p.id, err)
		}
		// A duplicated RoundStart after the upload is stale traffic here.
		if gerr := gateClient(p.id, t, e, false); gerr != nil {
			if d.reject(&rs.stale, gerr) {
				continue
			}
			if roundErr != nil {
				return roundErr
			}
			return gerr
		}
		endEnv = e
	}

	var re transport.RoundEnd
	err := transport.Decode(endEnv.Payload, &re)
	if err == nil {
		// Validate rejects a non-finite broadcast (transport.ErrNonFinite)
		// like any other malformed close.
		err = re.Validate()
	}
	if err != nil {
		if d.reject(&rs.corrupt, err) {
			return roundErr
		}
		return err
	}
	if roundErr != nil {
		return roundErr
	}
	if re.Err != "" {
		return fmt.Errorf("client %d: server aborted round %d: %s", p.id, t, re.Err)
	}
	if !re.HasBroadcast {
		return nil
	}
	bcast, err := re.Broadcast.Adopt(nil) // validated with re above
	if err != nil {
		if d.reject(&rs.corrupt, err) {
			return nil
		}
		return err
	}
	stopPublic := rec.Span(obs.PhaseClientPublic)
	derr := hooks.Digest(rc, p.id, bcast)
	stopPublic()
	return derr
}

// sendUpload encodes and sends one RoundUpload, retrying injected transient
// failures under the run's backoff on the conn's own jitter stream.
func (p *clientPeer) sendUpload(t int, ru transport.RoundUpload, opts *Options, rs *roundStats) error {
	payload, err := transport.Encode(ru)
	if err != nil {
		return err
	}
	e := &transport.Envelope{Kind: transport.KindUpload, From: p.id, To: -1, Round: t, Payload: payload}
	return p.conn.SendRetry(e, opts.Retry, func() { rs.retries.Add(1) })
}

// receiver pumps a Conn into a channel so callers can apply deadlines to
// Recv. stop() detaches the pump; the pump also exits when the conn errors
// (including the close a worker issues on shutdown), so no goroutine is left
// blocked on a channel send.
type receiver struct {
	ch   chan recvResult
	done chan struct{}
	once sync.Once
}

type recvResult struct {
	e   *transport.Envelope
	err error
}

// errRecvTimeout reports a recv deadline expiring — a normal event in
// tolerant mode, never surfaced to callers of the package.
var errRecvTimeout = errors.New("distrib: recv timeout")

func newReceiver(conn transport.Conn) *receiver {
	r := &receiver{ch: make(chan recvResult, 4), done: make(chan struct{})}
	go func() {
		defer close(r.ch)
		for {
			e, err := conn.Recv()
			select {
			case r.ch <- recvResult{e, err}:
			case <-r.done:
				return
			}
			if err != nil {
				// One peer's dead connection does not end a mux stream — the
				// other peers are still talking and the dead one may redial.
				var gone *peerGoneError
				if !errors.As(err, &gone) {
					return
				}
			}
		}
	}()
	return r
}

// recv returns the next envelope, waiting at most timeout (forever when
// timeout <= 0). A stopped or exhausted receiver reports io.EOF.
func (r *receiver) recv(timeout time.Duration) (*transport.Envelope, error) {
	if timeout <= 0 {
		res, ok := <-r.ch
		if !ok {
			return nil, io.EOF
		}
		return res.e, res.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res, ok := <-r.ch:
		if !ok {
			return nil, io.EOF
		}
		return res.e, res.err
	case <-timer.C:
		return nil, errRecvTimeout
	}
}

// drain discards everything currently buffered without blocking — the
// bus-mode crash semantics (a restarted process has an empty inbox). Late
// arrivals are caught by round gating instead.
func (r *receiver) drain() {
	for {
		select {
		case _, ok := <-r.ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

func (r *receiver) stop() { r.once.Do(func() { close(r.done) }) }

// peerGoneError reports that one client's server-side connection died. In
// tolerant mode the collect loop skips it (the client may redial); in
// strict mode it aborts the round.
type peerGoneError struct {
	id  int
	err error
}

func (p *peerGoneError) Error() string {
	return fmt.Sprintf("distrib: peer %d connection lost: %v", p.id, p.err)
}

func (p *peerGoneError) Unwrap() error { return p.err }

// muxConn fans per-client server connections into one Conn: Recv pulls from
// all peers, Send routes by Envelope.To. Registrations are dynamic —
// acceptLoop rebinds a client id to a fresh conn when it redials, closing
// the old one. Pump goroutines deliver through a select on the done channel,
// so Close never strands a pump blocked on the inbox.
type muxConn struct {
	mu    sync.Mutex
	conns map[int]transport.Conn
	inbox chan recvResult
	done  chan struct{}
	once  sync.Once
}

var _ transport.Conn = (*muxConn)(nil)

func newMuxConn(n int) *muxConn {
	return &muxConn{
		conns: make(map[int]transport.Conn, n),
		inbox: make(chan recvResult, n+4),
		done:  make(chan struct{}),
	}
}

// register binds id to conn (replacing and closing any previous conn) and
// starts its pump.
func (m *muxConn) register(id int, conn transport.Conn) {
	m.mu.Lock()
	old := m.conns[id]
	m.conns[id] = conn
	m.mu.Unlock()
	if old != nil {
		old.Close()
	}
	go m.pump(id, conn)
}

func (m *muxConn) pump(id int, conn transport.Conn) {
	for {
		e, err := conn.Recv()
		if err != nil {
			m.mu.Lock()
			current := m.conns[id] == conn
			if current {
				delete(m.conns, id)
			}
			m.mu.Unlock()
			if current {
				m.deliver(recvResult{nil, &peerGoneError{id, err}})
			}
			return
		}
		if !m.deliver(recvResult{e, nil}) {
			return
		}
	}
}

func (m *muxConn) deliver(r recvResult) bool {
	select {
	case m.inbox <- r:
		return true
	case <-m.done:
		return false
	}
}

func (m *muxConn) Send(e *transport.Envelope) error {
	m.mu.Lock()
	conn := m.conns[e.To]
	m.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("distrib: mux send to unknown client %d", e.To)
	}
	return conn.Send(e)
}

func (m *muxConn) Recv() (*transport.Envelope, error) {
	select {
	case r := <-m.inbox:
		return r.e, r.err
	case <-m.done:
		return nil, io.EOF
	}
}

func (m *muxConn) Close() error {
	m.once.Do(func() { close(m.done) })
	m.mu.Lock()
	conns := make([]transport.Conn, 0, len(m.conns))
	for id, c := range m.conns {
		conns = append(conns, c)
		delete(m.conns, id)
	}
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// waitRegistered blocks until n clients have completed the join handshake.
func (m *muxConn) waitRegistered(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		got := len(m.conns)
		m.mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("distrib: only %d of %d clients joined within %v", got, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

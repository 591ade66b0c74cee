package distrib

import (
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Leaf aggregator: one shard's server. Each round the leaf receives its
// dispatch (a shard assignment) from the root and runs serveShard on it —
// the same fan/collect/fan-end body the flat server runs over its single
// shard: fan the round-opening envelopes (the exact bytes the root encoded,
// billed exactly as the flat server bills), collect the shard's uploads
// through the demultiplexed inbox with the one validation ladder, reduce
// them into an engine.Partial, digest the partial upward, and fan the root's
// round-close back down. The leaf retains no per-client state beyond the
// partial: exact mode holds the shard's surviving uploads (O(shard)),
// compact mode a single running sum (O(1)).

// leafWorker serves rounds for one shard until its start channel closes,
// reporting one result per round on the tree's done channel — the leaf-tier
// mirror of clientWorker.
func (s *Service) leafWorker(shard int, start <-chan int) {
	up := s.tree.leafUp[shard]
	rx := s.tree.leafRx[shard]
	for t := range start {
		s.tree.leafDone <- s.leafRound(shard, t, up, rx)
	}
}

// leafRound serves one round (or async flush) of the leaf's shard.
//
// Two invariants keep every failure path deadlock-free: once the round's
// assignment has arrived the leaf ALWAYS sends a digest (an Err digest when
// the shard failed), so the root's untimed digest collect terminates; and it
// ALWAYS fans a round-close to its cohort (a locally built error close when
// the root's never arrived), so no client parks forever. Failures before the
// assignment arrives mean the upper fabric is dead, in which case the root's
// collect fails too and the service tears the transports down.
func (s *Service) leafRound(shard, t int, up transport.Conn, rx *receiver) error {
	if s.treeTol && s.opts.Faults.LeafCrashesAt(shard, t) {
		s.fstats.CountLeafCrash()
		return s.leafCrashRestart(shard, t, up, rx)
	}
	sa, assignErr := awaitAssign(shard, t, up)
	if sa == nil {
		// Not even an envelope: the fabric is gone and the root knows.
		return assignErr
	}
	if assignErr != nil {
		// The envelope arrived but was unusable; without a cohort the leaf can
		// only digest the failure so the root aborts the round, then consume
		// the close the root still fans.
		s.sendDigest(t, shard, &transport.ShardDigest{Round: t, Shard: shard, Err: assignErr.Error()})
		_, _ = awaitShardEnd(shard, t, up)
		return assignErr
	}
	_, err := s.serveShard(sa, rx, func(part *engine.Partial, report *roundReport, digestErr error) (*transport.ShardEnd, error) {
		stop := s.rec.Span(obs.PhaseLeafReduce)
		d := buildDigest(t, shard, part, report, digestErr)
		stop()
		s.sendDigest(t, shard, d)
		se, err := awaitShardEnd(shard, t, up)
		if err != nil {
			// The root's close never arrived (torn fabric mid-round): fan a
			// locally built error close so the shard's clients unpark.
			end, _ := transport.Encode(transport.RoundEnd{Round: t, Codec: uint8(s.runner.Codec()),
				Err: fmt.Sprintf("distrib: leaf %d lost the root: %v", shard, err)})
			return &transport.ShardEnd{End: end}, err
		}
		return se, nil
	})
	return err
}

// serveShard serves one shard of round sa.Round: the body the flat server
// and every leaf share. It fans the dispatch's round opening to the shard's
// members — shared bytes for a synchronous round, per-member retained
// globals for an async flush — collects their uploads through the ladder
// into an engine.Partial (streamed into the algorithm's CompactReducer in
// compact mode, collected and sorted once otherwise), hands the partial and
// the shard's report to finish, and fans the round close finish returns.
// finish receives the round error so far (a collect-time round error, or
// the fatal one that skipped collection) and returns the close to fan plus
// the error the shard must report; a nil close fans nothing.
//
// Framing is billed for every member regardless of delivery, so traffic
// totals never depend on crash timing. A strict-mode send failure is fatal
// but the fan continues, so every member's framing is billed the same way.
func (s *Service) serveShard(sa *transport.ShardAssign, rx *receiver, finish func(*engine.Partial, *roundReport, error) (*transport.ShardEnd, error)) (*roundReport, error) {
	t := sa.Round
	runner := s.runner
	ledger := runner.Ledger()
	codec := runner.Codec()
	coded := codec != comm.CodecFloat64

	var fatal error
	for _, cs := range sa.Clients {
		payload, hasGlobal, raw := sa.Start, sa.HasGlobal, sa.StartRaw
		if cs.Start != nil {
			payload, hasGlobal, raw = cs.Start, cs.HasGlobal, cs.StartRaw
		}
		env := &transport.Envelope{Kind: transport.KindRoundStart, From: -1, To: cs.Client, Round: t, Payload: payload}
		sendErr := s.tr.server.Send(env)
		billFraming(ledger, hasGlobal, coded, env.WireSize(), raw)
		if sendErr != nil && !s.tolerant && fatal == nil {
			fatal = sendErr
		}
	}

	part, perr := runner.NewPartial(sa.Shard, sa.Compact)
	if fatal == nil {
		fatal = perr
	}
	var report *roundReport
	var roundErr error
	if fatal == nil {
		// Skipped on a strict-mode fan failure: members that never saw
		// RoundStart will not upload, and strict collection has no deadline.
		var sink func(engine.Upload) error
		if part.Compact {
			sink = func(u engine.Upload) error { return runner.PartialReduce(part, u) }
		}
		part.Uploads, report, roundErr, fatal = collectUploads(runner, rx, sa, s.reg, &s.opts, codec, s.tolerant, s.rs, sink)
	}
	if report == nil {
		report = &roundReport{missing: make([]int, len(sa.Clients))}
		for i, cs := range sa.Clients {
			report.missing[i] = cs.Client
		}
	}

	finishErr := roundErr
	if fatal != nil {
		finishErr = fatal
	}
	se, err := finish(part, report, finishErr)
	if fatal == nil {
		fatal = err
	}
	if se != nil && se.End != nil {
		for _, cs := range sa.Clients {
			env := &transport.Envelope{Kind: transport.KindRoundEnd, From: -1, To: cs.Client, Round: t, Payload: se.End}
			sendErr := s.tr.server.Send(env)
			billFraming(ledger, se.HasBroadcast, coded, env.WireSize(), se.EndRaw)
			if sendErr != nil && !s.tolerant && fatal == nil && roundErr == nil {
				fatal = sendErr
			}
		}
	}
	if fatal != nil {
		return report, fatal
	}
	return report, roundErr
}

// leafCrashRestart executes one injected leaf crash: the leaf serves nothing
// this round — it fans no round opening, collects no uploads, and sends no
// digest (the root's deterministic failure detector already wrote the shard
// off). It still consumes its round framing from the root (assignment, then
// the close the root fans to lost shards too) so the tier link carries no
// stale traffic into the next round, then drops whatever its client-plane
// inbox buffered — the restarted-process semantics clientPeer.restart gives
// the bus — and rejoins at the next round, where serveShard re-collects
// the shard's uploads through the usual validation ladder.
func (s *Service) leafCrashRestart(shard, t int, up transport.Conn, rx *receiver) error {
	for {
		e, err := up.Recv()
		if err != nil {
			// The fabric died mid-crash (fatal abort elsewhere tears down the
			// upper transport): surface it like any other dead-link failure.
			return fmt.Errorf("distrib: leaf %d await close: %w", shard, err)
		}
		if e.Kind == transport.KindShardEnd && e.Round == t {
			break
		}
		// The round's assignment (and any stale tier traffic) is consumed
		// without action — a crashed leaf serves nobody.
	}
	rx.drain()
	return nil
}

// buildDigest renders the shard's reduction and membership report as the
// upward wire message. Digest payloads travel float64raw (lossless), so the
// root reconstructs bit-identical engine payloads regardless of the
// client-plane codec.
func buildDigest(t, shard int, part *engine.Partial, report *roundReport, digestErr error) *transport.ShardDigest {
	d := &transport.ShardDigest{Round: t, Shard: shard, Heard: report.cohort, Missing: report.missing}
	if digestErr != nil {
		d.Err = digestErr.Error()
		return d
	}
	if part == nil {
		return d
	}
	if part.Compact {
		if part.Sum != nil {
			d.HasSum = true
			d.Sum = transport.PayloadToWire(part.Sum)
		}
		d.Weight = part.Weight
		d.Count = part.Count
		return d
	}
	d.Uploads = make([]transport.ShardUpload, len(part.Uploads))
	for i, u := range part.Uploads {
		d.Uploads[i] = transport.ShardUpload{Client: u.Client, Payload: transport.PayloadToWire(u.Payload)}
	}
	return d
}

// sendDigest ships one digest upward and bills the tier backhaul. An encode
// failure degrades to an empty payload — the root's decode then fails the
// round, which still unblocks its collect; silence would burn the whole
// LeafTimeout. Injected transient send failures are retried under the run's
// backoff on the leaf conn's own jitter stream; each attempt is billed
// (attempt counts are a pure function of the plan, so billing stays
// replay-stable). Real send failures only happen when the fabric is tearing
// down, and then the root's collect errors on its own.
func (s *Service) sendDigest(t, shard int, d *transport.ShardDigest) {
	payload, _ := transport.Encode(d) // nil on failure, see above
	env := &transport.Envelope{Kind: transport.KindShardDigest, From: shard, To: -1, Round: t, Payload: payload}
	ledger := s.runner.Ledger()
	ledger.AddTierUp(env.WireSize())
	_ = s.tree.leafUp[shard].SendRetry(env, s.opts.Retry, func() {
		ledger.AddTierUp(env.WireSize())
		s.rs.digestRetries.Add(1)
		s.noteShardRetry(shard)
	})
}

// awaitAssign receives round t's shard assignment. A nil assignment means no
// envelope arrived at all (dead fabric); a non-nil assignment with an error
// means the envelope was unusable but the tier link still works.
func awaitAssign(shard, t int, up transport.Conn) (*transport.ShardAssign, error) {
	e, err := up.Recv()
	if err != nil {
		return nil, fmt.Errorf("distrib: leaf %d await assignment: %w", shard, err)
	}
	sa := &transport.ShardAssign{}
	if e.Kind != transport.KindShardAssign || e.Round != t {
		return sa, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's assignment", shard, e.Kind, e.Round, t)
	}
	if derr := transport.Decode(e.Payload, sa); derr != nil {
		return sa, derr
	}
	if verr := sa.Validate(); verr != nil {
		return sa, verr
	}
	if sa.Shard != shard {
		return sa, fmt.Errorf("distrib: leaf %d got shard %d's assignment", shard, sa.Shard)
	}
	return sa, nil
}

// awaitShardEnd receives round t's close from the root. Tier links are
// infrastructure: any violation is an error, never tolerated chaos.
func awaitShardEnd(shard, t int, up transport.Conn) (*transport.ShardEnd, error) {
	e, err := up.Recv()
	if err != nil {
		return nil, fmt.Errorf("distrib: leaf %d await close: %w", shard, err)
	}
	if e.Kind != transport.KindShardEnd || e.Round != t {
		return nil, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's close", shard, e.Kind, e.Round, t)
	}
	var se transport.ShardEnd
	if derr := transport.Decode(e.Payload, &se); derr != nil {
		return nil, derr
	}
	if verr := se.Validate(); verr != nil {
		return nil, verr
	}
	if se.Shard != shard {
		return nil, fmt.Errorf("distrib: leaf %d got shard %d's close", shard, se.Shard)
	}
	return &se, nil
}

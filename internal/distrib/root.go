package distrib

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// The round's open and close steps, and the tree root. openRound and
// closeRound bracket every round the service serves: the flat server runs
// them around its one in-process shard, the root around the tree's leaves.
// The root never touches per-client connections or uploads — it partitions
// the round's cohort into contiguous shard slices (index ranges over the
// cohort, no copies), hands each leaf its dispatch, collects exactly one
// digest per shard, merges the per-shard partials, and closes the round.
// Every structure the root allocates is sized by the shard count, never the
// population — the structural gate in scripts/check.sh holds this file to
// that invariant.
//
// Because shards are contiguous id ranges, concatenating the per-shard
// sorted uploads in shard order reproduces the globally client-sorted slice,
// so the root's Aggregate call is bit-identical to the flat server's — the
// equivalence the tree goldens pin.

// openRound builds round t's per-shard dispatch, one transport.ShardAssign
// per cohort slice. A synchronous round (nil plan) encodes its RoundStart
// once: every shard shares the bytes, their billing facts, and the upload
// delta reference. An async flush instead gives each chosen client its own
// RoundStart carrying its retained dispatched global, which was
// codec-applied at retention, so both ends hold the same (quantized) values
// — the client's delta reference.
func (s *Service) openRound(t int, cohorts [][]int, plan *engine.AsyncFlushPlan) ([]*transport.ShardAssign, error) {
	codec := s.runner.Codec()
	shared := transport.ShardAssign{Round: t, Compact: s.opts.Topology.Compact, Flush: plan != nil}
	if plan == nil {
		global, ref := roundGlobal(t, s.runner)
		start, hasGlobal, raw, err := encodeRoundStart(t, codec, global)
		if err != nil {
			return nil, err
		}
		shared.Start, shared.HasGlobal, shared.StartRaw, shared.Ref = start, hasGlobal, raw, ref
	}
	assigns := make([]*transport.ShardAssign, len(cohorts))
	idx := 0
	for i, members := range cohorts {
		sa := shared
		sa.Shard = i
		sa.Clients = make([]transport.ClientStart, len(members))
		for j, c := range members {
			cs := &sa.Clients[j]
			cs.Client = c
			if plan == nil {
				continue
			}
			g := plan.Dispatched[idx]
			idx++
			var err error
			if cs.Start, cs.HasGlobal, cs.StartRaw, err = encodeRoundStart(t, codec, g); err != nil {
				return nil, err
			}
			if g != nil {
				cs.Ref = g.Params
			}
		}
		assigns[i] = &sa
	}
	return assigns, nil
}

// closeRound is the round's close step: check the upload quorum, merge the
// per-shard partials (nil for a lost shard), staleness-weight the merged
// uploads when a flush plan is present, run Aggregate — or the algorithm's
// compact merge — and encode the round close. roundErr, when already set by
// the serve step or the tree's merge, skips aggregation and closes the round
// with its text. contributors lists the clients a flush aggregated. A nil
// close with a non-nil error aborts the round with no close message.
func (s *Service) closeRound(t int, parts []*engine.Partial, plan *engine.AsyncFlushPlan, roundErr error) (se *transport.ShardEnd, contributors []int, err error) {
	runner := s.runner
	rc := runner.Context(t)
	count := 0
	for _, p := range parts {
		switch {
		case p == nil:
		case p.Compact:
			count += p.Count
		default:
			count += len(p.Uploads)
		}
	}
	if roundErr == nil && s.opts.MinQuorum > 0 && count < s.opts.MinQuorum {
		roundErr = fmt.Errorf("%w: round %d aggregated %d of %d required uploads", ErrQuorumNotMet, t, count, s.opts.MinQuorum)
	}
	var bcast *engine.Payload
	if roundErr == nil && count > 0 {
		if s.opts.Topology.Compact {
			bcast, roundErr = runner.MergeCompact(rc, parts)
		} else if uploads, merr := runner.MergePartials(parts); merr != nil {
			roundErr = merr
		} else {
			if plan != nil {
				for _, u := range uploads {
					contributors = append(contributors, u.Client)
				}
				uploads = runner.AsyncWeightUploads(rc, plan, uploads)
			}
			bcast, roundErr = runner.Hooks().Aggregate(rc, uploads)
		}
	}
	payload, hasBroadcast, endRaw, roundErr, fatal := buildRoundEnd(t, runner.Codec(), bcast, roundErr)
	if fatal != nil {
		return nil, contributors, fatal
	}
	return &transport.ShardEnd{Round: t, End: payload, HasBroadcast: hasBroadcast, EndRaw: endRaw}, contributors, roundErr
}

// rootRound runs the root's side of one tree round or flush, returning the
// flush's contributors, the merged membership report, and the round error
// exactly as flatRound does for the flat path.
func (s *Service) rootRound(t int, cohort []int, plan *engine.AsyncFlushPlan) ([]int, *roundReport, error) {
	shards := s.tree.topo.Shards
	cohorts := shardCohorts(cohort, s.n, shards)
	assigns, err := s.openRound(t, cohorts, plan)
	if err != nil {
		return nil, nil, err
	}
	for _, sa := range assigns {
		if err := s.sendAssign(sa); err != nil {
			return nil, nil, err
		}
	}
	digests, lostShards, err := s.collectDigests(t)
	if err != nil {
		return nil, nil, err
	}
	report, parts, roundErr := s.mergeDigests(digests, cohorts, lostShards)
	if roundErr == nil && s.opts.ShardQuorum > 0 && shards-len(lostShards) < s.opts.ShardQuorum {
		roundErr = fmt.Errorf("%w: round %d merged %d of %d shard digests, quorum %d",
			ErrShardQuorumNotMet, t, shards-len(lostShards), shards, s.opts.ShardQuorum)
	}
	se, contributors, roundErr := s.closeRound(t, parts, plan, roundErr)
	if se == nil {
		return contributors, report, roundErr
	}
	if err := s.sendShardEnds(se); err != nil {
		return contributors, report, err
	}
	return contributors, report, roundErr
}

// sendAssign ships one shard assignment down and bills the tier backhaul.
func (s *Service) sendAssign(sa *transport.ShardAssign) error {
	payload, err := transport.Encode(sa)
	if err != nil {
		return err
	}
	env := &transport.Envelope{Kind: transport.KindShardAssign, From: -1, To: sa.Shard, Round: sa.Round, Payload: payload}
	if err := s.tree.upper.server.Send(env); err != nil {
		return fmt.Errorf("distrib: root assign shard %d: %w", sa.Shard, err)
	}
	s.runner.Ledger().AddTierDown(env.WireSize())
	return nil
}

// sendShardEnds fans the encoded round close to every leaf with its billing
// facts, so each leaf can close its shard exactly as the flat server does.
func (s *Service) sendShardEnds(se *transport.ShardEnd) error {
	for i := 0; i < s.tree.topo.Shards; i++ {
		se.Shard = i
		payload, err := transport.Encode(*se)
		if err != nil {
			return err
		}
		env := &transport.Envelope{Kind: transport.KindShardEnd, From: -1, To: i, Round: se.Round, Payload: payload}
		if err := s.tree.upper.server.Send(env); err != nil {
			return fmt.Errorf("distrib: root close shard %d: %w", i, err)
		}
		s.runner.Ledger().AddTierDown(env.WireSize())
	}
	return nil
}

// rootWaitSlice bounds any single wait of the root's digest collect. Strict
// tree mode still waits for every digest indefinitely — but in slices, so no
// receive in this file ever blocks without a deadline (the structural gate in
// scripts/check.sh holds the root to that shape).
const rootWaitSlice = time.Second

// collectDigests awaits up to one digest per shard and returns the digests
// alongside the sorted list of lost shards. The tier's disposition follows
// the tree's failure model: strict tree mode (no LeafTimeout, no tier fault
// plan) keeps the old contract — every leaf digests every round and any
// tier-link protocol violation is an error. Tolerant tree mode makes leaves
// chaos subjects: shards the fault schedule crashes are never awaited (the
// deterministic failure detector, so a crash-heavy round does not burn the
// deadline), a corrupt or misrouted digest loses its shard, a duplicate
// digest is rejected, and whatever has not arrived when LeafTimeout expires
// is lost to a leaf timeout.
func (s *Service) collectDigests(t int) ([]*transport.ShardDigest, []int, error) {
	shards := s.tree.topo.Shards
	digests := make([]*transport.ShardDigest, shards)
	lost := make(map[int]bool, shards)
	await := shards
	for i := 0; i < shards; i++ {
		if s.treeTol && s.opts.Faults.LeafCrashesAt(i, t) {
			lost[i] = true
			await--
		}
	}
	markLost := func(shard int) {
		if shard >= 0 && shard < shards && !lost[shard] && digests[shard] == nil {
			lost[shard] = true
			await--
		}
	}
	// check runs one envelope down the tier ladder, returning the digest or
	// the violated row's counter and error. A corrupt digest also writes off
	// the sending leaf's shard.
	check := func(e *transport.Envelope) (*transport.ShardDigest, *atomic.Int64, error) {
		if e.Kind != transport.KindShardDigest || e.Round != t {
			return nil, &s.rs.stale, fmt.Errorf("distrib: root got kind %v round %d during round %d", e.Kind, e.Round, t)
		}
		d := &transport.ShardDigest{}
		if err := transport.Decode(e.Payload, d); err != nil {
			return nil, &s.rs.corrupt, err
		}
		if err := d.Validate(); err != nil {
			return nil, &s.rs.corrupt, err
		}
		if d.Shard < 0 || d.Shard >= shards || d.Shard != e.From {
			return nil, &s.rs.corrupt, fmt.Errorf("distrib: digest labeled shard %d arrived from leaf %d", d.Shard, e.From)
		}
		if digests[d.Shard] != nil || lost[d.Shard] {
			return nil, &s.rs.digestDups, fmt.Errorf("distrib: duplicate digest from shard %d in round %d", d.Shard, t)
		}
		return d, nil, nil
	}
	disp := disposition{tolerant: s.treeTol}
	var deadline time.Time
	if s.opts.LeafTimeout > 0 {
		deadline = time.Now().Add(s.opts.LeafTimeout)
	}
	for await > 0 && disp.err == nil {
		wait := rootWaitSlice
		if !deadline.IsZero() {
			until := time.Until(deadline)
			if until <= 0 {
				break
			}
			if until < wait {
				wait = until
			}
		}
		e, err := s.tree.rootRx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			continue // the loop head re-checks the deadline
		}
		var gone *peerGoneError
		if errors.As(err, &gone) && s.treeTol {
			markLost(gone.id)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("distrib: root recv: %w", err)
		}
		d, counter, verr := check(e)
		if verr != nil {
			if disp.reject(counter, verr) && counter == &s.rs.corrupt {
				markLost(e.From)
			}
			continue
		}
		digests[d.Shard] = d
		await--
		s.noteShardDigest(d.Shard, t)
	}
	if disp.err != nil {
		return nil, nil, disp.err
	}
	var lostList []int
	for i := 0; i < shards; i++ {
		if digests[i] != nil {
			continue
		}
		if !lost[i] {
			// Neither crashed nor attributably corrupt: the digest simply
			// missed the deadline.
			s.rs.leafTimeouts.Add(1)
		}
		lostList = append(lostList, i)
		s.noteShardLost(i)
	}
	return digests, lostList, nil
}

// mergeDigests folds the shard digests into engine partials plus the
// round's merged membership report (Σ heard, concatenated missing — already
// ascending because shards are ascending contiguous ranges). A lost shard
// contributes a nil partial (engine.MergeExact and MergeCompact skip them)
// and its whole cohort slice to missing, so a degraded tree round reports
// exactly the clients the merge never saw. The first shard-order Err becomes
// the round error with its text intact, so the round close a tree run fans
// on failure carries the same message a flat run's would.
func (s *Service) mergeDigests(digests []*transport.ShardDigest, cohorts [][]int, lostShards []int) (*roundReport, []*engine.Partial, error) {
	stop := s.rec.Span(obs.PhaseRootMerge)
	defer stop()
	parts := make([]*engine.Partial, len(digests))
	report := &roundReport{missing: make([]int, 0), lostShards: lostShards}
	var roundErr error
	fail := func(err error) {
		if roundErr == nil {
			roundErr = err
		}
	}
	for i, d := range digests {
		if d == nil {
			report.missing = append(report.missing, cohorts[i]...)
			continue
		}
		report.cohort += d.Heard
		report.missing = append(report.missing, d.Missing...)
		if d.Err != "" {
			fail(errors.New(d.Err))
			continue
		}
		if s.tree.topo.Compact {
			p := &engine.Partial{Shard: i, Compact: true, Weight: d.Weight, Count: d.Count}
			if d.HasSum {
				sum, perr := d.Sum.Adopt(nil) // validated with d
				if perr != nil {
					fail(perr)
					continue
				}
				p.Sum = sum
			}
			parts[i] = p
			continue
		}
		// Digest uploads arrive validated in ascending client order, so the
		// exact partial is their decoded sequence as-is.
		p := engine.NewExactPartial(i)
		for _, su := range d.Uploads {
			pay, perr := su.Payload.Adopt(nil) // validated with d
			if perr != nil {
				fail(perr)
				break
			}
			p.Uploads = append(p.Uploads, engine.Upload{Client: su.Client, Payload: pay})
		}
		parts[i] = p
	}
	return report, parts, roundErr
}

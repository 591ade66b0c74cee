package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/obs"
	"fedpkd/internal/tensor"
)

// seqResult is what one restored sequence of rounds produced.
type seqResult struct {
	roundNS    []int64 // wall time of each completed round
	roundStart []time.Time
	connectNS  int64 // distributed: call start to the first round barrier
	// serverAcc and clientAcc are each completed round's accuracies.
	serverAcc, clientAcc []float64
	traffic              []comm.RoundTraffic
	// accepted counts client uploads that reached aggregation; degraded
	// counts rounds that ran with a partial cohort.
	accepted, degraded int
	allocBytes         uint64
	gcCycles           uint32
	gcPauseNS          uint64
	kernel             tensor.KernelStats // tensor counter deltas
	// state digests the model and optimizer state after the last round, on
	// exact workloads only.
	state [sha256.Size]byte
	err   error
}

// failedRounds counts the sequence's rounds that errored, never ran or were
// degraded, out of k attempted.
func (s *seqResult) failedRounds(k int) int {
	return k - len(s.roundNS) + s.degraded
}

// runSequence restores the snapshot and runs k rounds over the distributed
// runtime configured by path, or in-process with Runner.Run when path is
// nil. rec, when non-nil, records the rounds' obs traces.
func (f *fixture) runSequence(k int, rec *obs.Recorder, path *distrib.Options) seqResult {
	var res seqResult
	if err := f.restore(); err != nil {
		res.err = err
		return res
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	k0 := tensor.ReadKernelStats()
	if path == nil {
		f.runner.SetRecorder(rec)
		for i := 0; i < k; i++ {
			t0 := time.Now()
			if _, err := f.runner.Run(1); err != nil {
				res.err = err
				break
			}
			res.roundNS = append(res.roundNS, time.Since(t0).Nanoseconds())
			res.roundStart = append(res.roundStart, t0)
		}
		f.runner.SetRecorder(nil)
	} else {
		opts := *path
		opts.Recorder = rec
		// A round runs from its barrier to the next one; the last round
		// closes when the run returns, after the service has shut down.
		var stamps []time.Time
		opts.Barrier = func(int) error {
			stamps = append(stamps, time.Now())
			return nil
		}
		start := time.Now()
		_, res.err = distrib.RunAlgorithmUntilOpts(f.algo, f.base+k, opts)
		stamps = append(stamps, time.Now())
		res.connectNS = stamps[0].Sub(start).Nanoseconds()
		for i := 0; i+1 < len(stamps); i++ {
			if i+2 == len(stamps) && res.err != nil {
				break
			}
			res.roundNS = append(res.roundNS, stamps[i+1].Sub(stamps[i]).Nanoseconds())
			res.roundStart = append(res.roundStart, stamps[i])
		}
	}
	k1 := tensor.ReadKernelStats()
	runtime.ReadMemStats(&m1)
	res.kernel = tensor.KernelStats{
		SerialCalls:   k1.SerialCalls - k0.SerialCalls,
		ParallelCalls: k1.ParallelCalls - k0.ParallelCalls,
		Ops:           k1.Ops - k0.Ops,
		MatrixAllocs:  k1.MatrixAllocs - k0.MatrixAllocs,
		ScratchGets:   k1.ScratchGets - k0.ScratchGets,
		ScratchMisses: k1.ScratchMisses - k0.ScratchMisses,
		ScratchPuts:   k1.ScratchPuts - k0.ScratchPuts,
	}
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs

	if f.w.exact && res.err == nil {
		res.state, res.err = f.stateDigest()
	}

	hist := f.runner.History()
	done := len(res.roundNS)
	if len(hist.Rounds) < f.base+done {
		res.err = fmt.Errorf("history holds %d rounds, want %d", len(hist.Rounds), f.base+done)
		return res
	}
	for _, r := range hist.Rounds[f.base : f.base+done] {
		res.serverAcc = append(res.serverAcc, r.ServerAcc)
		res.clientAcc = append(res.clientAcc, r.ClientAcc)
	}
	if rounds := f.runner.Ledger().Rounds(); len(rounds) >= f.base+done {
		res.traffic = rounds[f.base : f.base+done]
	}
	n := f.env.Cfg.NumClients
	res.accepted = done * n
	for _, d := range hist.Degraded {
		if d.Round >= f.base {
			res.degraded++
			res.accepted -= d.Expected - d.Cohort
		}
	}
	return res
}

// stateDigest hashes every checkpoint section the algorithm owns: all model
// weights, optimizer moments and algorithm state. The engine's own sections
// are left out, since the in-process ledger prices traffic analytically and
// the distributed one in encoded bytes.
func (f *fixture) stateDigest() ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	var buf bytes.Buffer
	if err := f.runner.Checkpoint(&buf); err != nil {
		return sum, fmt.Errorf("digest state: %w", err)
	}
	d, err := ckpt.Read(&buf)
	if err != nil {
		return sum, fmt.Errorf("digest state: %w", err)
	}
	h := sha256.New()
	for _, name := range d.SortedNames() {
		if strings.HasPrefix(name, "engine.") {
			continue
		}
		data, _ := d.Get(name)
		h.Write([]byte(name))
		h.Write(data)
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// agree reports whether two sequences produced the same accuracies: bit for
// bit, or within tol when tol > 0. It returns the number of rounds that
// disagree (rounds missing from either side count); when both sequences
// digested their final state and the digests differ, every round counts.
func agree(a, b seqResult, tol float64) int {
	n := len(a.serverAcc)
	if len(b.serverAcc) > n {
		n = len(b.serverAcc)
	}
	if a.state != b.state {
		return n
	}
	bad := 0
	for i := 0; i < n; i++ {
		if i >= len(a.serverAcc) || i >= len(b.serverAcc) ||
			!within(a.serverAcc[i], b.serverAcc[i], tol) || !within(a.clientAcc[i], b.clientAcc[i], tol) {
			bad++
		}
	}
	return bad
}

// within compares x and y exactly (tol == 0) or within tol.
func within(x, y, tol float64) bool {
	if tol == 0 {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return math.Abs(x-y) <= tol
}

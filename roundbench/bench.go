package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	size    size
	outDir  string // traced runs write their spans here; empty writes none

	// seqLen is the number of rounds each restored sequence runs; minRounds
	// the fewest timed rounds a run reports (so round_p90_ms has ten rounds
	// beyond it); setups how many times the fixture is built. Zero takes the
	// defaults below.
	seqLen, minRounds, setups int
}

const (
	defaultSeqLen    = 10
	defaultMinRounds = 100
	defaultSetups    = 5
	// prefixRounds is the length of the in-process replay a compact tree
	// run is checked against.
	prefixRounds = 2
	// hardStop ends the timed loop whatever minRounds asks, so a run on a
	// slow host still exits in time.
	hardStop = 120 * time.Second
)

func (c *runConfig) fillDefaults() {
	if c.seqLen == 0 {
		c.seqLen = defaultSeqLen
	}
	if c.minRounds == 0 {
		c.minRounds = defaultMinRounds
	}
	if c.setups == 0 {
		c.setups = defaultSetups
	}
}

// tally is the run's failure accounting: rounds attempted, rounds that
// errored, were degraded or failed an output check, and what went wrong.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// addSeq accounts one sequence of k attempted rounds and, when ref is
// non-nil, checks its accuracies against ref's.
func (t *tally) addSeq(what string, s seqResult, k int, ref *seqResult, tol float64) {
	t.attempted += k
	t.failed += s.failedRounds(k)
	if s.err != nil {
		t.problem("%s: %v", what, s.err)
		return
	}
	if s.degraded > 0 {
		t.problem("%s: %d degraded rounds", what, s.degraded)
	}
	if ref != nil && ref.err == nil {
		if bad := agree(*ref, s, tol); bad > 0 {
			t.failed += bad
			t.problem("%s: %d of %d rounds disagree with the reference", what, bad, k)
		}
	}
}

func (c *runConfig) tol() float64 {
	if c.w.exact {
		return 0
	}
	return compactTol
}

// run executes one benchmark invocation.
func run(cfg runConfig) (result, error) {
	cfg.fillDefaults()
	tr := newTracer()
	root := tr.begin("run", -1)

	var costs []setupCost
	var f *fixture
	for i := 0; i < cfg.setups; i++ {
		id := tr.begin("setup", root)
		fx, cost, err := newFixture(cfg.w, cfg.seed, cfg.size)
		tr.end(id)
		if err != nil {
			return result{}, fmt.Errorf("set up %s: %w", cfg.w.name, err)
		}
		f = fx
		costs = append(costs, cost)
	}

	// Collect the set-ups' garbage now rather than inside the first timed
	// rounds.
	runtime.GC()

	var tl tally
	values := make(map[string]float64)
	defs := endToEnd
	var err error
	if cfg.trace {
		defs = perLayer
		err = tracedRun(f, cfg, tr, root, costs, &tl, values)
	} else {
		err = timedRun(f, cfg, costs, &tl, values)
	}
	if err != nil {
		return result{}, err
	}
	tr.end(root)
	if cfg.trace && cfg.outDir != "" {
		if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))); err != nil {
			return result{}, err
		}
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return result{}, err
	}
	for _, p := range tl.problems {
		fmt.Fprintln(os.Stderr, "roundbench: check:", p)
	}
	return result{
		Correct:   len(tl.problems) == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   metrics,
	}, nil
}

// timedRun runs restored sequences untraced until cfg.seconds have passed
// and at least cfg.minRounds rounds are timed, checks the outputs, and fills
// the end-to-end metrics.
func timedRun(f *fixture, cfg runConfig, costs []setupCost, tl *tally, m map[string]float64) error {
	start := time.Now()
	var seqs []seqResult
	rounds := 0
	for len(seqs) == 0 || time.Since(start) < cfg.seconds || (rounds < cfg.minRounds && time.Since(start) < hardStop) {
		s := f.runSequence(cfg.seqLen, nil, f.w.opts)
		var ref *seqResult
		if len(seqs) > 0 {
			ref = &seqs[0]
		}
		tl.addSeq("sequence "+strconv.Itoa(len(seqs)), s, cfg.seqLen, ref, cfg.tol())
		seqs = append(seqs, s)
		rounds += len(s.roundNS)
		if s.err != nil {
			break
		}
	}
	crossCheck(f, cfg, seqs[0], tl)

	var roundMS []float64
	var wallNS, wireBytes int64
	var allocBytes uint64
	accepted := 0
	for _, s := range seqs {
		for _, ns := range s.roundNS {
			roundMS = append(roundMS, float64(ns)/1e6)
			wallNS += ns
		}
		for _, rt := range s.traffic {
			wireBytes += rt.Total()
		}
		allocBytes += s.allocBytes
		accepted += s.accepted
	}
	if rounds == 0 {
		return fmt.Errorf("%s: no round completed: %v", cfg.w.name, seqs[0].err)
	}
	m["round_p50_ms"] = median(roundMS)
	m["round_p90_ms"] = quantile(roundMS, 0.9)
	m["updates_per_s"] = float64(accepted) / (float64(wallNS) / 1e9)
	m["setup_s"] = setupSeconds(costs, seqs)
	m["wire_mb_per_round"] = float64(wireBytes) / comm.MB / float64(rounds)
	m["alloc_mb_per_round"] = float64(allocBytes) / comm.MB / float64(rounds)
	if rounds < cfg.minRounds {
		fmt.Fprintf(os.Stderr, "roundbench: only %d rounds timed; round_p90_ms needs %d\n", rounds, cfg.minRounds)
	}
	return nil
}

// setupSeconds is the median fixture build plus, on the distributed paths,
// the median connect time of the timed sequences.
func setupSeconds(costs []setupCost, seqs []seqResult) float64 {
	totals := make([]float64, len(costs))
	for i, c := range costs {
		totals[i] = c.total.Seconds()
	}
	connects := make([]float64, len(seqs))
	for i, s := range seqs {
		connects[i] = float64(s.connectNS) / 1e9
	}
	return median(totals) + median(connects)
}

// crossCheck replays the workload's first sequence on another path. An
// exact workload must reproduce it bit for bit on its replay path, digest
// included; a compact tree must match a short in-process prefix,
// accuracies and global weights, within compactTol.
func crossCheck(f *fixture, cfg runConfig, ref seqResult, tl *tally) {
	if ref.err != nil {
		return
	}
	if f.w.exact {
		rep := f.runSequence(cfg.seqLen, nil, f.w.replay)
		tl.addSeq("replay", rep, cfg.seqLen, &ref, 0)
		return
	}
	tree := f.runSequence(prefixRounds, nil, f.w.opts)
	treeParams := f.globalParams()
	tl.addSeq("tree prefix", tree, prefixRounds, nil, 0)
	rep := f.runSequence(prefixRounds, nil, nil)
	tl.addSeq("in-process prefix", rep, prefixRounds, &tree, compactTol)
	if d := maxRelDiff(treeParams, f.globalParams()); !(d <= compactTol) {
		tl.failed += prefixRounds
		tl.problem("tree prefix global weights differ from the in-process replay by %g (tolerance %g)", d, compactTol)
	}
}

// globalParams copies the algorithm's current global weights (nil when it
// front-loads none).
func (f *fixture) globalParams() []float64 {
	p := f.runner.Hooks().GlobalState(f.runner.CurrentRound())
	if p == nil {
		return nil
	}
	return append([]float64(nil), p.Params...)
}

// maxRelDiff is max |a-b| / max(1, |b|) over the elements; +Inf when the
// lengths differ.
func maxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / math.Max(1, math.Abs(b[i]))
		if !(d <= worst) {
			worst = d
		}
	}
	return worst
}

// tracedRun alternates untraced sequences with sequences traced through the
// obs Recorder and the layer decorators until cfg.seconds have passed,
// checks that tracing left the outputs unchanged, runs the layer probes and
// fills the per-layer metrics.
func tracedRun(f *fixture, cfg runConfig, tr *tracer, root int, costs []setupCost, tl *tally, m map[string]float64) error {
	var plain, traced []seqResult
	var traces []obs.RoundTrace
	var stats []*layerStats
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < cfg.seconds {
		p := f.runSequence(cfg.seqLen, nil, f.w.opts)
		tr.sequence(root, "sequence", p, nil)
		var ref *seqResult
		if len(plain) > 0 {
			ref = &plain[0]
		}
		tl.addSeq("untraced sequence "+strconv.Itoa(len(plain)), p, cfg.seqLen, ref, cfg.tol())
		plain = append(plain, p)

		seqStats, undo := decorate(f.networks())
		stats = append(stats, seqStats...)
		rec := obs.NewRecorder(f.runner.Name())
		s := f.runSequence(cfg.seqLen, rec, f.w.opts)
		undo()
		rec.Finish()
		seqTraces := rec.Traces()
		tr.sequence(root, "traced_sequence", s, seqTraces)
		tl.addSeq("traced sequence "+strconv.Itoa(len(traced)), s, cfg.seqLen, &plain[0], cfg.tol())
		traced = append(traced, s)
		traces = append(traces, seqTraces...)
		if p.err != nil || s.err != nil {
			break
		}
	}

	var plainMS, tracedMS []float64
	var plainRounds, tracedRounds, dropped int
	var wallNS int64
	var gcCycles uint32
	var gcPauseNS uint64
	var up, down, ctrl, tier int64
	for _, s := range plain {
		for _, ns := range s.roundNS {
			plainMS = append(plainMS, float64(ns)/1e6)
		}
		plainRounds += len(s.roundNS)
		gcCycles += s.gcCycles
		gcPauseNS += s.gcPauseNS
		for _, rt := range s.traffic {
			up += rt.Upload
			down += rt.Download
			ctrl += rt.Control
			tier += rt.TierUp + rt.TierDown
		}
	}
	var kernelOps, kernelPar, kernelSer, kernelAllocs, scratchGets, scratchMisses int64
	for _, s := range traced {
		for _, ns := range s.roundNS {
			tracedMS = append(tracedMS, float64(ns)/1e6)
			wallNS += ns
		}
		tracedRounds += len(s.roundNS)
		kernelOps += s.kernel.Ops
		kernelPar += s.kernel.ParallelCalls
		kernelSer += s.kernel.SerialCalls
		kernelAllocs += s.kernel.MatrixAllocs
		scratchGets += s.kernel.ScratchGets
		scratchMisses += s.kernel.ScratchMisses
	}
	for _, s := range append(append([]seqResult(nil), plain...), traced...) {
		dropped += len(s.roundNS)*f.env.Cfg.NumClients - s.accepted
	}
	if plainRounds == 0 || tracedRounds == 0 {
		return fmt.Errorf("%s: traced run completed no rounds", cfg.w.name)
	}
	pr, trn := float64(plainRounds), float64(tracedRounds)

	m["tensor.ops_per_round"] = float64(kernelOps) / trn
	m["tensor.parallel_calls_per_round"] = float64(kernelPar) / trn
	m["tensor.serial_calls_per_round"] = float64(kernelSer) / trn
	m["tensor.matrix_allocs_per_round"] = float64(kernelAllocs) / trn
	m["tensor.scratch_miss_ratio"] = 0
	if scratchGets > 0 {
		m["tensor.scratch_miss_ratio"] = float64(scratchMisses) / float64(scratchGets)
	}

	layers := sumStats(stats)
	perRoundMS := func(ns int64) float64 { return float64(ns) / 1e6 / trn }
	m["nn.dense.fwd_ms"] = perRoundMS(layers.fwdNS[kindDense])
	m["nn.dense.bwd_ms"] = perRoundMS(layers.bwdNS[kindDense])
	m["nn.batchnorm.fwd_ms"] = perRoundMS(layers.fwdNS[kindBatchNorm])
	m["nn.batchnorm.bwd_ms"] = perRoundMS(layers.bwdNS[kindBatchNorm])
	m["nn.relu.fwd_ms"] = perRoundMS(layers.fwdNS[kindReLU])
	m["nn.relu.bwd_ms"] = perRoundMS(layers.bwdNS[kindReLU])
	m["nn.dense.calls"] = float64(layers.fwdCalls[kindDense]) / trn

	phase := func(name string) int64 {
		var sum int64
		for _, t := range traces {
			sum += t.PhaseNS[name]
		}
		return sum
	}
	var trainMax, batches int64
	for _, t := range traces {
		var mx int64
		for _, ns := range t.ClientTrainNS {
			if ns > mx {
				mx = ns
			}
		}
		trainMax += mx
		batches += t.Batches
	}
	nt := float64(len(traces))
	if nt == 0 {
		return fmt.Errorf("%s: the traced sequences recorded no round traces", cfg.w.name)
	}
	perTraceMS := func(ns int64) float64 { return float64(ns) / 1e6 / nt }
	m["fl.client_train_ms"] = perTraceMS(phase(obs.PhaseClientTrain))
	m["fl.client_train_max_ms"] = perTraceMS(trainMax)
	m["fl.client_public_ms"] = perTraceMS(phase(obs.PhaseClientPublic))
	m["fl.server_train_ms"] = perTraceMS(phase(obs.PhaseServerTrain))
	m["fl.eval_ms"] = perTraceMS(phase(obs.PhaseEval))
	m["fl.batches_per_round"] = float64(batches) / nt
	last := len(plain[0].serverAcc) - 1
	m["fl.server_acc"] = plain[0].serverAcc[last]
	m["fl.client_acc"] = plain[0].clientAcc[last]
	m["core.aggregate_ms"] = perTraceMS(phase(obs.PhaseAggregate))
	m["filter.select_ms"] = perTraceMS(phase(obs.PhaseFilter))
	m["distrib.leaf_reduce_ms"] = perTraceMS(phase(obs.PhaseLeafReduce))
	m["distrib.root_merge_ms"] = perTraceMS(phase(obs.PhaseRootMerge))
	serverNS := phase(obs.PhaseAggregate) + phase(obs.PhaseFilter) + phase(obs.PhaseServerTrain) +
		phase(obs.PhaseEval) + phase(obs.PhaseRootMerge)
	m["distrib.server_wait_ms"] = float64(wallNS-serverNS) / 1e6 / trn
	connects := make([]float64, len(plain))
	for i, s := range plain {
		connects[i] = float64(s.connectNS) / 1e6
	}
	m["distrib.connect_ms"] = median(connects)
	m["distrib.uploads_dropped"] = float64(dropped)

	var ckptMS, restoreMS, snapMB []float64
	for _, c := range costs {
		ckptMS = append(ckptMS, ms(c.checkpoint))
		restoreMS = append(restoreMS, ms(c.restore))
		snapMB = append(snapMB, float64(c.snapshotBytes)/comm.MB)
	}
	m["engine.checkpoint_ms"] = median(ckptMS)
	m["engine.restore_ms"] = median(restoreMS)
	m["engine.snapshot_mb"] = median(snapMB)

	m["comm.upload_mb_per_round"] = float64(up) / comm.MB / pr
	m["comm.download_mb_per_round"] = float64(down) / comm.MB / pr
	m["comm.control_kb_per_round"] = float64(ctrl) / 1024 / pr
	m["comm.tier_mb_per_round"] = float64(tier) / comm.MB / pr

	m["proc.gc_cycles_per_round"] = float64(gcCycles) / pr
	m["proc.gc_pause_ms_per_round"] = float64(gcPauseNS) / 1e6 / pr
	m["trace.overhead_pct"] = (median(tracedMS)/median(plainMS) - 1) * 100

	span := func(name string) func() {
		id := tr.begin(name, root)
		return func() { tr.end(id) }
	}
	if err := f.runProbes(m, span); err != nil {
		return fmt.Errorf("%s: probes: %w", cfg.w.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m["proc.peak_rss_mb"] = rss
	return nil
}

// networks returns the models the layer decorators go on: the FedPKD
// clients and server. FedAvg exposes no client models through its API.
func (f *fixture) networks() []*nn.Network {
	if f.pkd == nil {
		return nil
	}
	return append(append([]*nn.Network(nil), f.pkd.Clients()...), f.pkd.Server())
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// span is one traced interval. Times are nanoseconds since the run began.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps the run's spans in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: t.since(time.Now())})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.since(time.Now()) }

// sequence records a sequence span with one child span per round; traced
// rounds carry their obs phase times as attributes.
func (t *tracer) sequence(parent int, name string, s seqResult, traces []obs.RoundTrace) {
	if len(s.roundStart) == 0 {
		return
	}
	seq := len(t.spans)
	t.spans = append(t.spans, span{ID: seq, Parent: parent, Name: name, Start: t.since(s.roundStart[0])})
	var end int64
	for i, at := range s.roundStart {
		sp := span{ID: len(t.spans), Parent: seq, Name: "round", Start: t.since(at)}
		sp.End = sp.Start + s.roundNS[i]
		end = sp.End
		if i < len(traces) {
			sp.Attrs = make(map[string]float64, len(traces[i].PhaseNS))
			for phase, ns := range traces[i].PhaseNS {
				sp.Attrs[phase+"_ms"] = float64(ns) / 1e6
			}
		}
		t.spans = append(t.spans, sp)
	}
	t.spans[seq].End = end
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			fh.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

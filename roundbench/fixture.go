package main

import (
	"bytes"
	"fmt"
	"time"

	"fedpkd/internal/baselines"
	"fedpkd/internal/core"
	"fedpkd/internal/dataset"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// workload is one named fixture plus the path its rounds run on.
type workload struct {
	name string
	// fedAvg selects the wide FedAvg fleet; otherwise the FedPKD fleet.
	fedAvg bool
	// opts runs the rounds over the distributed runtime; nil runs them
	// in-process with Runner.Run.
	opts *distrib.Options
	// exact says whether two runs of one snapshot must agree bit for bit.
	// Compact tree reduction folds uploads in arrival order, so it only
	// agrees to compactTol.
	exact bool
	// replay is the path an exact workload's first sequence is replayed on
	// and must reproduce bit for bit (nil: in-process).
	replay *distrib.Options
}

// compactTol is the documented agreement of compact tree reduction with the
// flat fold (engine.Partial, TestTreeCompactFedAvgTolerance).
const compactTol = 1e-9

// tcpFlat is the paper's default deployment: a flat server over loopback
// TCP.
var tcpFlat = &distrib.Options{Mode: distrib.ModeTCP}

var workloads = []workload{
	{name: "pkd-inproc", exact: true, replay: tcpFlat},
	{name: "avg-wide-tree", fedAvg: true, opts: &distrib.Options{
		Mode:     distrib.ModeBus,
		Topology: distrib.Topology{Shards: 4, Compact: true},
	}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// partitionSeed fixes how the data is split across clients and which
// samples form the local test sets. The split sets each client's share of
// the round's work, and with it the critical path, so it belongs to the
// workload and not to the seed; the seed still draws the task, its samples,
// the models' initial weights and the batch order.
const partitionSeed = 42

// size scales a fixture. benchSize is the benchmark's; the package tests
// use tinySize to stay fast.
type size struct {
	pkdClients, pkdTrain, pkdPublic, pkdTest, pkdLocalTest int
	avgClients, avgPerClient, avgTest, avgLocalTest        int
}

var (
	benchSize = size{4, 1200, 400, 500, 50, 128, 20, 500, 20}
	tinySize  = size{3, 240, 80, 100, 20, 8, 10, 100, 10}
)

// fixture is one built run and the in-memory snapshot every timed sequence
// restores.
type fixture struct {
	w      workload
	env    *fl.Env
	algo   fl.Algorithm
	runner *engine.Runner
	pkd    *core.FedPKD      // set for the FedPKD workloads
	avg    *baselines.FedAvg // set for the FedAvg workload
	snap   []byte
	base   int // rounds completed at the snapshot
}

// setupCost is the time one fixture build took, split into the parts the
// per-layer metrics report.
type setupCost struct {
	total, checkpoint, restore time.Duration
	snapshotBytes              int
}

// newFixture builds the workload's environment and algorithm from seed,
// runs one warm-up round in-process, snapshots the run into memory and
// restores it once, as every timed sequence will.
func newFixture(w workload, seed uint64, sz size) (*fixture, setupCost, error) {
	start := time.Now()
	f := &fixture{w: w}
	var err error
	if w.fedAvg {
		f.env, err = fl.NewEnv(fl.EnvConfig{
			Spec:          dataset.SynthC10(seed),
			NumClients:    sz.avgClients,
			TrainSize:     sz.avgClients * sz.avgPerClient,
			TestSize:      sz.avgTest,
			LocalTestSize: sz.avgLocalTest,
			Partition:     fl.PartitionConfig{Kind: fl.PartitionIID},
			Seed:          partitionSeed,
		})
		if err != nil {
			return nil, setupCost{}, err
		}
		f.avg, err = baselines.NewFedAvg(baselines.FedAvgConfig{
			Common:      baselines.CommonConfig{Env: f.env, Seed: seed},
			LocalEpochs: 1,
			Arch:        "ResNet20",
		})
		f.algo = f.avg
	} else {
		f.env, err = fl.NewEnv(fl.EnvConfig{
			Spec:          dataset.SynthC10(seed),
			NumClients:    sz.pkdClients,
			TrainSize:     sz.pkdTrain,
			TestSize:      sz.pkdTest,
			PublicSize:    sz.pkdPublic,
			LocalTestSize: sz.pkdLocalTest,
			Partition:     fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.3},
			Seed:          partitionSeed,
		})
		if err != nil {
			return nil, setupCost{}, err
		}
		f.pkd, err = core.New(core.Config{
			Env:                 f.env,
			ClientPrivateEpochs: 2,
			ClientPublicEpochs:  1,
			ServerEpochs:        3,
			Seed:                seed,
		})
		f.algo = f.pkd
	}
	if err != nil {
		return nil, setupCost{}, err
	}
	if f.runner, err = engine.Of(f.algo); err != nil {
		return nil, setupCost{}, err
	}
	if _, err := f.runner.Run(1); err != nil {
		return nil, setupCost{}, fmt.Errorf("warm-up round: %w", err)
	}
	f.base = f.runner.CurrentRound()

	var cost setupCost
	t0 := time.Now()
	var buf bytes.Buffer
	if err := f.runner.Checkpoint(&buf); err != nil {
		return nil, setupCost{}, fmt.Errorf("snapshot: %w", err)
	}
	cost.checkpoint = time.Since(t0)
	f.snap = buf.Bytes()
	cost.snapshotBytes = len(f.snap)

	t0 = time.Now()
	if err := f.restore(); err != nil {
		return nil, setupCost{}, err
	}
	cost.restore = time.Since(t0)
	cost.total = time.Since(start)
	return f, cost, nil
}

// restore rewinds the run to the snapshot.
func (f *fixture) restore() error {
	if err := f.runner.Resume(bytes.NewReader(f.snap)); err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	return nil
}

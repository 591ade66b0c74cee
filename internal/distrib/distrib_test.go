package distrib

import (
	"testing"

	"fedpkd/internal/baselines"
	"fedpkd/internal/comm"
	"fedpkd/internal/core"
	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/tensor"
	"fedpkd/internal/transport"
)

func distribEnv(t *testing.T) *fl.Env {
	t.Helper()
	spec := dataset.SynthC10(17)
	spec.Noise = 0.6
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       spec,
		NumClients: 3,
		TrainSize:  300, TestSize: 200, PublicSize: 100, LocalTestSize: 40,
		Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5},
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func distribConfig(env *fl.Env) core.Config {
	return core.Config{
		Env:                 env,
		ClientPrivateEpochs: 2,
		ClientPublicEpochs:  1,
		ServerEpochs:        3,
		Seed:                9,
	}
}

func TestRunOverBus(t *testing.T) {
	env := distribEnv(t)
	hist, err := Run(Config{Core: distribConfig(env), Mode: ModeBus}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 2 {
		t.Fatalf("history rounds = %d", hist.Len())
	}
	if hist.FinalServerAcc() <= 0.1 {
		t.Errorf("server accuracy %v no better than chance", hist.FinalServerAcc())
	}
	if hist.TotalMB() <= 0 {
		t.Error("wire traffic not recorded")
	}
	if hist.Algo != "FedPKD(distributed)" {
		t.Errorf("history algo = %q", hist.Algo)
	}
}

func TestRunOverTCP(t *testing.T) {
	env := distribEnv(t)
	hist, err := Run(Config{Core: distribConfig(env), Mode: ModeTCP}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 1 {
		t.Fatalf("history rounds = %d", hist.Len())
	}
	if hist.FinalClientAcc() <= 0 {
		t.Errorf("client accuracy %v", hist.FinalClientAcc())
	}
}

// requireSameAccuracies asserts bit-identical accuracy trajectories. Traffic
// totals legitimately differ: distrib records encoded wire bytes while the
// in-process engine uses the analytic sizes of internal/comm.
func requireSameAccuracies(t *testing.T, distributed, inproc *fl.History) {
	t.Helper()
	if distributed.Len() != inproc.Len() {
		t.Fatalf("round counts differ: %d vs %d", distributed.Len(), inproc.Len())
	}
	for i := range distributed.Rounds {
		d, p := distributed.Rounds[i], inproc.Rounds[i]
		if d.ServerAcc != p.ServerAcc || d.ClientAcc != p.ClientAcc {
			t.Errorf("round %d: distributed (%v, %v) vs in-process (%v, %v)",
				i, d.ServerAcc, d.ClientAcc, p.ServerAcc, p.ClientAcc)
		}
	}
}

func TestRunMatchesInProcessFedPKD(t *testing.T) {
	// Payload values travel as float64, so the distributed run must follow
	// the exact same trajectory as the in-process engine — no tolerance.
	env := distribEnv(t)
	d, err := Run(Config{Core: distribConfig(env), Mode: ModeBus}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(distribConfig(env))
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := f.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunMatchesInProcessFedAvg(t *testing.T) {
	env := distribEnv(t)
	cfg := baselines.FedAvgConfig{
		Common:      engine.Config{Env: env, Seed: 9},
		LocalEpochs: 2,
	}
	newRun := func() *baselines.FedAvg {
		f, err := baselines.NewFedAvg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	d, err := RunAlgorithm(newRun(), ModeBus, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Algo != "FedAvg(distributed)" {
		t.Errorf("history algo = %q", d.Algo)
	}
	if d.TotalMB() <= 0 {
		t.Error("wire traffic not recorded")
	}
	inproc, err := newRun().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunMatchesInProcessFedMD(t *testing.T) {
	env := distribEnv(t)
	cfg := baselines.FedMDConfig{
		Common:        engine.Config{Env: env, Seed: 9},
		LocalEpochs:   2,
		DistillEpochs: 1,
	}
	newRun := func() *baselines.FedMD {
		f, err := baselines.NewFedMD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	d, err := RunAlgorithm(newRun(), ModeBus, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Algo != "FedMD(distributed)" {
		t.Errorf("history algo = %q", d.Algo)
	}
	inproc, err := newRun().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, 1); err == nil {
		t.Error("missing env should error")
	}
	env := distribEnv(t)
	if _, err := Run(Config{Core: distribConfig(env), Mode: "carrier-pigeon"}, 1); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestRunMatchesInProcessFedPKDInt8 pins the quantized-wire equivalence
// contract: under the int8 codec both legs run decode(encode(x)) through
// the same section machinery — the in-process engine via Payload.ApplyCodec,
// the distributed runtime via the actual wire — so the accuracy trajectories
// are still bit-identical, and the raw-equivalent ledger columns show real
// upload compression.
func TestRunMatchesInProcessFedPKDInt8(t *testing.T) {
	env := distribEnv(t)
	newRun := func() (*core.FedPKD, *engine.Runner) {
		f, err := core.New(distribConfig(env))
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetCodec(comm.CodecInt8); err != nil {
			t.Fatal(err)
		}
		return f, r
	}
	algoD, runnerD := newRun()
	d, err := RunAlgorithm(algoD, ModeBus, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	algoP, _ := newRun()
	inproc, err := algoP.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)

	var up, rawUp int64
	for _, rt := range runnerD.Ledger().Rounds() {
		up += rt.Upload
		rawUp += rt.RawUpload
	}
	if up == 0 || rawUp == 0 {
		t.Fatalf("ledger upload=%d raw=%d; int8 runs must fill both columns", up, rawUp)
	}
	if rawUp < 3*up {
		t.Errorf("raw-equivalent upload bytes %d vs wire %d: expected at least 3x compression", rawUp, up)
	}
}

// TestRawWireSizeIsEncodedLength pins the raw-equivalent billing: a message
// is priced at exactly the envelope its encoding would fill, and a message
// that cannot be encoded falls back to the given size.
func TestRawWireSizeIsEncodedLength(t *testing.T) {
	p := &engine.Payload{
		Logits:     tensor.FromSlice(2, 3, []float64{0.5, -1, 2, 0, 3.25, -0.125}),
		Indices:    []int{4, 9},
		Params:     []float64{1, -2.5, 1e-300, 7},
		NumSamples: 12,
	}
	w := transport.PayloadToWire(p)
	for _, msg := range []any{
		transport.RoundUpload{Round: 3, Client: 2, HasPayload: true, Payload: w},
		transport.RoundStart{Round: 3, HasGlobal: true, Global: w},
		transport.RoundEnd{Round: 3, HasBroadcast: true, Broadcast: w},
	} {
		b, err := transport.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rawWireSize(msg, -1), (&transport.Envelope{Payload: b}).WireSize(); got != want {
			t.Errorf("rawWireSize(%T) = %d, want the encoded envelope size %d", msg, got, want)
		}
	}
	if got := rawWireSize(make(chan int), 7); got != 7 {
		t.Errorf("rawWireSize of an unencodable message = %d, want the fallback 7", got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"fedpkd/internal/distrib"
	"fedpkd/internal/nn"
	"fedpkd/internal/tensor"
)

// tinyFixture builds a small fixture of the named workload.
func tinyFixture(t *testing.T, name string) *fixture {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := newFixture(w, 7, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRestoresReplayIdenticalRounds: two sequences restored from one
// snapshot produce the same accuracies, model state and ledger traffic, in
// process and over TCP, and the two paths agree bit for bit.
func TestRestoresReplayIdenticalRounds(t *testing.T) {
	f := tinyFixture(t, "pkd-inproc")
	paths := map[string]*distrib.Options{"inproc": nil, "tcp": tcpFlat}
	var first []seqResult
	for _, name := range []string{"inproc", "tcp"} {
		a := f.runSequence(3, nil, paths[name])
		b := f.runSequence(3, nil, paths[name])
		for _, s := range []seqResult{a, b} {
			if s.err != nil || len(s.roundNS) != 3 {
				t.Fatalf("%s: sequence ran %d of 3 rounds: %v", name, len(s.roundNS), s.err)
			}
		}
		if bad := agree(a, b, 0); bad != 0 {
			t.Errorf("%s: %d rounds differ between two restores: %v/%v vs %v/%v", name, bad, a.serverAcc, a.clientAcc, b.serverAcc, b.clientAcc)
		}
		if !reflect.DeepEqual(a.traffic, b.traffic) {
			t.Errorf("%s: ledger traffic differs between two restores: %v vs %v", name, a.traffic, b.traffic)
		}
		first = append(first, a)
	}
	if bad := agree(first[0], first[1], 0); bad != 0 {
		t.Errorf("%d rounds differ between the in-process and the TCP path", bad)
	}
}

// TestDecoratorsPreserveStateAndOutputs: decorating a network leaves its
// state dict, its outputs and a training sequence unchanged, and undo puts
// the original layers back.
func TestDecoratorsPreserveStateAndOutputs(t *testing.T) {
	f := tinyFixture(t, "pkd-inproc")
	nets := f.networks()
	x := rows(f.env.Splits.Public.X, 0, 16)
	state := func() [][]byte {
		var out [][]byte
		for _, n := range nets {
			out = append(out, nn.CaptureState(n, nil).Encode())
		}
		return out
	}
	logits := func() []*tensor.Matrix {
		var out []*tensor.Matrix
		for _, n := range nets {
			out = append(out, n.Logits(x))
		}
		return out
	}
	before, beforeLogits := state(), logits()
	plain := f.runSequence(2, nil, nil)

	stats, undo := decorate(nets)
	if err := f.restore(); err != nil {
		t.Fatal(err)
	}
	after, afterLogits := state(), logits()
	for i := range nets {
		if !bytes.Equal(before[i], after[i]) {
			t.Errorf("network %d: state dict changed under the decorators", i)
		}
		if !beforeLogits[i].Equal(afterLogits[i], 0) {
			t.Errorf("network %d: logits changed under the decorators", i)
		}
	}
	traced := f.runSequence(2, nil, nil)
	undo()
	if bad := agree(plain, traced, 0); bad != 0 {
		t.Errorf("%d decorated rounds differ from undecorated ones", bad)
	}
	if tot := sumStats(stats); tot.fwdCalls[kindDense] == 0 || tot.bwdNS[kindDense] == 0 || tot.fwdCalls[kindBatchNorm] == 0 || tot.fwdCalls[kindReLU] == 0 {
		t.Errorf("decorators saw no Dense/BatchNorm/ReLU traffic: %+v", tot)
	}
	var leftover func(l nn.Layer) bool
	leftover = func(l nn.Layer) bool {
		switch v := l.(type) {
		case *timedLayer:
			return true
		case *nn.Sequential:
			for _, c := range v.Layers {
				if leftover(c) {
					return true
				}
			}
		case *nn.Residual:
			return leftover(v.Inner)
		}
		return false
	}
	for i, n := range nets {
		if leftover(n.Body) || leftover(n.Head) {
			t.Errorf("network %d still holds decorators after undo", i)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: every metric the command emits is
// listed in BENCHMARK.json with the same unit, and every listed metric is
// emitted, for every workload, traced and untraced.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	listed := func(trace bool) map[string]string {
		out := make(map[string]string)
		entries := spec.EndToEnd
		if trace {
			entries = spec.PerLayer
		}
		for _, e := range entries {
			out[e.Name] = e.Unit
		}
		return out
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	sort.Strings(names)
	sort.Strings(defined)
	if !reflect.DeepEqual(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, defined)
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 3, trace: trace, size: tinySize, seqLen: 2, minRounds: 1, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := listed(trace)
			got := make(map[string]string, len(res.Metrics))
			for name, v := range res.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
		}
	}
}

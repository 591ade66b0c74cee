package transport

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// seedCorpus returns valid encoded round messages so the fuzzer starts from
// structurally plausible gob streams.
func seedCorpus(t testing.TB) [][]byte {
	t.Helper()
	rs := RoundStart{
		Round:     2,
		HasGlobal: true,
		Global:    WirePayload{Params: []float64{1, 2, 3}},
	}
	ru := RoundUpload{
		Round: 2, Client: 1,
		HasPayload: true,
		Payload: WirePayload{
			HasLogits: true,
			Rows:      2, Cols: 3,
			Logits:          []float64{1, 2, 3, 4, 5, 6},
			HasProtos:       true,
			ProtoNumClasses: 3,
			ProtoClasses:    []int32{0, 2},
			ProtoCounts:     []int32{5, 7},
			ProtoDim:        2,
			ProtoValues:     []float64{0.1, 0.2, 0.3, 0.4},
			NumSamples:      10,
		},
	}
	re := RoundEnd{
		Round:        3,
		HasBroadcast: true,
		Broadcast: WirePayload{
			HasLogits: true,
			Rows:      2, Cols: 3,
			Logits:  []float64{1, 2, 3, 4, 5, 6},
			Indices: []int32{0, 4},
		},
	}
	// Coded variants: the same knowledge shapes under the compressing
	// codecs, so the fuzzer starts from valid packed sections too.
	logits := tensor.New(2, 3)
	copy(logits.Data, []float64{1, 2, 3, 4, 5, 6})
	protos := proto.NewSet(3, 2)
	protos.Vectors[0] = []float64{0.1, 0.2}
	protos.Counts[0] = 5
	protos.Vectors[2] = []float64{0.3, 0.4}
	protos.Counts[2] = 7
	up := &engine.Payload{Logits: logits, Protos: protos, NumSamples: 10}
	params := &engine.Payload{Params: []float64{1, 2, 3}}
	ref := []float64{0.5, 1.5, 2.5}

	var coded []any
	for _, c := range []comm.Codec{comm.CodecFloat32, comm.CodecInt8} {
		wUp, err := PayloadToWireIn(up, c, nil)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v): %v", c, err)
		}
		coded = append(coded, RoundUpload{Round: 2, Client: 1, HasPayload: true, Payload: wUp})
		wDelta, err := PayloadToWireIn(params, c, ref)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v, delta): %v", c, err)
		}
		coded = append(coded, RoundUpload{Round: 2, Client: 2, HasPayload: true, Payload: wDelta})
		wGlobal, err := PayloadToWireIn(params, c, nil)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v, global): %v", c, err)
		}
		coded = append(coded, RoundStart{Round: 2, HasGlobal: true, Global: wGlobal, Codec: uint8(c)})
		coded = append(coded, RoundEnd{Round: 2, HasBroadcast: true, Broadcast: wUp, Codec: uint8(c)})
	}

	var out [][]byte
	for _, v := range append([]any{rs, ru, re}, coded...) {
		b, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode(%T): %v", v, err)
		}
		out = append(out, b)
	}
	return out
}

// checkReconstruct rebuilds an engine.Payload from a validated wire
// payload. The only error a validated payload may produce is the named
// delta-without-reference rejection: the decoder cannot know the round's
// reference vector, but it must fail that case cleanly, never panic or
// fabricate values.
func checkReconstruct(t *testing.T, kind string, w *WirePayload) {
	t.Helper()
	if _, err := w.ToPayload(); err != nil && !errors.Is(err, comm.ErrSectionRef) {
		t.Fatalf("validated %s failed reconstruction: %v", kind, err)
	}
}

// checkReencode pins the canonical-encoding invariant on a validated
// message: re-encoding the decoded value is a gob fixed point — one
// normalization pass, then bytes are stable. (Arbitrary fuzzed bytes may be
// a non-canonical gob stream for the same value, so the invariant is
// phrased on the re-encoded form; envelopes our own encoder produced
// satisfy it immediately.)
func checkReencode[T any](t *testing.T, v T) {
	t.Helper()
	enc1, err := Encode(v)
	if err != nil {
		t.Fatalf("re-encode %T: %v", v, err)
	}
	var v2 T
	if err := Decode(enc1, &v2); err != nil {
		t.Fatalf("decode of re-encoded %T: %v", v, err)
	}
	if !bitEqual(v, v2) {
		t.Fatalf("re-encode round-trip changed %T: %+v vs %+v", v, v, v2)
	}
	enc2, err := Encode(v2)
	if err != nil {
		t.Fatalf("second encode %T: %v", v, err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("%T does not re-encode to identical bytes", v)
	}
}

// digestSeeds returns encoded shard digests (exact and compact mode). They
// are registered inline rather than checked in, so the checked-in corpus
// stays the round messages TestFuzzSeedCorpusFiles pins.
func digestSeeds(t testing.TB) [][]byte {
	t.Helper()
	digests := []ShardDigest{
		{Round: 2, Shard: 1, Heard: 2, Missing: []int{5}, Uploads: []ShardUpload{
			{Client: 3, Payload: WirePayload{Params: []float64{1, -2, 0.5}, NumSamples: 4}},
			{Client: 4, Payload: WirePayload{HasLogits: true, Rows: 1, Cols: 2, Logits: []float64{0.25, 8}}},
		}},
		{Round: 2, Shard: 1, HasSum: true, Sum: WirePayload{Params: []float64{3, 4}}, Weight: 2.5, Count: 2, Heard: 2},
	}
	var out [][]byte
	for _, d := range digests {
		b, err := Encode(d)
		if err != nil {
			t.Fatalf("Encode(ShardDigest): %v", err)
		}
		out = append(out, b)
	}
	return out
}

// checkExactDecode is the differential half of FuzzDecode: any input the
// exact decoder accepts, gob accepts too and decodes to the same value, and
// it is the exact encoder's output for that value (canonical form is a
// fixed point).
func checkExactDecode[T any](t *testing.T, data []byte) {
	t.Helper()
	var exact, ref T
	if !decodeExact(data, &exact) {
		return
	}
	if err := gobDecode(data, &ref); err != nil {
		t.Fatalf("exact decoder accepted a %T gob rejects: %v", exact, err)
	}
	if !bitEqual(exact, ref) {
		t.Fatalf("exact decode of %T differs from gob's:\n%+v\n%+v", exact, exact, ref)
	}
	enc, err := Encode(exact)
	if err != nil || !bytes.Equal(enc, data) {
		t.Fatalf("accepted %T input is not its canonical encoding (err %v)", exact, err)
	}
}

// FuzzDecode feeds arbitrary bytes through Decode + Validate for every
// message type that carries a WirePayload. Malformed input must surface as
// an error, never a panic; any payload that passes Validate must survive
// reconstruction into an engine.Payload (packed sections included); every
// validated message re-encodes to identical bytes once in canonical form;
// and whatever the exact decoder accepts, gob accepts with the same value.
func FuzzDecode(f *testing.F) {
	for _, b := range seedCorpus(f) {
		f.Add(b)
	}
	for _, b := range digestSeeds(f) {
		f.Add(b)
	}
	for _, b := range badCountInputs(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte(strings.Repeat("\xff", 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExactDecode[RoundStart](t, data)
		checkExactDecode[RoundUpload](t, data)
		checkExactDecode[RoundEnd](t, data)
		checkExactDecode[ShardDigest](t, data)
		var rs RoundStart
		if err := Decode(data, &rs); err == nil {
			if err := rs.Validate(); err == nil {
				if rs.HasGlobal {
					checkReconstruct(t, "RoundStart", &rs.Global)
				}
				checkReencode(t, rs)
			}
		}
		var ru RoundUpload
		if err := Decode(data, &ru); err == nil {
			if err := ru.Validate(); err == nil {
				if ru.HasPayload {
					checkReconstruct(t, "RoundUpload", &ru.Payload)
				}
				checkReencode(t, ru)
			}
		}
		var re RoundEnd
		if err := Decode(data, &re); err == nil {
			if err := re.Validate(); err == nil {
				if re.HasBroadcast {
					checkReconstruct(t, "RoundEnd", &re.Broadcast)
				}
				checkReencode(t, re)
			}
		}
		var sd ShardDigest
		if err := Decode(data, &sd); err == nil {
			if err := sd.Validate(); err == nil {
				for i := range sd.Uploads {
					checkReconstruct(t, "ShardDigest upload", &sd.Uploads[i].Payload)
				}
				if sd.HasSum {
					checkReconstruct(t, "ShardDigest sum", &sd.Sum)
				}
				checkReencode(t, sd)
			}
		}
	})
}

func TestDecodeRoundTrip(t *testing.T) {
	seeds := seedCorpus(t)

	var rs RoundStart
	if err := Decode(seeds[0], &rs); err != nil {
		t.Fatalf("decode RoundStart: %v", err)
	}
	if err := rs.Validate(); err != nil {
		t.Fatalf("valid RoundStart rejected: %v", err)
	}
	if rs.Round != 2 || !rs.HasGlobal || len(rs.Global.Params) != 3 {
		t.Fatalf("round-trip mangled RoundStart: %+v", rs)
	}

	var ru RoundUpload
	if err := Decode(seeds[1], &ru); err != nil {
		t.Fatalf("decode RoundUpload: %v", err)
	}
	if err := ru.Validate(); err != nil {
		t.Fatalf("valid RoundUpload rejected: %v", err)
	}
	if ru.Client != 1 || ru.Payload.Rows != 2 || len(ru.Payload.Logits) != 6 {
		t.Fatalf("round-trip mangled RoundUpload: %+v", ru)
	}

	var re RoundEnd
	if err := Decode(seeds[2], &re); err != nil {
		t.Fatalf("decode RoundEnd: %v", err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("valid RoundEnd rejected: %v", err)
	}
}

// codedPayload is the engine payload behind codedWire.
func codedPayload() *engine.Payload {
	logits := tensor.New(2, 3)
	copy(logits.Data, []float64{1, 2, 3, 4, 5, 6})
	protos := proto.NewSet(3, 2)
	protos.Vectors[1] = []float64{0.5, -0.5}
	protos.Counts[1] = 4
	return &engine.Payload{Logits: logits, Protos: protos, Params: []float64{1, 2, 3}, NumSamples: 9}
}

// codedWire builds a valid int8-coded wire payload and applies an optional
// corruption before returning it.
func codedWire(corrupt func(*WirePayload)) *WirePayload {
	w, err := PayloadToWireIn(codedPayload(), comm.CodecInt8, nil)
	if err != nil {
		panic(err)
	}
	if corrupt != nil {
		corrupt(&w)
	}
	return &w
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"negative round", func() error {
			return (&RoundStart{Round: -1}).Validate()
		}},
		{"negative client id", func() error {
			return (&RoundUpload{Client: -1}).Validate()
		}},
		{"logit count mismatch", func() error {
			return (&WirePayload{HasLogits: true, Rows: 2, Cols: 2, Logits: []float64{1}}).Validate()
		}},
		{"overflowing dims", func() error {
			// 2^30+1 rows is out of range; the range check must reject it
			// before any multiplication.
			return (&WirePayload{HasLogits: true, Rows: maxWireDim + 1, Cols: 1}).Validate()
		}},
		{"huge product", func() error {
			return (&WirePayload{HasLogits: true, Rows: maxWireDim, Cols: maxWireDim}).Validate()
		}},
		{"orphan logits", func() error {
			return (&WirePayload{Logits: []float64{1, 2}}).Validate()
		}},
		{"negative sample index", func() error {
			return (&WirePayload{Indices: []int32{-3}}).Validate()
		}},
		{"proto class/count mismatch", func() error {
			return (&WirePayload{HasProtos: true, ProtoClasses: []int32{0}, ProtoCounts: nil}).Validate()
		}},
		{"negative proto dim", func() error {
			return (&WirePayload{HasProtos: true, ProtoDim: -4}).Validate()
		}},
		{"negative proto class", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{-1}, ProtoCounts: []int32{1}}).Validate()
		}},
		{"negative proto count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{1}, ProtoCounts: []int32{-2}}).Validate()
		}},
		{"proto value length mismatch", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{0}, ProtoCounts: []int32{1}, ProtoDim: 3, ProtoValues: []float64{1}}).Validate()
		}},
		{"proto class beyond class count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{5}, ProtoCounts: []int32{1}, ProtoDim: 1, ProtoValues: []float64{1}}).Validate()
		}},
		{"negative proto class count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: -1}).Validate()
		}},
		{"orphan proto values", func() error {
			return (&WirePayload{ProtoValues: []float64{1}}).Validate()
		}},
		{"negative counted params", func() error {
			return (&WirePayload{ParamsCounted: -1}).Validate()
		}},
		{"negative num samples", func() error {
			return (&WirePayload{NumSamples: -1}).Validate()
		}},
		{"nested bad payload in upload", func() error {
			return (&RoundUpload{HasPayload: true, Payload: WirePayload{NumSamples: -1}}).Validate()
		}},
		{"nested bad payload in round end", func() error {
			return (&RoundEnd{HasBroadcast: true, Broadcast: WirePayload{HasLogits: true, Rows: 1, Cols: 1}}).Validate()
		}},
		{"nested bad payload in round start", func() error {
			return (&RoundStart{HasGlobal: true, Global: WirePayload{Indices: []int32{-1}}}).Validate()
		}},
		{"unknown payload codec", func() error {
			return (&WirePayload{Codec: 99}).Validate()
		}},
		{"packed section under raw codec", func() error {
			return (&WirePayload{LogitsEnc: []byte{1, 2, 3, 4, 5}}).Validate()
		}},
		{"raw logits under compressing codec", func() error {
			w := codedWire(nil)
			w.Logits = []float64{1, 2, 3, 4, 5, 6}
			return w.Validate()
		}},
		{"truncated packed logits", func() error {
			w := codedWire(nil)
			w.LogitsEnc = w.LogitsEnc[:len(w.LogitsEnc)-1]
			return w.Validate()
		}},
		{"bit-flipped packed logits", func() error {
			w := codedWire(func(w *WirePayload) { w.LogitsEnc[len(w.LogitsEnc)-1] ^= 0x10 })
			return w.Validate()
		}},
		{"bit-flipped packed protos", func() error {
			w := codedWire(func(w *WirePayload) { w.ProtosEnc[len(w.ProtosEnc)-1] ^= 0x01 })
			return w.Validate()
		}},
		{"wrong section tag for codec", func() error {
			// A float32 logits section inside an int8 payload: well-formed
			// bytes, wrong encoding for the negotiated codec.
			w := codedWire(nil)
			f32, err := PayloadToWireIn(codedPayload(), comm.CodecFloat32, nil)
			if err != nil {
				return nil
			}
			w.LogitsEnc = f32.LogitsEnc
			return w.Validate()
		}},
		{"packed params length mismatch", func() error {
			w := codedWire(func(w *WirePayload) { w.ParamsN++ })
			return w.Validate()
		}},
		{"negative packed params length", func() error {
			w := codedWire(func(w *WirePayload) { w.ParamsN = -1 })
			return w.Validate()
		}},
		{"raw and packed params together", func() error {
			w := codedWire(func(w *WirePayload) { w.Params = []float64{1, 2, 3} })
			return w.Validate()
		}},
		{"orphan packed proto section", func() error {
			w := codedWire(nil)
			w.HasProtos = false
			w.ProtoClasses, w.ProtoCounts = nil, nil
			return w.Validate()
		}},
		{"codec mismatch between round start and global", func() error {
			w := codedWire(nil)
			return (&RoundStart{HasGlobal: true, Global: *w, Codec: uint8(comm.CodecFloat32)}).Validate()
		}},
		{"unknown round start codec", func() error {
			return (&RoundStart{Codec: 42}).Validate()
		}},
		{"unknown round end codec", func() error {
			return (&RoundEnd{Codec: 42}).Validate()
		}},
		{"codec mismatch between round end and broadcast", func() error {
			w := codedWire(nil)
			return (&RoundEnd{HasBroadcast: true, Broadcast: *w, Codec: uint8(comm.CodecFloat64)}).Validate()
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); err == nil {
			t.Errorf("%s: Validate accepted malformed payload", tc.name)
		}
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// fuzzCorpusEntries is the full checked-in seed set for FuzzDecode: every
// encoded round message seedCorpus produces, plus the raw byte edge cases
// the fuzz target registers inline.
func fuzzCorpusEntries(t testing.TB) [][]byte {
	t.Helper()
	entries := seedCorpus(t)
	entries = append(entries, []byte{}, []byte{0x00}, []byte(strings.Repeat("\xff", 64)))
	return entries
}

// TestFuzzSeedCorpusFiles pins the checked-in corpus under
// testdata/fuzz/FuzzDecode to the live encoder, so `go test` replays valid
// gob streams for every round message type even without -fuzz, and a wire
// struct change shows up as a stale corpus instead of silently fuzzing
// yesterday's format. Regenerate with -update-corpus.
func TestFuzzSeedCorpusFiles(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries := fuzzCorpusEntries(t)
	render := func(b []byte) string {
		return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
	}
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, b := range entries {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(path, []byte(render(b)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for i, b := range entries {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing corpus file (regenerate with -update-corpus): %v", err)
		}
		if string(got) != render(b) {
			t.Errorf("corpus file %s is stale (regenerate with -update-corpus)", path)
		}
	}
}

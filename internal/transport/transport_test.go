package transport

import (
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	in := RoundUpload{
		Client:     3,
		Round:      7,
		HasPayload: true,
		Payload: WirePayload{
			HasLogits: true,
			Rows:      2, Cols: 3,
			Logits: []float64{1, 2, 3, 4, 5, 6},
		},
	}
	payload, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RoundUpload
	if err := Decode(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Client != 3 || out.Round != 7 || len(out.Payload.Logits) != 6 || out.Payload.Logits[5] != 6 {
		t.Errorf("roundtrip = %+v", out)
	}
}

func TestBusDelivery(t *testing.T) {
	bus := NewBus(2, 4)
	defer bus.Close()
	server := bus.ServerConn()
	c0 := bus.ClientConn(0)
	c1 := bus.ClientConn(1)

	if err := c0.Send(&Envelope{Kind: KindUpload, From: 0, To: -1, Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(&Envelope{Kind: KindUpload, From: 1, To: -1, Round: 1}); err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		e, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got[e.From] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("server received from %v", got)
	}

	if err := server.Send(&Envelope{Kind: KindRoundEnd, From: -1, To: 1, Round: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := c1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindRoundEnd {
		t.Errorf("client received kind %v", e.Kind)
	}
}

func TestBusCloseUnblocksRecv(t *testing.T) {
	bus := NewBus(1, 0)
	c := bus.ClientConn(0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	bus.Close()
	if err := <-done; err != io.EOF {
		t.Errorf("Recv after close = %v, want EOF", err)
	}
	if err := c.Send(&Envelope{}); err == nil {
		t.Error("Send on closed bus should fail")
	}
}

func TestBusBadClientPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ClientConn out of range should panic")
		}
	}()
	NewBus(1, 0).ClientConn(5)
}

func TestServerSendToUnknownClientErrors(t *testing.T) {
	bus := NewBus(1, 0)
	defer bus.Close()
	if err := bus.ServerConn().Send(&Envelope{To: 9}); err == nil {
		t.Error("server send to unknown client should error")
	}
}

func TestTCPRoundtrip(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := srv.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		e, err := conn.Recv()
		if err != nil {
			serverErr = err
			return
		}
		e.To, e.From = e.From, e.To // echo back
		serverErr = conn.Send(e)
	}()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload, err := Encode(RoundUpload{Client: 1, HasPayload: true, Payload: WirePayload{Params: []float64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	out := &Envelope{Kind: KindUpload, From: 1, To: -1, Round: 5, Payload: payload}
	if err := client.Send(out); err != nil {
		t.Fatal(err)
	}
	in, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	if in.Kind != KindUpload || in.From != -1 || in.To != 1 || in.Round != 5 {
		t.Errorf("echoed envelope = %+v", in)
	}
	var ru RoundUpload
	if err := Decode(in.Payload, &ru); err != nil {
		t.Fatal(err)
	}
	if ru.Client != 1 || len(ru.Payload.Params) != 3 {
		t.Errorf("decoded = %+v", ru)
	}
}

func TestTCPEOFOnClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		conn, err := srv.Accept()
		if err != nil {
			return
		}
		conn.Close()
	}()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Recv(); err != io.EOF {
		t.Errorf("Recv after peer close = %v, want EOF", err)
	}
}

func TestWireSizeMatchesHeader(t *testing.T) {
	e := &Envelope{Payload: make([]byte, 100)}
	if got := e.WireSize(); got != 117 {
		t.Errorf("WireSize = %d, want 117", got)
	}
}

// testPayload builds the knowledge payload the roundtrip tests share:
// logits, a sparse prototype set, indices, params, and metadata.
func testPayload() *engine.Payload {
	rng := stats.NewRNG(1)
	logits := tensor.Randn(rng, 3, 4, 1)
	protos := proto.NewSet(5, 3)
	protos.Vectors[1] = []float64{1, 2, 3}
	protos.Counts[1] = 4
	protos.Vectors[4] = []float64{-1, 0, 1}
	protos.Counts[4] = 9
	return &engine.Payload{
		Logits:     logits,
		Indices:    []int{0, 7, 2},
		Protos:     protos,
		Params:     []float64{0.5, -0.25},
		NumSamples: 11,
	}
}

// TestPayloadWireRoundtripFloat64Raw pins the default codec's contract:
// float64 on the wire, the roundtrip is exact — which is what makes
// distributed histories bit-identical to in-process runs. The compressing
// codecs are lossy by design and have their own roundtrip contracts below.
func TestPayloadWireRoundtripFloat64Raw(t *testing.T) {
	in := testPayload()
	logits := in.Logits

	w := PayloadToWire(in)
	back, err := w.ToPayload()
	if err != nil {
		t.Fatal(err)
	}
	if !logits.Equal(back.Logits, 0) {
		t.Error("logits roundtrip not exact")
	}
	if len(back.Indices) != 3 || back.Indices[1] != 7 {
		t.Errorf("indices roundtrip = %v", back.Indices)
	}
	if back.Protos.Len() != 2 || !back.Protos.Has(1) || !back.Protos.Has(4) {
		t.Fatalf("roundtrip set = %+v", back.Protos)
	}
	if back.Protos.Counts[4] != 9 || back.Protos.Vectors[1][2] != 3 {
		t.Errorf("roundtrip proto values wrong: %+v", back.Protos)
	}
	if len(back.Params) != 2 || back.Params[1] != -0.25 || back.NumSamples != 11 {
		t.Errorf("params/meta roundtrip = %+v", back)
	}
	// The analytic wire cost must survive serialization unchanged: both
	// sides of a distributed run account the same bytes.
	if in.WireBytes() != back.WireBytes() {
		t.Errorf("WireBytes drifted across the wire: %d vs %d", in.WireBytes(), back.WireBytes())
	}

	if got := PayloadToWire(nil); got.HasLogits || got.HasProtos || len(got.Params) != 0 {
		t.Errorf("nil payload serialized to %+v", got)
	}
}

// TestPayloadValidateRejectsNonFinite pins the float64raw finiteness check:
// a NaN or ±Inf in any raw value section (logits, local logits, prototypes,
// params) fails Validate with ErrNonFinite, on uploads, round starts and
// round ends alike, while the clean payload passes.
func TestPayloadValidateRejectsNonFinite(t *testing.T) {
	clean := PayloadToWire(testPayload())
	if err := clean.Validate(); err != nil {
		t.Fatalf("clean payload: %v", err)
	}
	poison := map[string]func(w *WirePayload, v float64){
		"logits":       func(w *WirePayload, v float64) { w.Logits[1] = v },
		"local-logits": func(w *WirePayload, v float64) { w.LogitsLocal = true; w.Logits[0] = v },
		"protos":       func(w *WirePayload, v float64) { w.ProtoValues[2] = v },
		"params":       func(w *WirePayload, v float64) { w.Params[0] = v },
	}
	for name, set := range poison {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			w := PayloadToWire(testPayload())
			set(&w, v)
			if err := w.Validate(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s=%v: Validate = %v, want ErrNonFinite", name, v, err)
			}
			if _, err := w.ToPayload(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s=%v: ToPayload = %v, want ErrNonFinite", name, v, err)
			}
			up := RoundUpload{Round: 1, Client: 2, HasPayload: true, Payload: w}
			if err := up.Validate(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s=%v: upload Validate = %v, want ErrNonFinite", name, v, err)
			}
			start := RoundStart{Round: 1, HasGlobal: true, Global: w}
			if err := start.Validate(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s=%v: start Validate = %v, want ErrNonFinite", name, v, err)
			}
			end := RoundEnd{Round: 1, HasBroadcast: true, Broadcast: w}
			if err := end.Validate(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s=%v: end Validate = %v, want ErrNonFinite", name, v, err)
			}
		}
	}
}

// TestPayloadWireRoundtripCoded pins the compressing codecs' contract: the
// wire roundtrip reproduces engine.Payload.ApplyCodec bit for bit — the
// transport and the in-process engine run the same encode/decode, so a
// distributed run under a codec matches its in-process twin exactly — and
// re-applying the roundtrip is a fixed point (quantization happens once).
func TestPayloadWireRoundtripCoded(t *testing.T) {
	for _, c := range []comm.Codec{comm.CodecFloat32, comm.CodecInt8} {
		t.Run(c.String(), func(t *testing.T) {
			in := testPayload()
			ref := []float64{0.5009765625, -0.25} // close to params: small deltas
			want := in.ApplyCodec(c, ref)

			w, err := PayloadToWireIn(in, c, ref)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Logits) != 0 || len(w.ProtoValues) != 0 || len(w.Params) != 0 {
				t.Fatalf("raw value slices populated under codec %s", c)
			}
			back, err := w.ToPayloadRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Logits.Equal(back.Logits, 0) {
				t.Error("wire logits differ from ApplyCodec")
			}
			for _, class := range []int{1, 4} {
				for j := range want.Protos.Vectors[class] {
					if want.Protos.Vectors[class][j] != back.Protos.Vectors[class][j] {
						t.Errorf("proto class %d dim %d: wire %v vs ApplyCodec %v",
							class, j, back.Protos.Vectors[class][j], want.Protos.Vectors[class][j])
					}
				}
			}
			if len(back.Params) != 2 || back.Params[0] != want.Params[0] || back.Params[1] != want.Params[1] {
				t.Errorf("wire params %v differ from ApplyCodec %v", back.Params, want.Params)
			}
			if back.NumSamples != 11 || len(back.Indices) != 3 {
				t.Errorf("metadata mangled: %+v", back)
			}

			// Quantization is a fixed point: shipping the received payload
			// again changes nothing.
			w2, err := PayloadToWireIn(back, c, ref)
			if err != nil {
				t.Fatal(err)
			}
			again, err := w2.ToPayloadRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Logits.Equal(again.Logits, 0) {
				t.Error("second roundtrip moved logits")
			}

			// Pricing: WireBytesIn is exactly the packed section bytes plus
			// the 4-byte-per-entry index block — ledger totals are real wire
			// payload bytes, with zero slack.
			wirePriced := in.WireBytesIn(c)
			packed := len(w.LogitsEnc) + len(w.ProtosEnc) + len(w.ParamsEnc) + 4*len(w.Indices)
			if wirePriced != packed {
				t.Errorf("WireBytesIn(%s) = %d, packed sections total %d", c, wirePriced, packed)
			}
			// And the compressing codecs actually compress vs the raw pricing.
			if wirePriced >= in.WireBytes()*2 {
				t.Errorf("codec %s priced %d vs raw %d", c, wirePriced, in.WireBytes())
			}
		})
	}
}

// TestPayloadWireDeltaParamsNeedRef pins the delta discipline: an upload's
// params section decodes only against the round's reference vector, and
// decoding without it is a named error, never silent damage.
func TestPayloadWireDeltaParamsNeedRef(t *testing.T) {
	in := &engine.Payload{Params: []float64{1.5, 2.5, -3}, NumSamples: 2}
	ref := []float64{1, 2, -2.5}
	w, err := PayloadToWireIn(in, comm.CodecInt8, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ToPayload(); !errors.Is(err, comm.ErrSectionRef) {
		t.Errorf("delta decode without ref = %v, want ErrSectionRef", err)
	}
	if _, err := w.ToPayloadRef(ref[:2]); !errors.Is(err, comm.ErrSectionRef) {
		t.Errorf("delta decode with short ref = %v, want ErrSectionRef", err)
	}
	back, err := w.ToPayloadRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := in.ApplyCodec(comm.CodecInt8, ref)
	for i := range want.Params {
		if back.Params[i] != want.Params[i] {
			t.Errorf("delta params [%d] = %v, want %v", i, back.Params[i], want.Params[i])
		}
	}

	// Without a reference the sender falls back to plain float32, which
	// decodes ref-free.
	w2, err := PayloadToWireIn(in, comm.CodecInt8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.ToPayload(); err != nil {
		t.Errorf("ref-free params decode failed: %v", err)
	}
}

// TestPayloadWireLogitsLocalStayRaw: receiver-recomputable logits are free
// on the wire and must not be quantized by any codec.
func TestPayloadWireLogitsLocalStayRaw(t *testing.T) {
	rng := stats.NewRNG(3)
	in := &engine.Payload{
		Logits:      tensor.Randn(rng, 2, 5, 1),
		LogitsLocal: true,
		Params:      []float64{0.125, -2},
	}
	w, err := PayloadToWireIn(in, comm.CodecInt8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.LogitsEnc) != 0 || len(w.Logits) != 10 {
		t.Fatalf("LogitsLocal block was packed: %+v", w)
	}
	back, err := w.ToPayload()
	if err != nil {
		t.Fatal(err)
	}
	if !in.Logits.Equal(back.Logits, 0) {
		t.Error("LogitsLocal roundtrip not exact")
	}
	if !back.LogitsLocal {
		t.Error("LogitsLocal flag lost")
	}
}

func TestKindString(t *testing.T) {
	if KindRoundStart.String() != "round-start" || KindUpload.String() != "upload" ||
		KindRoundEnd.String() != "round-end" || Kind(99).String() == "" {
		t.Error("Kind.String broken")
	}
}

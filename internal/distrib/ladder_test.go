package distrib

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/transport"
)

// TestChaosLadderRows feeds every violation row of the one upload ladder
// through collectUploads, for a synchronous dispatch (one shared delta
// reference) and an async dispatch (per-member references), in both
// dispositions: strict mode must end the round with the row's named error,
// tolerant mode must move exactly the row's counter, drop the envelope, and
// still hear from every member.
func TestChaosLadderRows(t *testing.T) {
	env := chaosEnv(t)
	runner, err := engine.Of(chaosFedAvg(t, env))
	if err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	ref := []float64{0.25, -0.5, 1.5}

	upload := func(from int, ru transport.RoundUpload) *transport.Envelope {
		t.Helper()
		payload, err := transport.Encode(ru)
		if err != nil {
			t.Fatal(err)
		}
		return &transport.Envelope{Kind: transport.KindUpload, From: from, To: -1, Round: round, Payload: payload}
	}
	valid := func(c int) *transport.Envelope { return upload(c, transport.RoundUpload{Round: round, Client: c}) }
	withPayload := func(c int, w transport.WirePayload) *transport.Envelope {
		return upload(c, transport.RoundUpload{Round: round, Client: c, HasPayload: true, Payload: w})
	}
	deltaParams, err := transport.PayloadToWireIn(&engine.Payload{Params: []float64{1, 2, 3}}, comm.CodecInt8, ref)
	if err != nil {
		t.Fatal(err)
	}

	// Universe 3, dispatch members {0, 1}; client 2 is registered but not
	// dispatched unless a row's registry leaves it out.
	members := []int{0, 1}
	dispatches := map[string]*transport.ShardAssign{
		"sync": {Round: round, Clients: []transport.ClientStart{{Client: 0}, {Client: 1}}},
		"async": {Round: round, Flush: true, Clients: []transport.ClientStart{
			{Client: 0}, {Client: 1, Ref: ref}}},
	}

	type row struct {
		name    string
		codec   comm.Codec
		reg     []int // registered population; nil registers everyone
		send    []*transport.Envelope
		heard   []int // members the row's own envelopes already delivered
		counter string
		want    error // named strict-mode error; nil accepts any error
	}
	wrongKind := valid(0)
	wrongKind.Kind = transport.KindRoundEnd
	staleEnv := valid(0)
	staleEnv.Round = round + 3
	outOfRange := valid(0)
	outOfRange.From = 5
	garbage := valid(0)
	garbage.Payload = []byte{0xde, 0xad, 0xbe, 0xef}
	rows := []row{
		{name: "wrong-kind", send: []*transport.Envelope{wrongKind}, counter: "stale", want: ErrStaleEnvelope},
		{name: "envelope-round", send: []*transport.Envelope{staleEnv}, counter: "stale", want: ErrStaleEnvelope},
		{name: "sender-out-of-range", send: []*transport.Envelope{outOfRange}, counter: "stale", want: ErrPeerMismatch},
		{name: "unregistered", reg: []int{0, 1}, send: []*transport.Envelope{valid(2)}, counter: "unknown", want: ErrUnknownClient},
		{name: "decode", send: []*transport.Envelope{garbage}, counter: "corrupt"},
		{name: "validate", send: []*transport.Envelope{withPayload(0, transport.WirePayload{NumSamples: -1})}, counter: "corrupt"},
		{name: "non-finite", send: []*transport.Envelope{withPayload(0, transport.WirePayload{Params: []float64{1, math.NaN()}})},
			counter: "corrupt", want: transport.ErrNonFinite},
		{name: "codec-mismatch", codec: comm.CodecInt8, send: []*transport.Envelope{withPayload(0, transport.WirePayload{Params: []float64{1}})},
			counter: "corrupt", want: ErrCodecMismatch},
		{name: "client-out-of-range", send: []*transport.Envelope{upload(0, transport.RoundUpload{Round: round, Client: 9})},
			counter: "corrupt", want: ErrPeerMismatch},
		{name: "peer-mismatch", send: []*transport.Envelope{upload(0, transport.RoundUpload{Round: round, Client: 1})},
			counter: "corrupt", want: ErrPeerMismatch},
		{name: "out-of-set", send: []*transport.Envelope{valid(2)}, counter: "corrupt", want: ErrStaleEnvelope},
		{name: "payload-round", send: []*transport.Envelope{upload(0, transport.RoundUpload{Round: round + 1, Client: 0})},
			counter: "stale", want: ErrStaleEnvelope},
		{name: "duplicate", send: []*transport.Envelope{valid(0), valid(0)}, heard: []int{0}, counter: "dup", want: ErrDuplicateUpload},
		{name: "delta-ref", codec: comm.CodecInt8, send: []*transport.Envelope{withPayload(0, deltaParams)},
			heard: []int{0}, counter: "corrupt", want: comm.ErrSectionRef},
	}

	collect := func(t *testing.T, r row, sa *transport.ShardAssign, tolerant bool, extra []*transport.Envelope) (*roundReport, *roundStats, error) {
		t.Helper()
		bus := transport.NewBus(3, 8)
		defer bus.Close()
		rx := newReceiver(bus.ServerConn())
		defer rx.stop()
		for _, e := range append(append([]*transport.Envelope(nil), r.send...), extra...) {
			if err := bus.ClientConn(0).Send(e); err != nil {
				t.Fatal(err)
			}
		}
		reg, err := NewRegistry(3, r.reg)
		if err != nil {
			t.Fatal(err)
		}
		opts := &Options{}
		if tolerant {
			opts.ClientTimeout = 2 * time.Second
		}
		rs := &roundStats{}
		_, report, roundErr, err := collectUploads(runner, rx, sa, reg, opts, r.codec, tolerant, rs, nil)
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		return report, rs, roundErr
	}

	for shape, sa := range dispatches {
		for _, r := range rows {
			t.Run(shape+"/"+r.name+"/strict", func(t *testing.T) {
				_, _, roundErr := collect(t, r, sa, false, nil)
				if roundErr == nil {
					t.Fatal("strict ladder accepted the violation")
				}
				if r.want != nil && !errors.Is(roundErr, r.want) {
					t.Fatalf("roundErr = %v, want %v", roundErr, r.want)
				}
			})
			t.Run(shape+"/"+r.name+"/tolerant", func(t *testing.T) {
				var rest []*transport.Envelope
				for _, c := range members {
					if !containsInt(r.heard, c) {
						rest = append(rest, valid(c))
					}
				}
				report, rs, roundErr := collect(t, r, sa, true, rest)
				if roundErr != nil {
					t.Fatalf("tolerant roundErr = %v", roundErr)
				}
				counters := map[string]*atomic.Int64{"stale": &rs.stale, "unknown": &rs.unknown, "corrupt": &rs.corrupt, "dup": &rs.dup}
				for name, c := range counters {
					want := int64(0)
					if name == r.counter {
						want = 1
					}
					if got := c.Load(); got != want {
						t.Errorf("%s counter = %d, want %d", name, got, want)
					}
				}
				if report.cohort != len(members) || len(report.missing) != 0 {
					t.Errorf("report = %+v, want every member heard", report)
				}
			})
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestChaosLadderPerMemberRef pins the delta-reference shape of the one
// ladder: a member's own Ref (an async flush's retained global) overrides
// the dispatch's shared Ref, so two members delta-coded against different
// globals both decode to their own quantized values.
func TestChaosLadderPerMemberRef(t *testing.T) {
	env := chaosEnv(t)
	runner, err := engine.Of(chaosFedAvg(t, env))
	if err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	shared := []float64{0.25, -0.5, 1.5}
	own := []float64{4, 4, 4}
	sa := &transport.ShardAssign{Round: round, Ref: shared, Clients: []transport.ClientStart{{Client: 0}, {Client: 1, Ref: own}}}

	bus := transport.NewBus(3, 8)
	defer bus.Close()
	rx := newReceiver(bus.ServerConn())
	defer rx.stop()
	want := map[int]*engine.Payload{}
	for c, ref := range map[int][]float64{0: shared, 1: own} {
		up := &engine.Payload{Params: []float64{1, 2, 3}, NumSamples: 5}
		w, err := transport.PayloadToWireIn(up, comm.CodecInt8, ref)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := transport.Encode(transport.RoundUpload{Round: round, Client: c, HasPayload: true, Payload: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.ClientConn(c).Send(&transport.Envelope{Kind: transport.KindUpload, From: c, To: -1, Round: round, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		want[c] = up.ApplyCodec(comm.CodecInt8, ref)
	}
	uploads, _, roundErr, err := collectUploads(runner, rx, sa, fullRegistry(3), &Options{}, comm.CodecInt8, false, &roundStats{}, nil)
	if err != nil || roundErr != nil {
		t.Fatalf("errs = %v, %v", err, roundErr)
	}
	if len(uploads) != 2 || uploads[0].Client != 0 || uploads[1].Client != 1 {
		t.Fatalf("uploads = %+v, want clients 0 and 1 in order", uploads)
	}
	for _, u := range uploads {
		if !reflect.DeepEqual(u.Payload.Params, want[u.Client].Params) {
			t.Errorf("client %d params %v, want %v", u.Client, u.Payload.Params, want[u.Client].Params)
		}
	}
}

// TestChaosClientCountsNonFiniteBroadcast pins the broadcast half of the
// finiteness check: a RoundEnd whose raw broadcast carries a NaN is a
// corrupt close — counted and skipped by a tolerant client (no digest of
// poisoned values), the named transport error for a strict one.
func TestChaosClientCountsNonFiniteBroadcast(t *testing.T) {
	env := chaosEnv(t)
	runner, err := engine.Of(chaosFedAvg(t, env))
	if err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	payload, err := transport.Encode(transport.RoundEnd{Round: round, HasBroadcast: true,
		Broadcast: transport.WirePayload{Params: []float64{math.Inf(1), 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tolerant := range []bool{true, false} {
		bus := transport.NewBus(3, 8)
		p := &clientPeer{id: 0, conn: faults.Wrap(bus.ClientConn(0), nil, 0, nil)}
		p.rx = newReceiver(p.conn)
		// RoundStart lost in transit: the client goes straight to the close.
		if err := bus.ServerConn().Send(&transport.Envelope{Kind: transport.KindRoundEnd, From: -1, To: 0, Round: round, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		opts := &Options{}
		if tolerant {
			opts.ClientTimeout = time.Second
		}
		rs := &roundStats{}
		err := clientRound(p, round, runner, nil, opts, tolerant, rs)
		switch {
		case tolerant && (err != nil || rs.corrupt.Load() != 1):
			t.Errorf("tolerant: err = %v, corrupt = %d; want nil and 1", err, rs.corrupt.Load())
		case !tolerant && !errors.Is(err, transport.ErrNonFinite):
			t.Errorf("strict: err = %v, want ErrNonFinite", err)
		}
		p.rx.stop()
		bus.Close()
	}
}

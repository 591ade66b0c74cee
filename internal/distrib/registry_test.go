package distrib

import (
	"errors"
	"testing"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/transport"
)

// fullRegistry returns a registry with the whole fleet registered — the
// legacy fixed-cohort population, used wherever a test only cares about the
// validation ladder.
func fullRegistry(n int) *Registry {
	r, err := NewRegistry(n, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// dispatchOf builds a synchronous round's single-shard dispatch for driving
// collectUploads directly: the given members sharing delta reference ref.
func dispatchOf(round int, ref []float64, clients ...int) *transport.ShardAssign {
	sa := &transport.ShardAssign{Round: round, Ref: ref, Clients: make([]transport.ClientStart, len(clients))}
	for i, c := range clients {
		sa.Clients[i].Client = c
	}
	return sa
}

func TestRegistryApplyPending(t *testing.T) {
	reg, err := NewRegistry(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("initial active = %v, want [0 1]", got)
	}

	// Double-register the same client id: idempotent, no transition counted.
	reg.QueueJoin(1)
	reg.QueueJoin(1)
	reg.QueueJoin(2)
	joins, leaves := reg.ApplyPending()
	if joins != 1 || leaves != 0 {
		t.Fatalf("joins, leaves = %d, %d; want 1, 0 (re-registering an active client transitions nothing)", joins, leaves)
	}
	if !reg.Has(2) || reg.Size() != 3 {
		t.Fatalf("after join: Has(2)=%v Size=%d, want true, 3", reg.Has(2), reg.Size())
	}

	// Leave an absent client and a present one.
	reg.QueueLeave(3)
	reg.QueueLeave(0)
	joins, leaves = reg.ApplyPending()
	if joins != 0 || leaves != 1 {
		t.Fatalf("joins, leaves = %d, %d; want 0, 1", joins, leaves)
	}
	if reg.Has(0) || reg.Size() != 2 {
		t.Fatalf("after leave: Has(0)=%v Size=%d, want false, 2", reg.Has(0), reg.Size())
	}

	// A hello and a goodbye queued in the same window resolve to "left".
	reg.QueueJoin(0)
	reg.QueueLeave(0)
	reg.ApplyPending()
	if reg.Has(0) {
		t.Fatal("join+leave in one window should resolve to left")
	}

	// Registrations are barrier-applied, never immediate.
	reg.QueueJoin(3)
	if reg.Has(3) {
		t.Fatal("QueueJoin must not register before ApplyPending")
	}

	// Out-of-range ids are ignored.
	reg.QueueJoin(99)
	reg.QueueLeave(-1)
	if j, l := reg.ApplyPending(); j != 1 || l != 0 {
		t.Fatalf("out-of-range queue leaked transitions: joins=%d leaves=%d", j, l)
	}
}

func TestNewRegistryRejectsOutOfRange(t *testing.T) {
	if _, err := NewRegistry(3, []int{0, 5}); err == nil {
		t.Fatal("want error for out-of-range initial population")
	}
	reg, err := NewRegistry(3, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Size() != 0 {
		t.Fatalf("empty non-nil initial population registered %d clients", reg.Size())
	}
}

// TestUploadFromUnregisteredClient pins the ErrUnknownClient satellite: an
// upload from a peer the registry does not know is a named strict-mode error
// and a counted tolerant-mode drop.
func TestUploadFromUnregisteredClient(t *testing.T) {
	env := chaosEnv(t)
	runner, err := engine.Of(chaosFedAvg(t, env))
	if err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	reg, err := NewRegistry(3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	send := func(conn transport.Conn, from int) {
		t.Helper()
		payload, err := transport.Encode(transport.RoundUpload{Round: round, Client: from})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&transport.Envelope{Kind: transport.KindUpload, From: from, To: -1, Round: round, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("strict", func(t *testing.T) {
		bus := transport.NewBus(3, 6)
		defer bus.Close()
		rx := newReceiver(bus.ServerConn())
		defer rx.stop()
		send(bus.ClientConn(2), 2) // never registered
		_, _, roundErr, err := collectUploads(runner, rx, dispatchOf(round, nil, 0, 1), reg, &Options{}, comm.CodecFloat64, false, &roundStats{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(roundErr, ErrUnknownClient) {
			t.Fatalf("roundErr = %v, want ErrUnknownClient", roundErr)
		}
	})

	t.Run("tolerant", func(t *testing.T) {
		bus := transport.NewBus(3, 6)
		defer bus.Close()
		rx := newReceiver(bus.ServerConn())
		defer rx.stop()
		send(bus.ClientConn(2), 2) // never registered: dropped, counted
		send(bus.ClientConn(0), 0) // valid
		send(bus.ClientConn(1), 1) // valid
		rs := &roundStats{}
		opts := &Options{ClientTimeout: 2 * time.Second}
		uploads, report, roundErr, err := collectUploads(runner, rx, dispatchOf(round, nil, 0, 1), reg, opts, comm.CodecFloat64, true, rs, nil)
		if err != nil || roundErr != nil {
			t.Fatalf("errs = %v, %v", err, roundErr)
		}
		if rs.unknown.Load() != 1 {
			t.Fatalf("unknown counter = %d, want 1", rs.unknown.Load())
		}
		if report.cohort != 2 || len(uploads) != 0 {
			// The test uploads carry no payload, so uploads stays empty; the
			// report still records both cohort members as heard from.
			t.Fatalf("report = %+v uploads = %d, want cohort 2 with 0 payloads", report, len(uploads))
		}
	})
}

// TestRegistrationQueuedMidRound pins the mid-round hello path: a hello
// arriving while a round collects uploads lands in the registry at the next
// barrier, not immediately.
func TestRegistrationQueuedMidRound(t *testing.T) {
	env := chaosEnv(t)
	runner, err := engine.Of(chaosFedAvg(t, env))
	if err != nil {
		t.Fatal(err)
	}
	round := runner.BeginRound()
	reg, err := NewRegistry(3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	bus := transport.NewBus(3, 6)
	defer bus.Close()
	rx := newReceiver(bus.ServerConn())
	defer rx.stop()

	if err := bus.ClientConn(2).Send(&transport.Envelope{Kind: transport.KindHello, From: 2, To: -1, Round: -1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 1} {
		payload, err := transport.Encode(transport.RoundUpload{Round: round, Client: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.ClientConn(c).Send(&transport.Envelope{Kind: transport.KindUpload, From: c, To: -1, Round: round, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	_, report, roundErr, err := collectUploads(runner, rx, dispatchOf(round, nil, 0, 1), reg, &Options{}, comm.CodecFloat64, false, &roundStats{}, nil)
	if err != nil || roundErr != nil {
		t.Fatalf("errs = %v, %v", err, roundErr)
	}
	if report.cohort != 2 {
		t.Fatalf("cohort = %d, want 2", report.cohort)
	}
	if reg.Has(2) {
		t.Fatal("hello applied mid-round; must wait for the barrier")
	}
	if j, _ := reg.ApplyPending(); j != 1 || !reg.Has(2) {
		t.Fatalf("barrier apply: joins=%d Has(2)=%v, want 1, true", j, reg.Has(2))
	}
}

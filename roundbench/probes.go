package main

import (
	"fmt"
	"runtime"
	"time"

	"fedpkd/internal/dataset"
	"fedpkd/internal/distrib"
	"fedpkd/internal/filter"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
	"fedpkd/internal/transport"
)

// Probe timing: each probe repeats its call in probeBatches batches of at
// least probeBatchTime each and reports the median per-call time.
const (
	probeBatches   = 7
	probeBatchTime = 4 * time.Millisecond
)

// timeCall returns fn's median per-call wall time.
func timeCall(fn func()) time.Duration {
	fn() // warm caches and lazily sized buffers
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= probeBatchTime {
			break
		}
		iters *= 2
	}
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return time.Duration(median(per))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rows returns rows [lo, lo+n) of m as a fresh matrix.
func rows(m *tensor.Matrix, lo, n int) *tensor.Matrix {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (lo + i) % m.Rows
	}
	return dataset.GatherRows(m, idx)
}

// probeBatch is the batch size of the training loops' minibatches.
const probeBatch = 32

// runProbes times single public functions of each layer on inputs drawn
// from the restored fixture. It leaves the fixture restored to the snapshot.
func (f *fixture) runProbes(m map[string]float64, span func(name string) func()) error {
	if err := f.restore(); err != nil {
		return err
	}
	defer span("probes")()

	// The workload's client model and one of its private minibatches.
	var net *nn.Network
	if f.pkd != nil {
		net = f.pkd.Clients()[0]
	} else {
		net = f.avg.GlobalModel()
	}
	data := f.env.ClientData[0]
	x := rows(data.X, 0, probeBatch)
	xNext := rows(data.X, probeBatch, probeBatch)
	labels := make([]int, probeBatch)
	for i := range labels {
		labels[i] = data.Labels[i%data.Len()]
	}

	// tensor: the hidden Dense shapes, batch x 48 x 48, on real activations
	// and weights.
	stop := span("probe.tensor")
	feat := net.Features(x)
	featNext := net.Features(xNext)
	var w *tensor.Matrix
	for _, p := range net.Params() {
		if p.Value.Rows == feat.Cols && p.Value.Cols == feat.Cols {
			w = p.Value
			break
		}
	}
	if w == nil {
		return fmt.Errorf("probe: no %dx%d weight in %s", feat.Cols, feat.Cols, net.Name)
	}
	out := tensor.New(feat.Rows, w.Cols)
	outW := tensor.New(feat.Cols, featNext.Cols)
	m["tensor.gemm_nn_us"] = us(timeCall(func() { tensor.MatMulInto(out, feat, w) }))
	m["tensor.gemm_tn_us"] = us(timeCall(func() { tensor.MatMulTNInto(outW, feat, featNext) }))
	m["tensor.gemm_nt_us"] = us(timeCall(func() { tensor.MatMulNTInto(out, featNext, w) }))
	calibRNG := stats.Split(1, 0xca11b)
	ca, cb := tensor.Randn(calibRNG, 64, 64, 1), tensor.Randn(calibRNG, 64, 64, 1)
	cout := tensor.New(64, 64)
	m["tensor.calib_gemm_us"] = us(timeCall(func() { tensor.MatMulInto(cout, ca, cb) }))
	stop()

	// nn: optimizer steps on a copy of the client (and server) model with
	// real gradients, and the losses at minibatch shape.
	stop = span("probe.nn")
	logits := net.Logits(x)
	logitsNext := net.Logits(xNext)
	grad := tensor.New(logits.Rows, logits.Cols)
	m["nn.loss.ce_us"] = us(timeCall(func() { nn.SoftmaxCrossEntropyInto(grad, logits, labels) }))
	m["nn.loss.kl_us"] = us(timeCall(func() { nn.KLDistillInto(grad, logits, logitsNext, 1) }))
	fgrad := tensor.New(feat.Rows, feat.Cols)
	m["nn.loss.mse_us"] = us(timeCall(func() { nn.MSEInto(fgrad, feat, featNext) }))
	step, err := adamStep(net, x, labels)
	if err != nil {
		return err
	}
	m["nn.adam.step_us"] = us(step)
	m["nn.adam.step_server_us"] = 0
	if f.pkd != nil {
		step, err := adamStep(f.pkd.Server(), x, labels)
		if err != nil {
			return err
		}
		m["nn.adam.step_server_us"] = us(step)
	}
	stop()

	// kd, proto, filter: the FedPKD server phases on the fleet's real
	// public-set logits and prototypes.
	for _, k := range []string{"kd.aggregate_variance_us", "kd.pseudolabels_us", "proto.compute_us", "proto.aggregate_us", "filter.select_us"} {
		m[k] = 0
	}
	if f.pkd != nil {
		stop = span("probe.kd_proto_filter")
		public := f.env.Splits.Public.X
		clients := f.pkd.Clients()
		clientLogits := make([]*tensor.Matrix, len(clients))
		sets := make([]*proto.Set, len(clients))
		for c, cn := range clients {
			clientLogits[c] = cn.Logits(public)
			sets[c] = proto.Compute(cn.Features, f.env.ClientData[c])
		}
		aggregated := kd.AggregateVarianceWeighted(clientLogits)
		pseudo := kd.PseudoLabels(aggregated)
		global, err := proto.Aggregate(sets)
		if err != nil {
			return err
		}
		serverFeats := f.pkd.Server().Features(public)
		m["kd.aggregate_variance_us"] = us(timeCall(func() { kd.AggregateVarianceWeighted(clientLogits) }))
		m["kd.pseudolabels_us"] = us(timeCall(func() { kd.PseudoLabels(aggregated) }))
		m["proto.compute_us"] = us(timeCall(func() { proto.Compute(clients[0].Features, f.env.ClientData[0]) }))
		m["proto.aggregate_us"] = us(timeCall(func() { _, _ = proto.Aggregate(sets) }))
		m["filter.select_us"] = us(timeCall(func() { filter.Select(serverFeats, pseudo, global, 0.7) }))
		stop()
	}

	// engine and transport: the round's real uploads and broadcast.
	stop = span("probe.engine_transport")
	defer stop()
	if err := f.restore(); err != nil {
		return err
	}
	hooks := f.runner.Hooks()
	t := f.runner.CurrentRound()
	rc := f.runner.Context(t)
	global := hooks.GlobalState(t)
	n := f.env.Cfg.NumClients
	uploads := make([]engine.Upload, n)
	for c := 0; c < n; c++ {
		p, err := hooks.LocalUpdate(rc, c, global)
		if err != nil {
			return err
		}
		uploads[c] = engine.Upload{Client: c, Payload: p}
	}
	shards := 1
	compact := false
	if f.w.opts != nil && f.w.opts.Topology.Enabled() {
		shards = f.w.opts.Topology.Shards
		compact = f.w.opts.Topology.Compact
	}
	var reduceErr error
	partials := func() []*engine.Partial {
		parts := make([]*engine.Partial, shards)
		for s := range parts {
			if parts[s], reduceErr = f.runner.NewPartial(s, compact); reduceErr != nil {
				return nil
			}
		}
		for _, u := range uploads {
			if reduceErr = f.runner.PartialReduce(parts[distrib.ShardOf(u.Client, n, shards)], u); reduceErr != nil {
				return nil
			}
		}
		return parts
	}
	m["engine.partial_reduce_us"] = us(timeCall(func() { partials() })) / float64(n)
	parts := partials()
	if reduceErr != nil {
		return reduceErr
	}
	var mergeErr error
	if compact {
		m["engine.merge_partials_ms"] = ms(timeCall(func() { _, mergeErr = f.runner.MergeCompact(rc, parts) }))
	} else {
		m["engine.merge_partials_ms"] = ms(timeCall(func() { _, mergeErr = f.runner.MergePartials(parts) }))
	}
	if mergeErr != nil {
		return mergeErr
	}

	bcast, err := hooks.Aggregate(rc, uploads)
	if err != nil {
		return err
	}
	up := transport.RoundUpload{Round: t, Client: 0, HasPayload: true, Payload: transport.PayloadToWire(uploads[0].Payload)}
	end := transport.RoundEnd{Round: t, HasBroadcast: bcast != nil, Broadcast: transport.PayloadToWire(bcast)}
	upBytes, err := transport.Encode(up)
	if err != nil {
		return err
	}
	endBytes, err := transport.Encode(end)
	if err != nil {
		return err
	}
	var codecErr error
	m["transport.encode_upload_us"] = us(timeCall(func() { _, codecErr = transport.Encode(up) }))
	m["transport.encode_end_us"] = us(timeCall(func() { _, codecErr = transport.Encode(end) }))
	m["transport.decode_upload_us"] = us(timeCall(func() {
		var v transport.RoundUpload
		codecErr = transport.Decode(upBytes, &v)
	}))
	m["transport.decode_end_us"] = us(timeCall(func() {
		var v transport.RoundEnd
		codecErr = transport.Decode(endBytes, &v)
	}))
	if codecErr != nil {
		return codecErr
	}
	m["transport.decode_upload_alloc_kb"] = allocPerCall(func() {
		var v transport.RoundUpload
		_ = transport.Decode(upBytes, &v)
	}) / 1024

	upEnv := &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: t, Payload: upBytes}
	endEnv := &transport.Envelope{Kind: transport.KindRoundEnd, From: -1, To: 0, Round: t, Payload: endBytes}
	bus, err := busRoundTrip(upEnv, endEnv)
	if err != nil {
		return err
	}
	m["transport.bus_roundtrip_us"] = us(bus)
	tcp, err := tcpRoundTrip(upEnv, endEnv)
	if err != nil {
		return err
	}
	m["transport.tcp_roundtrip_us"] = us(tcp)
	return f.restore()
}

// adamStep times one Adam step over a copy of net whose gradients come from
// one real minibatch.
func adamStep(net *nn.Network, x *tensor.Matrix, labels []int) (time.Duration, error) {
	cp, err := models.BuildNamed(stats.Split(0, 0), net.Name, x.Cols, net.Logits(x).Cols)
	if err != nil {
		return 0, err
	}
	if err := nn.SetFlatParams(cp.Params(), nn.FlattenParams(net.Params())); err != nil {
		return 0, err
	}
	params := cp.Params()
	logits := cp.Forward(x, true)
	grad := tensor.New(logits.Rows, logits.Cols)
	nn.SoftmaxCrossEntropyInto(grad, logits, labels)
	nn.ZeroGrads(params)
	cp.Backward(grad, nil)
	opt := nn.NewAdam(0.001)
	return timeCall(func() { opt.Step(params) }), nil
}

// allocPerCall returns the bytes fn allocates per call.
func allocPerCall(fn func()) float64 {
	const calls = 20
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / calls
}

// busRoundTrip times one upload and one round close over the in-memory bus.
func busRoundTrip(up, end *transport.Envelope) (time.Duration, error) {
	bus := transport.NewBus(1, 1)
	defer bus.Close()
	client, server := bus.ClientConn(0), bus.ServerConn()
	var err error
	d := timeCall(func() {
		if err == nil {
			err = roundTrip(client, server, up, end)
		}
	})
	return d, err
}

func roundTrip(client, server transport.Conn, up, end *transport.Envelope) error {
	if err := client.Send(up); err != nil {
		return err
	}
	if _, err := server.Recv(); err != nil {
		return err
	}
	if err := server.Send(end); err != nil {
		return err
	}
	_, err := client.Recv()
	return err
}

// tcpRoundTrip times one upload and one round close over a loopback TCP
// connection, with the server side echoing on its own goroutine.
func tcpRoundTrip(up, end *transport.Envelope) (time.Duration, error) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	client, err := transport.Dial(ln.Addr())
	if err != nil {
		return 0, err
	}
	server, err := ln.Accept()
	if err != nil {
		client.Close()
		return 0, err
	}
	echoed := make(chan error, 1)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				server.Close()
				echoed <- nil
				return
			}
			if err := server.Send(end); err != nil {
				server.Close()
				echoed <- err
				return
			}
		}
	}()
	var rtErr error
	d := timeCall(func() {
		if rtErr != nil {
			return
		}
		if rtErr = client.Send(up); rtErr == nil {
			_, rtErr = client.Recv()
		}
	})
	client.Close()
	if err := <-echoed; err != nil && rtErr == nil {
		rtErr = err
	}
	return d, rtErr
}

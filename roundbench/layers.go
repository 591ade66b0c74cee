package main

import (
	"sync/atomic"
	"time"

	"fedpkd/internal/nn"
	"fedpkd/internal/tensor"
)

// Layer kinds the traced run times separately.
const (
	kindDense = iota
	kindBatchNorm
	kindReLU
	kindOther
	numKinds
)

func kindOf(l nn.Layer) int {
	switch l.(type) {
	case *nn.Dense:
		return kindDense
	case *nn.BatchNorm:
		return kindBatchNorm
	case *nn.ReLU:
		return kindReLU
	}
	return kindOther
}

// layerStats accumulates one network's leaf-layer time and call counts.
// Clients train concurrently, so each network gets its own layerStats and
// every counter is atomic.
type layerStats struct {
	fwdNS, bwdNS, fwdCalls [numKinds]atomic.Int64
}

// timedLayer is a pass-through decorator: Forward and Backward are timed,
// Params, Snapshot and Restore go straight to the wrapped layer, so
// checkpoint names and state are unchanged.
type timedLayer struct {
	nn.Layer
	kind  int
	stats *layerStats
}

func (l *timedLayer) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	t0 := time.Now()
	y := l.Layer.Forward(x, train)
	l.stats.fwdNS[l.kind].Add(int64(time.Since(t0)))
	l.stats.fwdCalls[l.kind].Add(1)
	return y
}

func (l *timedLayer) Backward(dout *tensor.Matrix) *tensor.Matrix {
	t0 := time.Now()
	dx := l.Layer.Backward(dout)
	l.stats.bwdNS[l.kind].Add(int64(time.Since(t0)))
	return dx
}

// decorate wraps every leaf layer of the networks, descending into each
// Sequential and each Residual's Inner, and returns one layerStats per
// network plus the function that puts the original layers back.
func decorate(nets []*nn.Network) ([]*layerStats, func()) {
	var undo []func()
	var wrapSeq func(s *nn.Sequential, st *layerStats)
	wrap := func(l nn.Layer, st *layerStats, set func(nn.Layer)) {
		switch v := l.(type) {
		case *nn.Sequential:
			wrapSeq(v, st)
		case *nn.Residual:
			inner := v.Inner
			if seq, ok := inner.(*nn.Sequential); ok {
				wrapSeq(seq, st)
				return
			}
			v.Inner = &timedLayer{Layer: inner, kind: kindOf(inner), stats: st}
			undo = append(undo, func() { v.Inner = inner })
		default:
			set(&timedLayer{Layer: l, kind: kindOf(l), stats: st})
			undo = append(undo, func() { set(l) })
		}
	}
	wrapSeq = func(s *nn.Sequential, st *layerStats) {
		for i, l := range s.Layers {
			wrap(l, st, func(nl nn.Layer) { s.Layers[i] = nl })
		}
	}
	stats := make([]*layerStats, len(nets))
	for i, net := range nets {
		stats[i] = &layerStats{}
		wrapSeq(net.Body, stats[i])
		wrapSeq(net.Head, stats[i])
	}
	return stats, func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
}

// layerTotals sums the per-network stats by kind.
type layerTotals struct {
	fwdNS, bwdNS, fwdCalls [numKinds]int64
}

func sumStats(stats []*layerStats) layerTotals {
	var t layerTotals
	for _, st := range stats {
		for k := 0; k < numKinds; k++ {
			t.fwdNS[k] += st.fwdNS[k].Load()
			t.bwdNS[k] += st.bwdNS[k].Load()
			t.fwdCalls[k] += st.fwdCalls[k].Load()
		}
	}
	return t
}

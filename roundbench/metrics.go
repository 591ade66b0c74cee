package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"updates_per_s", "1/s"},
	{"setup_s", "s"},
	{"wire_mb_per_round", "MB"},
	{"alloc_mb_per_round", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric whose layer
// the workload does not exercise reads 0; LAYERS.md lists those pairs.
var perLayer = []metricDef{
	{"tensor.gemm_nn_us", "us"},
	{"tensor.gemm_tn_us", "us"},
	{"tensor.gemm_nt_us", "us"},
	{"tensor.calib_gemm_us", "us"},
	{"tensor.ops_per_round", "count"},
	{"tensor.parallel_calls_per_round", "count"},
	{"tensor.serial_calls_per_round", "count"},
	{"tensor.matrix_allocs_per_round", "count"},
	{"tensor.scratch_miss_ratio", "ratio"},

	{"nn.dense.fwd_ms", "ms"},
	{"nn.dense.bwd_ms", "ms"},
	{"nn.batchnorm.fwd_ms", "ms"},
	{"nn.batchnorm.bwd_ms", "ms"},
	{"nn.relu.fwd_ms", "ms"},
	{"nn.relu.bwd_ms", "ms"},
	{"nn.dense.calls", "count"},
	{"nn.adam.step_us", "us"},
	{"nn.adam.step_server_us", "us"},
	{"nn.loss.ce_us", "us"},
	{"nn.loss.kl_us", "us"},
	{"nn.loss.mse_us", "us"},

	{"fl.client_train_ms", "ms"},
	{"fl.client_train_max_ms", "ms"},
	{"fl.client_public_ms", "ms"},
	{"fl.server_train_ms", "ms"},
	{"fl.eval_ms", "ms"},
	{"fl.batches_per_round", "count"},
	{"fl.server_acc", "ratio"},
	{"fl.client_acc", "ratio"},

	{"core.aggregate_ms", "ms"},
	{"filter.select_ms", "ms"},
	{"kd.aggregate_variance_us", "us"},
	{"kd.pseudolabels_us", "us"},
	{"proto.compute_us", "us"},
	{"proto.aggregate_us", "us"},
	{"filter.select_us", "us"},

	{"engine.checkpoint_ms", "ms"},
	{"engine.restore_ms", "ms"},
	{"engine.snapshot_mb", "MB"},
	{"engine.partial_reduce_us", "us"},
	{"engine.merge_partials_ms", "ms"},

	{"comm.upload_mb_per_round", "MB"},
	{"comm.download_mb_per_round", "MB"},
	{"comm.control_kb_per_round", "KB"},
	{"comm.tier_mb_per_round", "MB"},

	{"transport.encode_upload_us", "us"},
	{"transport.decode_upload_us", "us"},
	{"transport.encode_end_us", "us"},
	{"transport.decode_end_us", "us"},
	{"transport.decode_upload_alloc_kb", "KB"},
	{"transport.bus_roundtrip_us", "us"},
	{"transport.tcp_roundtrip_us", "us"},

	{"distrib.server_wait_ms", "ms"},
	{"distrib.leaf_reduce_ms", "ms"},
	{"distrib.root_merge_ms", "ms"},
	{"distrib.connect_ms", "ms"},
	{"distrib.uploads_dropped", "count"},

	{"proc.gc_cycles_per_round", "count"},
	{"proc.gc_pause_ms_per_round", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect attaches units to values and checks that values holds exactly the
// metrics defs names, each a finite number.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", name)
			}
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

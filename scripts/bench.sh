#!/bin/sh
# bench.sh regenerates the benchmark snapshots.
#
# Default mode writes BENCH_kernels.json: the kernel and round benchmarks of
# the current tree, side by side with the frozen pre-kernel baseline. The
# baseline numbers were measured at the seed of this change (commit 83a70b7,
# naive row-by-row kernels and per-minibatch allocation) on the same host
# class the current numbers come from, using the best of three interleaved
# runs (-benchtime=20x rounds, 50x kernels). Keeping them as constants lets
# the script run without rebuilding the old commit; re-measure them from that
# commit if the host changes. The seed's round benchmark timed one evolving
# run (round 1..N), while the current one restores a snapshot before every
# op and times the same second round each time, so the round baseline is
# indicative, not like for like. The file also records the GEMMs at the
# training shapes (BenchmarkGEMMTrainingShapes) as median/min/max over REPS
# runs, with no frozen baseline.
#
# `round` mode writes BENCH_round.json instead: the flat server's
# collect-then-sort reduction against the aggregator tree's per-shard
# inserts + validating merge, at 1k and 10k simulated clients — both
# measured from the current tree, no frozen baseline.
#
# `codec` mode writes BENCH_codec.json: µs/op and KB/op of encoding and
# decoding an avg-wide-tree-shaped RoundUpload and RoundStart (17,500
# float64 params), encoding/gob called directly against the exact codec
# behind transport.Encode/Decode, as median/min/max over REPS runs
# (BenchmarkCodec in internal/transport; BENCHTIME defaults to 500x here).
#
#   BENCHTIME=20x REPS=3 sh scripts/bench.sh
#   BENCHTIME=50x sh scripts/bench.sh round
#   REPS=5 sh scripts/bench.sh codec
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-kernels}"
CODEC_BENCHTIME="${BENCHTIME:-500x}"
BENCHTIME="${BENCHTIME:-20x}"
REPS="${REPS:-3}"

ratio() {
	awk -v a="$1" -v b="$2" 'BEGIN {printf "%.2f", a / b}'
}

# STATS_AWK holds awk helpers over space-separated value lists: stat(list)
# prints {"median", "min", "max"} and median(list) the median alone.
STATS_AWK='
	# sorted splits a space-separated list into v, ascending; returns its length.
	function sorted(list, v,    n, i, j, t) {
		n = split(list, v, " ")
		for (i = 2; i <= n; i++) {
			t = v[i] + 0
			for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j + 1] = v[j]
			v[j + 1] = t
		}
		return n
	}
	function median(list,    v, n) {
		n = sorted(list, v)
		return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
	}
	function stat(list,    v, n) {
		n = sorted(list, v)
		return sprintf("{\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}", median(list), v[1], v[n])
	}
'

# best_of <bench regex> <pkg> — runs REPS times, prints the minimum ns/op.
best_of() {
	best=""
	i=0
	while [ "$i" -lt "$REPS" ]; do
		ns=$(go test -run XXX -bench "$1" -benchtime "$BENCHTIME" "$2" |
			awk -v pat="$1" '$1 ~ /^Benchmark/ && $0 ~ /ns\/op/ {print $3; exit}')
		if [ -z "$best" ] || [ "$ns" -lt "$best" ]; then
			best=$ns
		fi
		i=$((i + 1))
	done
	echo "$best"
}

if [ "$MODE" = "round" ]; then
	OUT="${OUT:-BENCH_round.json}"
	echo ">> round-reduction benchmarks, flat vs tree (best of $REPS at $BENCHTIME)" >&2
	FLAT_1K=$(best_of 'BenchmarkReduceFlat1k$' ./internal/fl/engine/)
	TREE_1K=$(best_of 'BenchmarkReduceTree1k$' ./internal/fl/engine/)
	FLAT_10K=$(best_of 'BenchmarkReduceFlat10k$' ./internal/fl/engine/)
	TREE_10K=$(best_of 'BenchmarkReduceTree10k$' ./internal/fl/engine/)
	echo "   1k:  flat $FLAT_1K ns/op, tree $TREE_1K ns/op" >&2
	echo "   10k: flat $FLAT_10K ns/op, tree $TREE_10K ns/op" >&2
	{
		echo '{'
		echo '  "description": "Round reduction, flat single-server sort vs two-tier tree (per-shard sorted inserts + MergeExact), simulated cohorts. Regenerate with scripts/bench.sh round.",'
		echo "  \"host\": \"$(go env GOOS)/$(go env GOARCH), $(nproc) cpu\","
		echo "  \"benchtime\": \"$BENCHTIME, best of $REPS\","
		echo '  "round": ['
		printf '    {"name": "Reduce/1k", "flat_ns_per_op": %s, "tree_ns_per_op": %s, "flat_over_tree": %s},\n' \
			"$FLAT_1K" "$TREE_1K" "$(ratio "$FLAT_1K" "$TREE_1K")"
		printf '    {"name": "Reduce/10k", "flat_ns_per_op": %s, "tree_ns_per_op": %s, "flat_over_tree": %s}\n' \
			"$FLAT_10K" "$TREE_10K" "$(ratio "$FLAT_10K" "$TREE_10K")"
		echo '  ]'
		echo '}'
	} >"$OUT"
	echo "wrote $OUT" >&2
	exit 0
fi
if [ "$MODE" = "codec" ]; then
	OUT="${OUT:-BENCH_codec.json}"
	echo ">> codec benchmarks, gob vs exact ($REPS runs at $CODEC_BENCHTIME)" >&2
	RAW=$(go test -run XXX -bench 'BenchmarkCodec/' -benchmem -benchtime "$CODEC_BENCHTIME" \
		-count "$REPS" ./internal/transport/)
	{
		echo '{'
		echo '  "description": "Wire codec cost on avg-wide-tree-shaped messages (17,500 float64 params): encoding/gob called directly vs the exact codec behind transport.Encode/Decode, which writes and reads the same bytes. Per entry: median/min/max over the runs. Regenerate with scripts/bench.sh codec.",'
		echo "  \"host\": \"$(go env GOOS)/$(go env GOARCH), $(nproc) cpu\","
		echo "  \"benchtime\": \"$CODEC_BENCHTIME, $REPS runs\","
		echo '  "codec": ['
		# Lines look like: BenchmarkCodec/upload/encode/gob-2  500  576984 ns/op  853314 B/op  44 allocs/op
		echo "$RAW" | awk "$STATS_AWK"'
			$1 ~ /^BenchmarkCodec\// {
				split($1, p, "/")
				sub(/-[0-9]+$/, "", p[4])
				key = p[2] "/" p[3]
				if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
				us[key, p[4]] = us[key, p[4]] " " $3 / 1000
				kb[key, p[4]] = kb[key, p[4]] " " $5 / 1024
			}
			END {
				for (k = 1; k <= nk; k++) {
					key = order[k]
					split(key, q, "/")
					msg = (q[1] == "upload") ? "RoundUpload" : "RoundStart"
					printf "    {\"message\": \"%s\", \"op\": \"%s\", \"gob_us\": %s, \"exact_us\": %s, \"gob_kb\": %s, \"exact_kb\": %s, \"speedup_median\": %.2f}%s\n", \
						msg, q[2], stat(us[key, "gob"]), stat(us[key, "exact"]), \
						stat(kb[key, "gob"]), stat(kb[key, "exact"]), \
						median(us[key, "gob"]) / median(us[key, "exact"]), (k < nk) ? "," : ""
				}
			}'
		echo '  ]'
		echo '}'
	} >"$OUT"
	echo "wrote $OUT" >&2
	exit 0
fi
if [ "$MODE" != "kernels" ]; then
	echo "bench.sh: unknown mode '$MODE' (want kernels, round or codec)" >&2
	exit 2
fi

OUT="${OUT:-BENCH_kernels.json}"

# Frozen baselines (ns/op) from the seed commit.
BASE_ROUND=174320969
BASE_ROUND_INSTR=190940604
BASE_MM_32=23575
BASE_MM_128=1306229
BASE_MM_256=11250245
BASE_TN_32=18821
BASE_TN_128=1224764
BASE_TN_256=11764876
BASE_NT_32=20259
BASE_NT_128=1265843
BASE_NT_256=11417507

echo ">> round benchmark (best of $REPS at $BENCHTIME)" >&2
ROUND=$(best_of 'BenchmarkFedPKDRound$' .)
echo "   BenchmarkFedPKDRound: $ROUND ns/op" >&2

echo ">> instrumented round benchmark (best of $REPS at $BENCHTIME)" >&2
ROUND_INSTR=$(best_of 'BenchmarkFedPKDRoundInstrumented$' .)
echo "   BenchmarkFedPKDRoundInstrumented: $ROUND_INSTR ns/op" >&2

echo ">> kernel benchmarks (best of $REPS at 50x)" >&2
KERN=""
i=0
while [ "$i" -lt "$REPS" ]; do
	KERN="$KERN
$(go test -run XXX -bench 'BenchmarkMatMul(|TN|NT)/' -benchtime 50x ./internal/tensor/)"
	i=$((i + 1))
done

# kern_ns <bench name> — minimum ns/op for one benchmark across the runs.
# go test appends -GOMAXPROCS to benchmark names on multi-CPU hosts.
kern_ns() {
	echo "$KERN" | awk -v name="$1" '
		{ n = $1; sub(/-[0-9]+$/, "", n) }
		n == name { if (best == "" || $3 + 0 < best + 0) best = $3 }
		END { print best }'
}

echo ">> training-shape GEMM benchmarks ($REPS runs at 2000x)" >&2
TRAIN=$(go test -run XXX -bench 'BenchmarkGEMMTrainingShapes/' -benchtime 2000x \
	-count "$REPS" ./internal/tensor/)

MM_32=$(kern_ns 'BenchmarkMatMul/32x32')
MM_128=$(kern_ns 'BenchmarkMatMul/128x128')
MM_256=$(kern_ns 'BenchmarkMatMul/256x256')
TN_32=$(kern_ns 'BenchmarkMatMulTN/32x32')
TN_128=$(kern_ns 'BenchmarkMatMulTN/128x128')
TN_256=$(kern_ns 'BenchmarkMatMulTN/256x256')
NT_32=$(kern_ns 'BenchmarkMatMulNT/32x32')
NT_128=$(kern_ns 'BenchmarkMatMulNT/128x128')
NT_256=$(kern_ns 'BenchmarkMatMulNT/256x256')

entry() {
	printf '    {"name": "%s", "baseline_ns_per_op": %s, "current_ns_per_op": %s, "speedup": %s}' \
		"$1" "$2" "$3" "$(ratio "$2" "$3")"
}

{
	echo '{'
	echo '  "description": "Kernel and round benchmarks vs the pre-kernel seed (commit 83a70b7). Regenerate with scripts/bench.sh.",'
	echo "  \"host\": \"$(go env GOOS)/$(go env GOARCH), $(nproc) cpu\","
	echo "  \"round_benchtime\": \"$BENCHTIME, best of $REPS\","
	echo '  "round": ['
	entry "BenchmarkFedPKDRound" "$BASE_ROUND" "$ROUND"
	echo ','
	entry "BenchmarkFedPKDRoundInstrumented" "$BASE_ROUND_INSTR" "$ROUND_INSTR"
	echo ''
	echo '  ],'
	echo '  "kernels": ['
	entry "MatMul/32x32" "$BASE_MM_32" "$MM_32"
	echo ','
	entry "MatMul/128x128" "$BASE_MM_128" "$MM_128"
	echo ','
	entry "MatMul/256x256" "$BASE_MM_256" "$MM_256"
	echo ','
	entry "MatMulTN/32x32" "$BASE_TN_32" "$TN_32"
	echo ','
	entry "MatMulTN/128x128" "$BASE_TN_128" "$TN_128"
	echo ','
	entry "MatMulTN/256x256" "$BASE_TN_256" "$TN_256"
	echo ','
	entry "MatMulNT/32x32" "$BASE_NT_32" "$NT_32"
	echo ','
	entry "MatMulNT/128x128" "$BASE_NT_128" "$NT_128"
	echo ','
	entry "MatMulNT/256x256" "$BASE_NT_256" "$NT_256"
	echo ''
	echo '  ],'
	echo "  \"training_shapes_benchtime\": \"2000x, $REPS runs\","
	echo '  "training_shapes": ['
	# Lines look like: BenchmarkGEMMTrainingShapes/NN/32x48to48-2  2000  13092 ns/op  ...
	echo "$TRAIN" | awk "$STATS_AWK"'
		$1 ~ /^BenchmarkGEMMTrainingShapes\// {
			name = $1
			sub(/^BenchmarkGEMMTrainingShapes\//, "", name)
			sub(/-[0-9]+$/, "", name)
			if (!(name in ns)) order[++n] = name
			ns[name] = ns[name] " " $3
		}
		END {
			for (i = 1; i <= n; i++)
				printf "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n", order[i], stat(ns[order[i]]), (i < n) ? "," : ""
		}'
	echo '  ]'
	echo '}'
} >"$OUT"

echo "wrote $OUT" >&2

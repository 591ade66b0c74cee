// Command roundbench is the repository's benchmark. It runs one named
// workload of fixed-snapshot communication rounds and prints, as its last
// output line, one JSON object with the run's correctness, failure counts
// and metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// of a separate traced run with -trace 1.
//
// Every workload builds its environment and algorithm from -seed, runs one
// warm-up round, snapshots the run into memory, and then times sequences of
// rounds that each start from that snapshot, so every sequence does the same
// arithmetic. Run it through run.sh, which builds it from source:
//
//	bash roundbench/run.sh --workload pkd-inproc --seed 1 --seconds 50 --trace 0
//
// LAYERS.md maps each per-layer metric to the end-to-end metric it moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: pkd-inproc or avg-wide-tree")
	seed := flag.Uint64("seed", 1, "seed the workload's data and models derive from")
	seconds := flag.Int("seconds", 50, "how long to measure rounds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		size:    benchSize,
		outDir:  *out,
	}
	fmt.Fprintf(os.Stderr, "roundbench: host %s/%s nproc=%d GOMAXPROCS=%d %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "roundbench: output check failed")
		os.Exit(1)
	}
}

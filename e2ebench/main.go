// Command e2ebench is the repository's end-to-end benchmark. It drives three
// workloads through the public APIs of the simulator stack — kernels, sim,
// exectrace, experiments, jobs, server, store and cluster — prints every
// end-to-end metric with its unit and sample count, and checks that the
// outputs are correct. A traced run (-trace 1) records spans around each
// call into a layer and reports the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds it from
// source first:
//
//	bash e2ebench/run.sh --workload stall-execute --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the workloads
// and every metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: permutes kernel, exhibit and job order")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build/e2ebench", "directory for span files and scratch state")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, *workload, options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *out}, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// warpedreport regenerates the paper's exhibits and emits a markdown
// paper-vs-measured report: for every figure with a quantitative headline
// claim, the paper's number next to the suite average this model produces.
// It automates the comparison table of EXPERIMENTS.md so the repository's
// claims can be re-checked after any change with one command.
//
// Usage:
//
//	warpedreport                     # medium scale, all benchmarks
//	warpedreport -scale small -o report.md
//	warpedreport -parallel 8 -timeout 1h
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/warped"
)

func main() {
	f := cli.New("warpedreport", "medium", cli.Pool|cli.Timeout|cli.Suite)
	var (
		full    = flag.Bool("tables", false, "append the full per-benchmark tables after the summary")
		verbose = flag.Bool("v", false, "log each simulation run")
	)
	f.Parse()
	defer f.Close()

	ctx, cancel := f.Context()
	defer cancel()

	var opts []warped.ExperimentOption
	if *verbose {
		opts = append(opts, warped.WithProgress(func(ev warped.ExperimentEvent) {
			if ev.Kind == warped.ExperimentJobDone && ev.Err == nil {
				fmt.Fprintf(os.Stderr, "ran %-12s [%s] cycles=%d in %v\n",
					ev.Benchmark, ev.Config, ev.Cycles, ev.Elapsed.Round(time.Millisecond))
			}
		}))
	}
	r, err := f.Runner(ctx, opts...)
	if err != nil {
		f.Fatalf("%v", err)
	}
	w, err := f.Output()
	if err != nil {
		f.Fatalf("%v", err)
	}

	fmt.Fprintf(w, "# Warped-Compression: paper vs. measured (%s scale, %d benchmarks)\n\n",
		f.Scale, cmp.Or(len(f.BenchmarkList()), len(warped.Benchmarks())))
	fmt.Fprintln(w, "| Exhibit | Quantity | Paper | Measured |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, id := range experiments.Claimed() {
		t, err := r.Run(id)
		if err != nil {
			f.Fatalf("%s: %v", id, err)
		}
		c, _, measured := t.Claim()
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", id, c.Quantity, c.Paper, measured)
	}

	if *full {
		fmt.Fprintf(w, "\n## Full tables\n\n")
		for _, id := range warped.ExperimentIDs() {
			t, err := r.Run(id)
			if err != nil {
				f.Fatalf("%s: %v", id, err)
			}
			fmt.Fprintln(w, "```")
			if err := t.Render(w); err != nil {
				f.Fatalf("%v", err)
			}
			fmt.Fprintln(w, "```")
		}
	}
}

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
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/version"
	"repro/warped"
)

// claim describes one quantitative headline from the paper and how to read
// the corresponding measurement out of a regenerated exhibit.
type claim struct {
	id      string
	what    string
	paper   string
	measure func(t *warped.Table) string
}

// avg returns the named column's AVG-row value.
func avg(t *warped.Table, col string) float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return math.NaN()
	}
	for _, r := range t.Rows {
		if r.Label == "AVG" && ci < len(r.Values) {
			return r.Values[ci]
		}
	}
	return math.NaN()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

var claims = []claim{
	{"fig2", "non-divergent writes that are not random", "~79%",
		func(t *warped.Table) string { return pct(1 - avg(t, "nd-random")) }},
	{"fig3", "non-divergent warp instructions", "79%",
		func(t *warped.Table) string { return pct(avg(t, "non-divergent")) }},
	{"fig5", "writes where the explorer picks an 8-byte base", "rarely (~0%)",
		func(t *warped.Table) string {
			return pct(avg(t, "<8,0>") + avg(t, "<8,1>") + avg(t, "<8,2>") + avg(t, "<8,4>"))
		}},
	{"fig8", "compression ratio, non-divergent / divergent", "2.5 / 1.3",
		func(t *warped.Table) string {
			return fmt.Sprintf("%.2f / %.2f", avg(t, "non-divergent"), avg(t, "divergent"))
		}},
	{"fig9", "total register file energy saved", "25%",
		func(t *warped.Table) string { return pct(1 - avg(t, "wc-total")) }},
	{"fig11", "dummy MOV share of instructions", "< 2% everywhere",
		func(t *warped.Table) string { return pct(avg(t, "mov-fraction")) + " average" }},
	{"fig13", "execution time increase", "0.1%",
		func(t *warped.Table) string { return pct(avg(t, "normalized-cycles") - 1) }},
	{"fig14", "energy saved, GTO / LRR", "25% / 26%",
		func(t *warped.Table) string {
			return fmt.Sprintf("%s / %s", pct(1-avg(t, "gto")), pct(1-avg(t, "lrr")))
		}},
	{"fig15", "<4,0>-only compression ratio vs warped", "~30% lower",
		func(t *warped.Table) string {
			return pct(1-avg(t, "<4,0>")/avg(t, "warped")) + " lower"
		}},
	{"fig17", "energy saved at 2.5x unit activation energy", "14%",
		func(t *warped.Table) string { return pct(1 - avg(t, "2.5x")) }},
	{"fig18", "energy saved at 2.5x bank access energy", "35%",
		func(t *warped.Table) string { return pct(1 - avg(t, "2.5x")) }},
	{"fig19", "energy saved at 100% wire activity", "31%",
		func(t *warped.Table) string { return pct(1 - avg(t, "100%")) }},
	{"fig20", "slowdown at 8-cycle compression latency", "part of the +14% worst case",
		func(t *warped.Table) string { return pct(avg(t, "8cy") - 1) }},
	{"fig21", "slowdown at 8-cycle decompression latency", "part of the +14% worst case",
		func(t *warped.Table) string { return pct(avg(t, "8cy") - 1) }},
}

func main() {
	var (
		scale    = flag.String("scale", "medium", "workload scale: small, medium or large")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		out      = flag.String("o", "", "write the report to a file instead of stdout")
		full     = flag.Bool("tables", false, "append the full per-benchmark tables after the summary")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		smPar    = flag.Int("sm-parallel", 0, "SM-loop shards per simulation (0 = auto: CPUs/parallelism); results are byte-identical at every count")
		compr    = flag.String("compression", "", "base compression for every exhibit: "+strings.Join(warped.Compressions(), ", ")+" (off also turns bank power gating off)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		retries  = flag.Int("retries", 0, "extra attempts per job after a transient failure")
		watchdog = flag.Duration("watchdog", 0, "cancel a simulation making no progress for this long (0 = off)")
		verbose  = flag.Bool("v", false, "log each simulation run")
		showVer  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("warpedreport"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var benchList []string
	opts := []warped.ExperimentOption{
		warped.WithParallelism(*parallel),
		warped.WithSMParallel(*smPar),
		warped.WithRetries(*retries),
		warped.WithWatchdog(*watchdog),
	}
	sc, err := kernels.ParseScale(*scale)
	if err != nil {
		fatal("-scale: %v", err)
	}
	opts = append(opts, warped.WithScale(sc))
	if *compr != "" {
		base := warped.DefaultConfig()
		base.Compression = *compr
		if *compr == "off" {
			base.PowerGating = false // the paper's baseline gates no banks
		}
		if err := base.Validate(); err != nil {
			fatal("%v", err)
		}
		opts = append(opts, warped.WithBaseConfig(base))
	}
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
		opts = append(opts, warped.WithBenchmarks(benchList...))
	}
	if *verbose {
		opts = append(opts, warped.WithProgress(func(ev warped.ExperimentEvent) {
			if ev.Kind == warped.ExperimentJobDone && ev.Err == nil {
				fmt.Fprintf(os.Stderr, "ran %-12s [%s] cycles=%d in %v\n",
					ev.Benchmark, ev.Config, ev.Cycles, ev.Elapsed.Round(time.Millisecond))
			}
		}))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = f
	}

	r, err := warped.NewExperiments(ctx, opts...)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "# Warped-Compression: paper vs. measured (%s scale, %d benchmarks)\n\n",
		*scale, benchCount(benchList))
	fmt.Fprintln(w, "| Exhibit | Quantity | Paper | Measured |")
	fmt.Fprintln(w, "|---|---|---|---|")
	tables := map[string]*warped.Table{}
	for _, c := range claims {
		t, ok := tables[c.id]
		if !ok {
			var err error
			t, err = r.Run(c.id)
			if err != nil {
				fatal("%s: %v", c.id, err)
			}
			tables[c.id] = t
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.id, c.what, c.paper, c.measure(t))
	}

	if *full {
		fmt.Fprintf(w, "\n## Full tables\n\n")
		for _, id := range warped.ExperimentIDs() {
			t, err := r.Run(id)
			if err != nil {
				fatal("%s: %v", id, err)
			}
			fmt.Fprintln(w, "```")
			if err := t.Render(w); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintln(w, "```")
		}
	}
}

func benchCount(subset []string) int {
	if subset != nil {
		return len(subset)
	}
	return len(warped.Benchmarks())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "warpedreport: "+format+"\n", args...)
	os.Exit(1)
}

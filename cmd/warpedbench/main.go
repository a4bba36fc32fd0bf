// warpedbench regenerates the tables and figures of the warped-compression
// paper (ISCA 2015) on the simulated GPU. Simulations fan out across a
// worker pool (one per CPU by default); output is byte-identical at every
// parallelism level.
//
// Usage:
//
//	warpedbench -exp all                 # every exhibit, medium scale
//	warpedbench -exp fig9,fig13 -v       # headline results with progress
//	warpedbench -exp fig8 -benchmarks bfs,lib -scale small
//	warpedbench -parallel 4 -timeout 30m # bounded workers and wall time
//	warpedbench -keep-going -watchdog 2m # partial results + failure report
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/version"
	"repro/warped"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated exhibit ids ("+strings.Join(warped.ExperimentIDs(), ",")+") or 'all'")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 20)")
		scale    = flag.String("scale", "medium", "workload scale: small, medium or large")
		out      = flag.String("o", "", "write output to file instead of stdout")
		format   = flag.String("format", "text", "output format: text or csv")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		smPar    = flag.Int("sm-parallel", 0, "SM-loop shards per simulation (0 = auto: CPUs/parallelism); results are byte-identical at every count")
		compr    = flag.String("compression", "", "base compression for every exhibit: "+strings.Join(warped.Compressions(), ", ")+" (off also turns bank power gating off); exhibits that name their own compression still override it")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		retries  = flag.Int("retries", 0, "extra attempts per job after a transient failure")
		backoff  = flag.Duration("retry-backoff", 0, "delay before the first retry, doubling each retry (default 100ms)")
		watchdog = flag.Duration("watchdog", 0, "cancel a simulation making no progress for this long (0 = off)")
		keepOn   = flag.Bool("keep-going", false, "don't stop at the first failure: emit every healthy exhibit plus a failure report (exit 1 if anything failed)")
		verbose  = flag.Bool("v", false, "log each simulation run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		showVer  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("warpedbench"))
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []warped.ExperimentOption{
		warped.WithParallelism(*parallel),
		warped.WithSMParallel(*smPar),
		warped.WithRetries(*retries),
		warped.WithWatchdog(*watchdog),
	}
	if *backoff > 0 {
		opts = append(opts, warped.WithRetryBackoff(*backoff))
	}
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
	sc, err := kernels.ParseScale(*scale)
	if err != nil {
		fatal("-scale: %v", err)
	}
	opts = append(opts, warped.WithScale(sc))
	if *benches != "" {
		opts = append(opts, warped.WithBenchmarks(strings.Split(*benches, ",")...))
	}
	if *verbose {
		opts = append(opts, warped.WithProgress(progress))
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

	ids := warped.ExperimentIDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}

	r, err := warped.NewExperiments(ctx, opts...)
	if err != nil {
		fatal("%v", err)
	}

	if *keepOn {
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		rep, err := r.RunPartial(ids...)
		if err != nil {
			fatal("%v", err)
		}
		for _, t := range rep.Tables {
			render(w, t, *format)
			fmt.Fprintln(w)
		}
		if rep.Failed() {
			fmt.Fprint(os.Stderr, rep.Render())
			if err := stopProf(); err != nil { // os.Exit skips the deferred flush
				fmt.Fprintln(os.Stderr, err)
			}
			os.Exit(1)
		}
		return
	}

	for _, id := range ids {
		t, err := r.Run(strings.TrimSpace(id))
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatal("%s: timed out after %v", id, *timeout)
			}
			fatal("%s: %v", id, err)
		}
		render(w, t, *format)
		fmt.Fprintln(w)
	}
}

func render(w io.Writer, t *warped.Table, format string) {
	var err error
	switch format {
	case "text":
		err = t.Render(w)
	case "csv":
		fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
		err = t.RenderCSV(w)
	default:
		fatal("unknown format %q", format)
	}
	if err != nil {
		fatal("%v", err)
	}
}

// progress renders the structured event stream as one line per event.
func progress(ev warped.ExperimentEvent) {
	switch ev.Kind {
	case warped.ExperimentJobStart:
		fmt.Fprintf(os.Stderr, "start %-12s [%s]\n", ev.Benchmark, ev.Config)
	case warped.ExperimentJobDone:
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "fail  %-12s: %v\n", ev.Benchmark, ev.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "done  %-12s cycles=%-10d %v\n", ev.Benchmark, ev.Cycles, ev.Elapsed.Round(time.Millisecond))
	case warped.ExperimentJobRetry:
		fmt.Fprintf(os.Stderr, "retry %-12s attempt %d failed: %v\n", ev.Benchmark, ev.Attempt+1, ev.Err)
	case warped.ExperimentCacheHit:
		fmt.Fprintf(os.Stderr, "hit   %-12s [%s]\n", ev.Benchmark, ev.Config)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "warpedbench: "+format+"\n", args...)
	os.Exit(1)
}

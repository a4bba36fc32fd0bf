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
	"strings"
	"time"

	"repro/internal/cli"
	"repro/warped"
)

// renderers are the -format choices.
var renderers = map[string]func(*warped.Table, io.Writer) error{
	"text": (*warped.Table).Render,
	"csv": func(t *warped.Table, w io.Writer) error {
		fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
		return t.RenderCSV(w)
	},
}

func main() {
	f := cli.New("warpedbench", "medium", cli.Pool|cli.Timeout|cli.Profile|cli.Suite)
	var (
		exps    = flag.String("exp", "all", "comma-separated exhibit ids ("+strings.Join(warped.ExperimentIDs(), ",")+") or 'all'")
		format  = flag.String("format", "text", "output format: text or csv")
		keepOn  = flag.Bool("keep-going", false, "don't stop at the first failure: emit every healthy exhibit plus a failure report (exit 1 if anything failed)")
		verbose = flag.Bool("v", false, "log each simulation run")
	)
	f.Parse()
	defer f.Close()

	render, ok := renderers[*format]
	if !ok {
		f.Fatalf("unknown format %q", *format)
	}

	ctx, cancel := f.Context()
	defer cancel()

	var opts []warped.ExperimentOption
	if *verbose {
		opts = append(opts, warped.WithProgress(progress))
	}
	r, err := f.Runner(ctx, opts...)
	if err != nil {
		f.Fatalf("%v", err)
	}
	w, err := f.Output()
	if err != nil {
		f.Fatalf("%v", err)
	}

	ids := warped.ExperimentIDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}

	if *keepOn {
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		rep, err := r.RunPartial(ids...)
		if err != nil {
			f.Fatalf("%v", err)
		}
		for _, t := range rep.Tables {
			if err := render(t, w); err != nil {
				f.Fatalf("%v", err)
			}
			fmt.Fprintln(w)
		}
		if rep.Failed() {
			fmt.Fprint(os.Stderr, rep.Render())
			f.Close() // os.Exit skips the deferred flush
			os.Exit(1)
		}
		return
	}

	for _, id := range ids {
		t, err := r.Run(strings.TrimSpace(id))
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				f.Fatalf("%s: timed out after %v", id, f.Timeout)
			}
			f.Fatalf("%s: %v", id, err)
		}
		if err := render(t, w); err != nil {
			f.Fatalf("%v", err)
		}
		fmt.Fprintln(w)
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

// warpedctl drives a fleet of warpedd workers as one cluster. Its main
// job is sharded sweeps: load a campaign spec (internal/sweep), place
// every (config, benchmark) job on a worker by rendezvous hashing on the
// config signature, stream progress, fail over around dead workers, and
// merge the results into one deterministic warped.campaign/v1 report —
// byte-identical to running the same spec against a single worker.
//
// Usage:
//
//	warpedctl sweep -workers http://a:8077,http://b:8077 -spec sweep.json -o report.json
//	warpedctl info  -workers http://a:8077,http://b:8077
//	warpedctl -version
//
// The sweep exits 0 only when every job produced a result; job failures
// are recorded in the report and surfaced as exit code 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("warpedctl: ")

	showVer := flag.Bool("version", false, "print the build identity and exit")
	flag.Usage = usage
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("warpedctl"))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch args[0] {
	case "sweep":
		err = runSweep(ctx, args[1:])
	case "info":
		err = runInfo(ctx, args[1:])
	default:
		log.Printf("unknown command %q", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `warpedctl — cluster front-end for warpedd workers

Commands:
  sweep   shard a campaign spec across workers and merge the report
  info    show each worker's identity and health

Run "warpedctl <command> -h" for that command's flags.
`)
}

// workerList parses the shared -workers flag.
func workerList(raw string) ([]string, error) {
	var urls []string
	for _, w := range strings.Split(raw, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, w)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("no workers given; use -workers http://host:port[,http://host2:port]")
	}
	return urls, nil
}

func runSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		workers     = fs.String("workers", "", "comma-separated worker base URLs (required)")
		specPath    = fs.String("spec", "", "campaign spec file (required)")
		out         = fs.String("o", "-", "report destination; - writes to stdout")
		concurrency = fs.Int("concurrency", 0, "max in-flight jobs across the cluster (0 = 4 per worker)")
		attempts    = fs.Int("attempts", 3, "same-worker attempts before declaring it down")
		timeout     = fs.Duration("timeout", 0, "overall sweep deadline (0 = none)")
		apiKey      = fs.String("api-key", "", "tenant API key sent with every request (WARPEDCTL_API_KEY env overrides empty)")
		compression = fs.String("compression", "", "compression setting ("+strings.Join(core.Compressions(), ", ")+") merged into the spec's base overrides (explicit config/grid overrides still win)")
		quiet       = fs.Bool("quiet", false, "suppress per-job progress on stderr")
	)
	fs.Parse(args)
	urls, err := workerList(*workers)
	if err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("no spec given; use -spec sweep.json")
	}
	spec, err := sweep.Load(*specPath)
	if err != nil {
		return err
	}
	if *compression != "" {
		if err := spec.SetBaseCompression(*compression); err != nil {
			return err
		}
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	reg, err := cluster.NewRegistry(urls, cluster.RegistryConfig{Log: log.Printf})
	if err != nil {
		return err
	}
	reg.Start(ctx)

	key := *apiKey
	if key == "" {
		key = os.Getenv("WARPEDCTL_API_KEY") // keep secrets out of process listings
	}
	opts := cluster.Options{Concurrency: *concurrency, WorkerAttempts: *attempts, APIKey: key}
	if !*quiet {
		opts.Progress = func(ev cluster.Event) {
			if ev.Detail != "" {
				log.Printf("%s %s @ %s: %s", ev.Kind, ev.Job, ev.Worker, ev.Detail)
			} else {
				log.Printf("%s %s @ %s", ev.Kind, ev.Job, ev.Worker)
			}
		}
	}
	log.Printf("sweep %s: %d jobs over %d workers", spec.Name, len(jobs), len(urls))
	start := time.Now()
	report, err := cluster.New(reg, opts).RunSweep(ctx, spec)
	if err != nil {
		return err
	}
	data, err := report.Marshal()
	if err != nil {
		return err
	}
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	failed := report.Failed()
	log.Printf("sweep %s: %d/%d jobs succeeded in %s", spec.Name, len(report.Entries)-failed, len(report.Entries), time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("%d job(s) failed; see the report", failed)
	}
	return nil
}

func runInfo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated worker base URLs (required)")
	fs.Parse(args)
	urls, err := workerList(*workers)
	if err != nil {
		return err
	}
	reg, err := cluster.NewRegistry(urls, cluster.RegistryConfig{})
	if err != nil {
		return err
	}
	reg.ProbeOnce(ctx)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tHEALTHY\tINSTANCE")
	for _, w := range reg.Snapshot() {
		instance := w.Instance
		if instance == "" {
			instance = "-"
		}
		fmt.Fprintf(tw, "%s\t%v\t%s\n", w.URL, w.Healthy, instance)
	}
	return tw.Flush()
}

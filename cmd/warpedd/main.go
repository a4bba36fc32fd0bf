// warpedd serves the warped-compression simulator over HTTP: submit
// simulation jobs, poll or stream their progress, and scrape Prometheus
// metrics. It fronts the same experiments engine the CLIs use — identical
// configs are deduplicated in flight and served from a bounded result
// cache, keyed by the shared config signature.
//
// Usage:
//
//	warpedd                                  # listen on :8077
//	warpedd -addr :9000 -parallel 8 -queue 256 -cache 4096
//	warpedd -scale small -watchdog 2m -retries 1
//	warpedd -store-dir /var/lib/warpedd -store-budget 2GiB
//	warpedd -tenants tenants.json            # per-tenant API keys and limits
//
// A quick session:
//
//	curl -s localhost:8077/v1/jobs -d '{"benchmark":"bfs"}'
//	curl -s localhost:8077/v1/jobs/job-000001
//	curl -N  localhost:8077/v1/jobs/job-000001/events   # SSE, ends when done
//	curl -s  localhost:8077/metrics
//
// On SIGINT/SIGTERM the daemon drains: /readyz flips to 503, new
// submissions are rejected with 503, and in-flight jobs get -drain-timeout
// to finish before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/version"
	"repro/warped"
)

// parseBytes parses a human byte size: a plain integer, or one with a
// K/M/G/T suffix in decimal (KB, MB, ...) or binary (KiB, MiB, ...) form.
// A bare suffix letter ("512M") means binary, matching operator habit.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	num := s
	mult := int64(1)
	suffixes := []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	}
	for _, sf := range suffixes {
		if len(s) > len(sf.suffix) && strings.EqualFold(s[len(s)-len(sf.suffix):], sf.suffix) {
			num, mult = strings.TrimSpace(s[:len(s)-len(sf.suffix)]), sf.mult
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("byte size %q is negative", s)
	}
	return n * mult, nil
}

func main() {
	f := cli.New("warpedd", "small", cli.Pool)
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		queue    = flag.Int("queue", 64, "admission queue depth; submissions beyond it get 429")
		cache    = flag.Int("cache", 1024, "result cache size in entries (0 disables the memory cache; a -store-dir is still read)")
		retain   = flag.Int("retain", 1024, "finished jobs kept queryable before the oldest are forgotten")
		drainFor = flag.Duration("drain-timeout", 2*time.Minute, "how long a shutdown signal waits for in-flight jobs")
		sseKA    = flag.Duration("sse-keepalive", 15*time.Second, "interval between keep-alive comments on idle event streams")
		storeDir = flag.String("store-dir", "", "disk store directory; results and traces persist across restarts (empty = memory only)")
		storeBud = flag.String("store-budget", "0", "disk store byte budget, e.g. 512MiB or 2GB (0 = unlimited); LRU entries beyond it are deleted")
		traceBud = flag.String("trace-budget", "0", "resident recorded-trace byte budget, e.g. 256MiB (0 = entry cap only)")
		tenants  = flag.String("tenants", "", "JSON tenant roster for API keys, fair-share weights and per-tenant limits (empty = single tenant, no auth)")
	)
	f.Parse()

	// -compression and -sm-parallel are only defaults for submissions that
	// pick none: the resolved base config validates the first and carries
	// the second to the job manager.
	ec, base, err := f.Engine(warped.DefaultConfig())
	if err != nil {
		f.Fatalf("%v", err)
	}

	storeBudget, err := parseBytes(*storeBud)
	if err != nil {
		f.Fatalf("-store-budget: %v", err)
	}
	traceBudget, err := parseBytes(*traceBud)
	if err != nil {
		f.Fatalf("-trace-budget: %v", err)
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{BudgetBytes: storeBudget, Log: log.Printf})
		if err != nil {
			f.Fatalf("%v", err)
		}
		ss := st.Stats()
		log.Printf("warpedd: disk store %s: %d entries, %d bytes (budget %d)", *storeDir, ss.Entries, ss.Bytes, ss.Budget)
	}
	var roster []jobs.Tenant
	if *tenants != "" {
		file, err := os.Open(*tenants)
		if err != nil {
			f.Fatalf("-tenants: %v", err)
		}
		roster, err = jobs.ParseTenants(file)
		file.Close()
		if err != nil {
			f.Fatalf("-tenants %s: %v", *tenants, err)
		}
		log.Printf("warpedd: %d tenants configured; submissions require a known API key (or the keyless tenant)", len(roster))
	}

	mgr := jobs.NewManager(context.Background(), jobs.Config{
		Workers:         ec.Parallelism,
		SMParallel:      base.SMParallel,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		RetainJobs:      *retain,
		Scale:           ec.Scale,
		Retries:         ec.Retries,
		Watchdog:        ec.Watchdog,
		Store:           st,
		TraceStoreBytes: traceBudget,
		Tenants:         roster,
	})
	api := server.New(mgr)
	api.SetSSEKeepAlive(*sseKA)
	if f.Compression != "" {
		api.SetDefaultCompression(f.Compression)
		log.Printf("warpedd: default compression %q", f.Compression)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: api.Handler(),
	}

	// Serve until a shutdown signal, then drain before closing the
	// listener: load balancers see /readyz go 503 while in-flight work
	// finishes, and only then do open connections get torn down.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("warpedd %s listening on %s (workers=%d queue=%d cache=%d scale=%s)",
		version.Get("warpedd").Version, *addr, mgr.Stats().Workers, *queue, *cache, ec.Scale)

	select {
	case err := <-errc:
		f.Fatalf("%v", err)
	case sig := <-sigc:
		log.Printf("warpedd: %v: draining (timeout %s)", sig, *drainFor)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		log.Printf("warpedd: %v", err)
	}
	mgr.Close()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("warpedd: shutdown: %v", err)
	}
	log.Print("warpedd: stopped")
}

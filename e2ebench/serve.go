package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

// fleetWorkers is the number of in-process workers a campaign runs on.
const fleetWorkers = 2

// serveCampaign runs a campaign through a cluster coordinator over two
// in-process workers (server.Server over a jobs.Manager, one simulation
// slot each, loopback HTTP) that share one disk store, as a closed loop of
// nproc concurrent jobs. Each pass has three phases over the same spec:
// cold (simulate, then write the store), warm (every job hits its home
// worker's LRU cache) and restart (fresh managers and servers on the same
// store directory, so every job is a store read). The serving layers —
// admission, SSE, JSON, store I/O, placement — are a large share of the
// time only on hits.
type serveCampaign struct {
	dir  string // parent of each pass's store directory
	spec *sweep.Spec
	jobs []sweep.Job
	cold *cluster.Report // the first cold phase's report
	want []byte          // its bytes
}

func newServeCampaign(o options) (workload, error) {
	names := []string{"bfs", "gemm_block", "hotspot", "kmeans", "lud", "nw", "pathfinder", "sad", "spmv"}
	latencies, schemes, sms := []int{1, 2, 4, 8}, []string{"bdi", "fpc", "static"}, 4
	if o.quick {
		names, latencies, schemes, sms = []string{"bfs", "pathfinder"}, []int{1, 2}, []string{"bdi"}, 2
	}
	return newCampaign(o, names, latencies, schemes, sms)
}

// newCampaign builds the spec names × CompressLatency × Compression on an
// sms-SM device at Small scale, the serving layer's default. The seed
// permutes the benchmark and grid-value order, and so the job order.
func newCampaign(o options, names []string, latencies []int, schemes []string, sms int) (*serveCampaign, error) {
	data, err := json.Marshal(map[string]any{
		"name":       "e2ebench-serve",
		"benchmarks": shuffled(names, o.seed, 3),
		"base":       map[string]int{"NumSMs": sms},
		"grid": map[string]any{
			"CompressLatency": shuffled(latencies, o.seed, 4),
			"Compression":     shuffled(schemes, o.seed, 5),
		},
	})
	if err != nil {
		return nil, err
	}
	spec, err := sweep.Parse(data)
	if err != nil {
		return nil, err
	}
	js, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	return &serveCampaign{dir: filepath.Join(o.dir, "stores"), spec: spec, jobs: js}, nil
}

func (c *serveCampaign) setup(ctx context.Context) error {
	dir, err := c.storeDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(ctx, dir, newCampaignWatch(c.jobs, &tally{}, nil), nil)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, j := range c.jobs {
		if b, _ := kernels.ByName(j.Benchmark); !seen[b.Name] {
			seen[b.Name] = true
			if err := build(b, j.Config, kernels.Small); err != nil {
				return err
			}
		}
	}
	_, err = f.stop(ctx, nil)
	return err
}

func (c *serveCampaign) storeDir() (string, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.dir, "store-")
}

func (c *serveCampaign) pass(ctx context.Context, t *tally, rec *recorder) error {
	dir, err := c.storeDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	watch := newCampaignWatch(c.jobs, t, rec)

	var reports [][]byte
	for _, phases := range [][]string{{"cold", "warm"}, {"restart"}} {
		f, err := startFleet(ctx, dir, watch, rec)
		if err != nil {
			return err
		}
		for _, ph := range phases {
			var data []byte
			if data, err = c.phase(ctx, f, watch, ph, t, rec); err != nil {
				break
			}
			reports = append(reports, data)
		}
		quarantined, serr := f.stop(ctx, rec)
		if err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		if quarantined > 0 {
			t.op(fmt.Errorf("store quarantined %d entries", quarantined))
		}
	}
	t.op(sameBytes(reports[0], reports[1], "warm report vs cold"))
	t.op(sameBytes(reports[0], reports[2], "restart report vs cold"))
	if c.want == nil {
		c.want = reports[0]
	} else {
		t.op(sameBytes(c.want, reports[0], "cold report vs first pass"))
	}
	return nil
}

func sameBytes(a, b []byte, what string) error {
	if string(a) != string(b) {
		return fmt.Errorf("%s: bytes differ", what)
	}
	return nil
}

// phase runs the spec once through the fleet and returns the report bytes.
func (c *serveCampaign) phase(ctx context.Context, f *fleet, watch *campaignWatch, name string, t *tally, rec *recorder) ([]byte, error) {
	watch.begin(name)
	start := time.Now()
	rep, err := f.coord.RunSweep(ctx, c.spec)
	rec.span(0, 0, "cluster.campaign", name, start, time.Now())
	if err != nil {
		return nil, err
	}
	for _, e := range rep.Entries {
		if e.Error != "" {
			t.op(fmt.Errorf("%s/%s: %s", e.Config, e.Benchmark, e.Error))
			continue
		}
		t.op(nil)
		if name == "cold" {
			t.simulated(e.Result.Stats.Instructions) // every cold job simulates once
		}
	}
	if name == "cold" && c.cold == nil {
		c.cold = rep
	}
	return rep.Marshal()
}

// check compares every served result with a direct Engine.Run of the same
// job; those direct results are the canonical ones.
func (c *serveCampaign) check(ctx context.Context, t *tally, rec *recorder) ([]namedResult, error) {
	if c.cold == nil {
		return nil, errors.New("no campaign completed")
	}
	direct := make([]directJob, len(c.jobs))
	for i, j := range c.jobs {
		b, _ := kernels.ByName(j.Benchmark)
		direct[i] = directJob{b, j.Config}
	}
	results, errs := runDirect(ctx, kernels.Small, runtime.NumCPU(), direct, rec)
	var out []namedResult
	for i, e := range c.cold.Entries {
		err := errs[i]
		if err == nil && e.Result != nil {
			err = sameResult(results[i], e.Result, e.Config+"/"+e.Benchmark+": served vs direct")
		}
		t.op(err)
		if errs[i] == nil {
			out = append(out, namedResult{e.Config + "/" + e.Benchmark, c.jobs[i].Config, results[i]})
		}
	}
	sortResults(out)
	return out, ctx.Err()
}

func (c *serveCampaign) probe() probeSpec {
	var benches []*kernels.Benchmark
	for _, name := range c.spec.Benchmarks {
		b, _ := kernels.ByName(name)
		benches = append(benches, b)
	}
	cfg := c.jobs[0].Config
	cfg.CompressLatency, cfg.Compression, cfg.SMParallel = 2, "bdi", 1
	return probeSpec{benches: benches, cfg: cfg, scale: kernels.Small}
}

func (c *serveCampaign) parallelism() (int, int) { return 1, fleetWorkers }

// fleet is one generation of serving processes: the workers, the store
// handle they share, and a coordinator over them.
type fleet struct {
	st      *store.Store
	mgrs    []*jobs.Manager
	servers []*httptest.Server
	tr      *http.Transport
	coord   *cluster.Coordinator
}

func startFleet(ctx context.Context, dir string, watch *campaignWatch, rec *recorder) (*fleet, error) {
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	rec.span(0, 0, "store.open", "", start, time.Now())
	f := &fleet{st: st}
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		mgr := jobs.NewManager(ctx, jobs.Config{Workers: 1, SMParallel: 1, CacheSize: 1024, Scale: kernels.Small, Store: st})
		ts := httptest.NewServer(server.New(mgr).Handler())
		f.mgrs, f.servers = append(f.mgrs, mgr), append(f.servers, ts)
		host := fmt.Sprintf("worker-%d", i)
		addrs[host+":80"] = ts.Listener.Addr().String()
		urls = append(urls, "http://"+host)
	}
	// Workers are addressed by stable names rather than their ephemeral
	// loopback ports, so rendezvous placement — and with it each worker's
	// share of the load — is the same in every pass and every run.
	var d net.Dialer
	f.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return d.DialContext(ctx, network, addrs[addr])
		},
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}
	reg, err := cluster.NewRegistry(urls, cluster.RegistryConfig{})
	if err != nil {
		f.stop(ctx, nil)
		return nil, err
	}
	watch.place(urls)
	f.coord = cluster.New(reg, cluster.Options{
		Concurrency: runtime.NumCPU(),
		Client:      &http.Client{Transport: &tracingTransport{base: f.tr, rec: rec}},
		Progress:    watch.event,
	})
	return f, nil
}

// stop drains and shuts the fleet down, first folding the managers' and
// the store's counters into rec. It returns the store's quarantine count.
func (f *fleet) stop(ctx context.Context, rec *recorder) (uint64, error) {
	var err error
	for _, m := range f.mgrs {
		if derr := m.Drain(ctx); err == nil {
			err = derr
		}
		if rec != nil {
			recordManager(rec, m)
		}
	}
	f.tr.CloseIdleConnections()
	for _, ts := range f.servers {
		ts.Close()
	}
	for _, m := range f.mgrs {
		m.Close()
	}
	ss := f.st.Stats()
	rec.add("store.writes", float64(ss.Writes))
	rec.add("store.hits", float64(ss.Hits))
	rec.add("store.quarantined", float64(ss.Quarantined))
	rec.max("store.bytes", float64(ss.Bytes))
	return ss.Quarantined, err
}

// recordManager folds one manager's counters and its jobs' queue and run
// times into rec.
func recordManager(rec *recorder, m *jobs.Manager) {
	st := m.Stats()
	rec.add("jobs.cache_hits", float64(st.CacheHits))
	rec.add("jobs.cache_misses", float64(st.CacheMisses))
	rec.add("jobs.store_hits", float64(st.StoreHits))
	rec.add("jobs.coalesced", float64(st.Coalesced))
	rec.add("jobs.rejected", float64(st.Rejected))
	for _, v := range m.Jobs() {
		if v.Cached || v.Started == nil || v.Finished == nil {
			continue
		}
		rec.span(0, 0, "jobs.queue_wait", v.ID, v.Created, *v.Started)
		rec.span(0, 0, "jobs.run", v.ID, *v.Started, *v.Finished)
	}
}

// campaignWatch times every campaign job from the coordinator's progress
// stream, from its first placement to its terminal event — the
// client-observed submit-to-done latency — and notes whether the job was
// placed on its rendezvous home.
type campaignWatch struct {
	t    *tally
	rec  *recorder
	keys map[string]string // job name ("config/benchmark") → placement key

	mu    sync.Mutex
	phase string
	home  map[string]string // job name → home worker in the current fleet
	start map[string]time.Time
}

func newCampaignWatch(js []sweep.Job, t *tally, rec *recorder) *campaignWatch {
	keys := map[string]string{}
	for _, j := range js {
		keys[j.Name+"/"+j.Benchmark] = j.Benchmark + "|" + experiments.ConfigSignature(&j.Config)
	}
	return &campaignWatch{t: t, rec: rec, keys: keys}
}

// place computes every job's home in a new fleet.
func (w *campaignWatch) place(urls []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.home = map[string]string{}
	for name, key := range w.keys {
		w.home[name] = cluster.Rank(urls, key)[0]
	}
}

func (w *campaignWatch) begin(phase string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.phase, w.start = phase, map[string]time.Time{}
}

func (w *campaignWatch) event(ev cluster.Event) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case "assign":
		if _, ok := w.start[ev.Job]; ok {
			return // a failover placement; the job's clock is already running
		}
		w.start[ev.Job] = now
		if ev.Worker == w.home[ev.Job] {
			w.rec.add("cluster.home_hits", 1)
		}
	case "failover":
		w.rec.add("cluster.failovers", 1)
	case "done", "failed":
		start := w.start[ev.Job]
		w.rec.span(0, 0, "job."+w.phase, ev.Job, start, now)
		w.t.phase(w.phase, now.Sub(start))
		if w.phase == "cold" {
			w.t.job(now.Sub(start))
		}
	}
}

// tracingTransport times every request the coordinator sends a worker,
// from the request to the close of its response body, as the client sees
// it, and counts retried submissions and resumed event streams.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil || tt.rec == nil {
		return resp, err
	}
	name := "server.fetch"
	switch {
	case req.Method == http.MethodPost:
		name = "server.submit"
	case strings.HasSuffix(req.URL.Path, "/events"):
		name = "server.stream"
		if req.Header.Get("Last-Event-ID") != "" {
			tt.rec.add("cluster.retries", 1)
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		tt.rec.add("cluster.retries", 1)
	}
	result := resp.StatusCode == http.StatusOK && name != "server.stream"
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: tt.rec, name: name, req: req.URL.Path, start: start, result: result}
	return resp, nil
}

// timedBody ends a request's span when the client closes the body.
type timedBody struct {
	io.ReadCloser
	rec    *recorder
	name   string
	req    string
	start  time.Time
	result bool // the body carries a job result
	n      int64
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.rec.span(0, 0, b.name, b.req, b.start, time.Now())
		if b.result {
			b.rec.add("server.result_bytes", float64(b.n))
			b.rec.add("server.results", 1)
		}
	})
	return err
}

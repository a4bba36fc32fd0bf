package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/server"
)

// srvGate mirrors the jobs package's test gate: the zz-srv benchmark
// blocks in Build until the installed channel is closed, letting tests pin
// a job in the running state. The default channel is closed (no blocking).
var srvGate atomic.Value // of chan struct{}

func init() {
	closed := make(chan struct{})
	close(closed)
	srvGate.Store(closed)
	kernels.Register(&kernels.Benchmark{
		Name:        "zz-srv",
		Suite:       "test",
		Description: "blocks in Build until the test releases it",
		Build: func(m *mem.Global, s kernels.Scale) (*kernels.Instance, error) {
			<-srvGate.Load().(chan struct{})
			k, err := asm.Assemble("zz-srv", "\tmov r0, %tid.x\n\texit\n")
			if err != nil {
				return nil, err
			}
			return &kernels.Instance{
				Launch: isa.Launch{Kernel: k, Grid: isa.Dim3{X: 1}, Block: isa.Dim3{X: 32}},
				Check:  func(*mem.Global) error { return nil },
			}, nil
		},
	})
}

func gate(t *testing.T) func() {
	t.Helper()
	ch := make(chan struct{})
	srvGate.Store(ch)
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return release
}

// newServer starts a manager and an httptest server around it.
func newServer(t *testing.T, cfg jobs.Config) (*jobs.Manager, *httptest.Server) {
	t.Helper()
	mgr := jobs.NewManager(context.Background(), cfg)
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(server.New(mgr).Handler())
	t.Cleanup(ts.Close)
	return mgr, ts
}

// submitBody builds the standard test submission: the gated benchmark on a
// small 2-SM machine, with optional extra config overrides.
func submitBody(extra string) string {
	cfg := `"NumSMs": 2`
	if extra != "" {
		cfg += ", " + extra
	}
	return fmt.Sprintf(`{"benchmark": "zz-srv", "config": {%s}}`, cfg)
}

// postJob submits and decodes the response, asserting the expected status.
func postJob(t *testing.T, ts *httptest.Server, body string, wantCode int) jobs.JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/jobs = %d, want %d; body: %s", resp.StatusCode, wantCode, raw)
	}
	if wantCode >= 400 {
		return jobs.JobView{}
	}
	var v jobs.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad job JSON: %v; body: %s", err, raw)
	}
	return v
}

// getJob polls GET /v1/jobs/{id} once.
func getJob(t *testing.T, ts *httptest.Server, id string) jobs.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s = %d", id, resp.StatusCode)
	}
	var v jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJobState polls the HTTP API until the job reaches the wanted state.
func waitJobState(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if want != jobs.StateFailed && v.State == jobs.StateFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.JobView{}
}

func TestHealthVersionBenchmarks(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Binary string `json:"binary"`
		Go     string `json:"go"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Binary != "warpedd" || info.Go == "" {
		t.Fatalf("version = %+v", info)
	}

	resp, err = http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var bl struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
		Scale string `json:"scale"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, b := range bl.Benchmarks {
		found = found || b.Name == "zz-srv"
	}
	if !found || bl.Scale == "" {
		t.Fatalf("benchmarks listing missing zz-srv or scale: %+v", bl)
	}
}

func TestSubmitRoundTrip(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	v := postJob(t, ts, submitBody(""), http.StatusAccepted)
	if v.ID == "" || v.State != jobs.StateQueued && v.State != jobs.StateRunning && v.State != jobs.StateDone {
		t.Fatalf("unexpected submit view: %+v", v)
	}
	done := waitJobState(t, ts, v.ID, jobs.StateDone)
	if done.Result == nil || done.Result.Cycles == 0 {
		t.Fatalf("done without a result: %+v", done)
	}
	if done.Signature == "" || !strings.HasPrefix(done.Signature, "cfg/v1:") {
		t.Fatalf("unversioned signature: %q", done.Signature)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"benchmark": `},
		{"missing benchmark", `{}`},
		{"unknown benchmark", `{"benchmark": "no-such-kernel"}`},
		{"unknown preset", `{"benchmark": "zz-srv", "preset": "turbo"}`},
		{"unknown config field", `{"benchmark": "zz-srv", "config": {"NumSMz": 2}}`},
		{"invalid config", submitBody(`"MaxWarpsPerSM": -1`)},
		{"memory pipe below one warp access", submitBody(`"GlobalMaxInflight": 16`)},
		{"unknown top-level field", `{"benchmark": "zz-srv", "cfg": {}}`},
		{"negative SMParallel", submitBody(`"SMParallel": -2`)},
		{"unknown compression scheme", submitBody(`"Compression": "zstd"`)},
		{"dropped compression spelling", submitBody(`"Compression": "warped"`)},
		{"dropped Mode config key", submitBody(`"Mode": 0`)},
		{"dropped SMEpoch config key", submitBody(`"SMEpoch": 4`)},
		// The request-level aliases of config.SMParallel and
		// config.Compression are gone; an old client gets a 400, never a
		// silently different job.
		{"dropped sm_parallel field", `{"benchmark": "zz-srv", "sm_parallel": 2}`},
		{"dropped compression_scheme field", `{"benchmark": "zz-srv", "compression_scheme": "fpc"}`},
	}
	for _, tc := range cases {
		postJob(t, ts, tc.body, http.StatusBadRequest)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestSubmitSMParallel: config.SMParallel pins the shard count for one
// job; because shard count never changes results, the sharded job must
// share its signature (and thus cache identity) with an unsharded
// submission of the same config.
func TestSubmitSMParallel(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	v := postJob(t, ts, submitBody(`"SMParallel": 2`), http.StatusAccepted)
	done := waitJobState(t, ts, v.ID, jobs.StateDone)
	if done.Result == nil || done.Result.Cycles == 0 {
		t.Fatalf("sharded job finished without a result: %+v", done)
	}
	plain := postJob(t, ts, submitBody(""), http.StatusOK) // cache hit
	if plain.Signature != done.Signature {
		t.Fatalf("SMParallel changed the signature: %q vs %q", done.Signature, plain.Signature)
	}
	if plain.Result == nil || plain.Result.Cycles != done.Result.Cycles {
		t.Fatalf("sharded and unsharded submissions disagree: %+v vs %+v", plain.Result, done.Result)
	}
}

// TestSubmitCompressionScheme: config.Compression picks a registered
// backend for one job. Unlike SMParallel, the scheme changes what the
// simulation computes, so the job must NOT share its cfg/v1 signature (or
// cache entry) with a default-scheme submission.
func TestSubmitCompressionScheme(t *testing.T) {
	mgr := jobs.NewManager(context.Background(), jobs.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	t.Cleanup(mgr.Close)
	srv := server.New(mgr)
	srv.SetDefaultCompression("static")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	fpc := postJob(t, ts, submitBody(`"Compression": "fpc"`), http.StatusAccepted)
	fpcDone := waitJobState(t, ts, fpc.ID, jobs.StateDone)
	if fpcDone.Result == nil || fpcDone.Result.Cycles == 0 {
		t.Fatalf("fpc job finished without a result: %+v", fpcDone)
	}
	if !strings.Contains(fpcDone.Signature, "csfpc") {
		t.Fatalf("signature does not carry the scheme: %q", fpcDone.Signature)
	}

	// A submission that names no scheme falls back to the server default
	// (-compression static here), landing in a distinct cache entry.
	plain := postJob(t, ts, submitBody(""), http.StatusAccepted)
	plainDone := waitJobState(t, ts, plain.ID, jobs.StateDone)
	if plainDone.Signature == fpcDone.Signature {
		t.Fatalf("scheme did not change the signature: %q", fpcDone.Signature)
	}
	if !strings.Contains(plainDone.Signature, "csstatic") {
		t.Fatalf("server default scheme not applied: %q", plainDone.Signature)
	}

	// Explicit config overrides beat the server default.
	over := postJob(t, ts, submitBody(`"Compression": "bdi"`), http.StatusAccepted)
	overDone := waitJobState(t, ts, over.ID, jobs.StateDone)
	if strings.Contains(overDone.Signature, "csstatic") {
		t.Fatalf("server default overrode explicit config: %q", overDone.Signature)
	}
}

// TestSingleFlightAndCache is the tentpole's e2e acceptance scenario over
// HTTP: two concurrent submissions of an identical config run ONE
// underlying simulation, and a third submission is a result-cache hit.
func TestSingleFlightAndCache(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 4, QueueDepth: 16, CacheSize: 16})
	release := gate(t)

	j1 := postJob(t, ts, submitBody(""), http.StatusAccepted)
	waitJobState(t, ts, j1.ID, jobs.StateRunning)
	j2 := postJob(t, ts, submitBody(""), http.StatusAccepted)
	waitJobState(t, ts, j2.ID, jobs.StateRunning)
	// Give the second worker time to reach the engine's single-flight
	// join; it blocks there on the first run's gated Build.
	time.Sleep(300 * time.Millisecond)
	release()

	d1 := waitJobState(t, ts, j1.ID, jobs.StateDone)
	d2 := waitJobState(t, ts, j2.ID, jobs.StateDone)
	if d1.Result.Cycles != d2.Result.Cycles {
		t.Fatalf("coalesced jobs disagree: %d vs %d cycles", d1.Result.Cycles, d2.Result.Cycles)
	}

	j3 := postJob(t, ts, submitBody(""), http.StatusOK) // cache hit: 200, not 202
	if j3.State != jobs.StateDone || !j3.Cached || j3.Result == nil {
		t.Fatalf("third submission not served from cache: %+v", j3)
	}
	if j3.Result.Cycles != d1.Result.Cycles {
		t.Fatalf("cached result diverged: %d vs %d", j3.Result.Cycles, d1.Result.Cycles)
	}

	metrics := scrapeMetrics(t, ts)
	for series, want := range map[string]string{
		"warpedd_jobs_coalesced_total": "1",
		"warpedd_cache_hits_total":     "1",
		"warpedd_jobs_completed_total": "2",
		"warpedd_jobs_failed_total":    "0",
	} {
		if got := metricValue(t, metrics, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
}

func TestQueueFullReturns429(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	release := gate(t)
	defer release()

	j1 := postJob(t, ts, submitBody(`"CompressLatency": 1`), http.StatusAccepted)
	waitJobState(t, ts, j1.ID, jobs.StateRunning)                           // occupies the only worker
	postJob(t, ts, submitBody(`"CompressLatency": 2`), http.StatusAccepted) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(submitBody(`"CompressLatency": 3`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestGracefulDrain is the drain acceptance scenario: in-flight jobs
// finish, /readyz flips to 503, and new submissions are rejected while the
// drain is in progress.
func TestGracefulDrain(t *testing.T) {
	mgr, ts := newServer(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	release := gate(t)

	j1 := postJob(t, ts, submitBody(""), http.StatusAccepted)
	waitJobState(t, ts, j1.ID, jobs.StateRunning)

	readyCode := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if readyCode() != http.StatusOK {
		t.Fatal("not ready before drain")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- mgr.Drain(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for readyCode() != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503")
		}
		time.Sleep(2 * time.Millisecond)
	}
	postJob(t, ts, submitBody(""), http.StatusServiceUnavailable)

	release() // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := getJob(t, ts, j1.ID); v.State != jobs.StateDone {
		t.Fatalf("in-flight job did not finish during drain: %+v", v)
	}
	if readyCode() != http.StatusServiceUnavailable {
		t.Error("/readyz recovered after drain; it must stay 503")
	}
}

func TestSSEStream(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	release := gate(t)

	j := postJob(t, ts, submitBody(""), http.StatusAccepted)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read events as they stream; release the gate once we've seen the job
	// running so the live half of the stream is exercised too.
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			kinds = append(kinds, name)
			if name == "running" {
				release()
			}
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev jobs.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "running", "sim-start", "sim-done", "done"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event stream = %v, want %v", kinds, want)
	}

	// A finished job's stream replays in full and ends immediately.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(replay), "event: "); got != len(want) {
		t.Fatalf("replay has %d events, want %d:\n%s", got, len(want), replay)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentClients hammers the API from 8 clients sharing 3 config
// signatures — the acceptance bar for race-clean serving. Every request
// must succeed and identical signatures must agree on cycles.
func TestConcurrentClients(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 4, QueueDepth: 128, CacheSize: 32})
	const clients, perClient = 8, 3

	var mu sync.Mutex
	cycles := make(map[string]uint64) // signature → cycles
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := submitBody(fmt.Sprintf(`"CompressLatency": %d`, 1+(c+i)%3))
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var v jobs.JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				// Wait for completion over the SSE endpoint: the stream
				// ends when the job does.
				ev, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, ev.Body) //nolint:errcheck
				ev.Body.Close()
				done := getJob(t, ts, v.ID)
				if done.State != jobs.StateDone || done.Result == nil {
					errc <- fmt.Errorf("job %s: %+v", v.ID, done)
					return
				}
				mu.Lock()
				if prev, ok := cycles[done.Signature]; ok && prev != done.Result.Cycles {
					errc <- fmt.Errorf("signature %q: %d vs %d cycles", done.Signature, prev, done.Result.Cycles)
				}
				cycles[done.Signature] = done.Result.Cycles
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if len(cycles) != 3 {
		t.Fatalf("saw %d signatures, want 3", len(cycles))
	}
}

// metricLine matches one Prometheus sample: name, optional labels, value.
// Label values are quoted strings that may themselves contain braces (the
// route "GET /v1/jobs/{id}"), so the label block is matched as a sequence
// of name="quoted" pairs rather than a brace-free span.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z0-9_]+="(\\.|[^"\\])*",?)*\})? [-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// metricValue extracts the value of an unlabeled series.
func metricValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("series %s missing from /metrics", name)
	return ""
}

// TestMetricsExposition checks every sample line parses and the required
// families are present after real traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newServer(t, jobs.Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	v := postJob(t, ts, submitBody(""), http.StatusAccepted)
	waitJobState(t, ts, v.ID, jobs.StateDone)
	postJob(t, ts, submitBody(""), http.StatusOK) // a cache hit

	metrics := scrapeMetrics(t, ts)
	for i, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("line %d does not parse as a Prometheus sample: %q", i+1, line)
		}
	}
	for _, family := range []string{
		"warpedd_jobs_submitted_total",
		"warpedd_jobs_rejected_total",
		"warpedd_jobs_completed_total",
		"warpedd_jobs_failed_total",
		"warpedd_jobs_coalesced_total",
		"warpedd_cache_hits_total",
		"warpedd_cache_misses_total",
		"warpedd_cache_entries",
		"warpedd_sim_cycles_total",
		"warpedd_queue_depth",
		"warpedd_queue_capacity",
		"warpedd_jobs_running",
		"warpedd_workers",
		"warpedd_ready",
		"warpedd_build_info",
		"warpedd_http_requests_total",
		"warpedd_http_request_seconds_bucket",
		"warpedd_http_request_seconds_sum",
		"warpedd_http_request_seconds_count",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	if simc := metricValue(t, metrics, "warpedd_sim_cycles_total"); simc == "0" {
		t.Error("warpedd_sim_cycles_total stayed 0 after a completed job")
	}
	if !strings.Contains(metrics, `warpedd_http_requests_total{route="POST /v1/jobs",code="200"}`) {
		t.Error("request counter not labeled by route and code")
	}
}

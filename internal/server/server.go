// Package server exposes the jobs subsystem over HTTP: a small JSON API for
// submitting simulations and polling results, Server-Sent Events for live
// progress, and operational endpoints (Prometheus /metrics, /healthz,
// /readyz). It holds no execution state of its own — every decision about
// admission, dedup and caching lives in internal/jobs, so the HTTP layer
// stays a thin, testable translation:
//
//	POST /v1/jobs            submit   → 202 queued | 200 cache hit
//	GET  /v1/jobs            list retained jobs
//	GET  /v1/jobs/{id}       job status and result
//	GET  /v1/jobs/{id}/events  progress stream (SSE)
//	GET  /v1/benchmarks      registered workloads
//	GET  /v1/version         build identity
//	GET  /v1/cluster/info    worker identity for the cluster coordinator
//	GET  /metrics            Prometheus text exposition
//	GET  /healthz            liveness    GET /readyz  readiness (503 while draining)
//
// With a tenant roster configured (-tenants), every /v1/jobs endpoint —
// submit, read, and stream — requires a tenant API key, and reads are
// scoped to the caller's tenant; the operational endpoints stay open.
// See DESIGN.md §16.
package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/version"
)

// Server translates HTTP to jobs.Manager calls. Build one with New; it is
// safe for concurrent use by any number of clients.
type Server struct {
	mgr      *jobs.Manager
	mux      *http.ServeMux
	http     *httpStats
	info     version.Info
	instance string

	sseKeepAlive time.Duration // see SetSSEKeepAlive

	defaultCompression string // see SetDefaultCompression
}

// New wires the route table onto mgr. The caller keeps ownership of the
// Manager: shutting down is mgr.Drain + mgr.Close, not a server call, so
// the same drain path serves signal handlers and tests alike.
func New(mgr *jobs.Manager) *Server {
	s := &Server{
		mgr:      mgr,
		mux:      http.NewServeMux(),
		http:     newHTTPStats(),
		info:     version.Get("warpedd"),
		instance: newInstanceID(),
	}
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleList)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handle("GET /v1/jobs/{id}/events", s.handleEvents)
	s.handle("GET /v1/benchmarks", s.handleBenchmarks)
	s.handle("GET /v1/version", s.handleVersion)
	s.handle("GET /v1/cluster/info", s.handleClusterInfo)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	return s
}

// newInstanceID draws the process-unique worker identity reported by
// /v1/cluster/info. It is fresh per Server, so a coordinator can tell a
// restarted worker (same address, new instance) from a live one.
func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// SetSSEKeepAlive overrides how often idle event streams emit a
// `: keep-alive` comment (default 15s). Call it before serving traffic;
// tests and the -sse-keepalive flag use it.
func (s *Server) SetSSEKeepAlive(d time.Duration) {
	if d > 0 {
		s.sseKeepAlive = d
	}
}

// SetDefaultCompression sets the compression setting jobs run under when
// the request's config names none (the -compression flag of warpedd).
// Call it before serving traffic with a name sim.Config.Validate accepts;
// the empty default keeps the preset's setting.
func (s *Server) SetDefaultCompression(name string) {
	s.defaultCompression = name
}

// Handler returns the root handler for an http.Server (or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// handle registers a route and wraps it with request accounting. The mux
// pattern doubles as the metrics route label — http.Request.Pattern would
// give us this for free but needs Go 1.23, and the repo pins 1.22.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.http.observe(pattern, rec.code, time.Since(start).Seconds())
	})
}

// statusRecorder captures the response code for metrics. It forwards
// Flush so SSE streaming works through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiKey extracts the client's API key: X-API-Key wins, then
// Authorization: Bearer. Empty means an unauthenticated request, which the
// Manager maps to the anonymous tenant (or rejects when keys are required).
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
	}
	return ""
}

// authorize resolves the request's API key to its tenant name, writing the
// 401 challenge itself on failure. In single-tenant mode every request
// (keyed or not) succeeds as the default tenant; with a tenant roster
// configured it gates reads as well as submissions — job configs, results
// and trace refs are tenant data, so tenancy must bound who can see them,
// not just who can queue work.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant, err := s.mgr.ResolveAPIKey(apiKey(r))
	if err != nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="warpedd"`)
		writeError(w, http.StatusUnauthorized, "%v", err)
		return "", false
	}
	return tenant, true
}

// canView reports whether tenant may read job: every job in single-tenant
// mode, only its own otherwise. Callers answer a cross-tenant probe with
// the same 404 as a never-issued ID, so job existence is not an oracle.
func (s *Server) canView(job *jobs.Job, tenant string) bool {
	return !s.mgr.MultiTenant() || job.Tenant == tenant
}

// apiError is the JSON error envelope every non-2xx response uses.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitRequest is the POST /v1/jobs body. Config starts from the named
// preset ("warped", the paper configuration, unless "baseline" is asked
// for) and the optional config object overrides individual sim.Config
// fields by their Go names, e.g. {"CompressLatency": 4}. A config that
// names no Compression runs under the server's default
// (SetDefaultCompression); SMParallel pins the job's SM shard count, which
// never changes its result or signature. Mode and trace_ref are additive:
// omitted (or "execute") keeps the classic full simulation; "record" also
// captures a warped.trace/v1 recording and reports its ref in the job
// view, and "replay" re-times a recorded ref under this request's
// configuration. Unknown modes are rejected with 400, never silently
// executed.
type submitRequest struct {
	Benchmark string          `json:"benchmark"`
	Preset    string          `json:"preset"`
	Config    json.RawMessage `json:"config"`
	Mode      string          `json:"mode"`
	TraceRef  string          `json:"trace_ref"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Replay jobs may omit the benchmark: the recording is self-contained
	// and remembers which workload it captured.
	if req.Benchmark == "" && req.Mode != string(jobs.ModeReplay) {
		writeError(w, http.StatusBadRequest, "missing benchmark (see GET /v1/benchmarks)")
		return
	}
	var cfg sim.Config
	switch req.Preset {
	case "", "warped":
		cfg = sim.DefaultConfig()
	case "baseline":
		cfg = sim.BaselineConfig()
	default:
		writeError(w, http.StatusBadRequest, "unknown preset %q (have warped, baseline)", req.Preset)
		return
	}
	if len(req.Config) > 0 {
		over := json.NewDecoder(bytes.NewReader(req.Config))
		over.DisallowUnknownFields()
		if err := over.Decode(&cfg); err != nil {
			writeError(w, http.StatusBadRequest, "bad config overrides: %v", err)
			return
		}
	}
	if cfg.Compression == "" {
		cfg.Compression = s.defaultCompression
	}
	// An unknown compression name or a negative SMParallel is caught by
	// cfg.Validate inside SubmitRequest and mapped to 400 with the other
	// config errors below.

	tenant, ok := s.authorize(w, r)
	if !ok {
		return
	}

	job, err := s.mgr.SubmitRequest(jobs.Request{
		Benchmark: req.Benchmark,
		Config:    cfg,
		Mode:      jobs.Mode(req.Mode),
		TraceRef:  req.TraceRef,
		Tenant:    tenant,
	})
	if err != nil {
		var unknown *jobs.UnknownBenchmarkError
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrTenantQueueFull), errors.Is(err, jobs.ErrRateLimited):
			// All three are backpressure: the client should retry later.
			// Tenant-scoped rejections name the tenant in the error body.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, jobs.ErrUnknownTenant):
			w.Header().Set("WWW-Authenticate", `Bearer realm="warpedd"`)
			writeError(w, http.StatusUnauthorized, "%v", err)
		case errors.Is(err, jobs.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.As(err, &unknown):
			writeError(w, http.StatusBadRequest, "%v (see GET /v1/benchmarks)", err)
		default:
			// Config validation and the trace-mode rejections
			// (*UnknownModeError, *UnknownTraceError, ref/mode mismatches)
			// are all client errors.
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	// 200 means served from the result cache or store, which the job
	// records once at submission; a fresh job that already finished is
	// still a 202.
	view := job.View()
	code := http.StatusAccepted
	if view.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.authorize(w, r)
	if !ok {
		return
	}
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok || !s.canView(job, tenant) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.authorize(w, r)
	if !ok {
		return
	}
	views := s.mgr.Jobs()
	if s.mgr.MultiTenant() {
		scoped := make([]jobs.JobView, 0, len(views))
		for _, v := range views {
			if v.Tenant == tenant {
				scoped = append(scoped, v)
			}
		}
		views = scoped
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.JobView `json:"jobs"`
	}{Jobs: views})
}

// benchmarkInfo is one entry of GET /v1/benchmarks.
type benchmarkInfo struct {
	Name        string `json:"name"`
	Suite       string `json:"suite"`
	Description string `json:"description"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	all := kernels.All()
	infos := make([]benchmarkInfo, len(all))
	for i, b := range all {
		infos[i] = benchmarkInfo{Name: b.Name, Suite: b.Suite, Description: b.Description}
	}
	writeJSON(w, http.StatusOK, struct {
		Benchmarks []benchmarkInfo `json:"benchmarks"`
		Scale      string          `json:"scale"`
	}{Benchmarks: infos, Scale: s.mgr.Scale().String()})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.info)
}

// ClusterInfo is the GET /v1/cluster/info payload: everything a cluster
// coordinator needs to identify and size up a worker. Instance is freshly
// drawn per process, so "same URL, different instance" means the worker
// restarted and its in-memory state (jobs, result cache) is gone.
type ClusterInfo struct {
	Instance      string       `json:"instance"`
	Version       version.Info `json:"version"`
	Scale         string       `json:"scale"`
	Workers       int          `json:"workers"`
	QueueCapacity int          `json:"queue_capacity"`
	CacheEntries  int          `json:"cache_entries"`
	Draining      bool         `json:"draining"`
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	writeJSON(w, http.StatusOK, ClusterInfo{
		Instance:      s.instance,
		Version:       s.info,
		Scale:         s.mgr.Scale().String(),
		Workers:       st.Workers,
		QueueCapacity: st.QueueCapacity,
		CacheEntries:  st.CacheEntries,
		Draining:      st.Draining,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, st, s.http, !st.Draining, s.info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports admission readiness: 200 while SubmitRequest would be
// accepted, 503 once a drain has begun so load balancers stop routing here
// before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.mgr.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

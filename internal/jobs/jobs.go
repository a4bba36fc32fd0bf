// Package jobs is the serving layer's execution subsystem: a bounded FIFO
// job queue with admission control, a worker pool that runs simulations on
// the exported experiments engine (single-flight dedup, retries, panic
// isolation, stall watchdog), and a tiered result lookup — a bounded
// memory layer in front of the optional disk store — keyed by the same
// config signature as the engine, so the two can never drift. Jobs run in
// one of three modes: execute (the classic full simulation), record
// (execute plus capture of the functional front-end as a warped.trace/v1
// launch, retained under a ref in a second tier of the same shape), and
// replay (drive the timing back-end from a stored recording —
// byte-identical results without re-executing the front-end).
// internal/server exposes it over HTTP; see DESIGN.md §13 for the
// backpressure policy and the tiers, §15 for the record/replay split.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/exectrace"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/store"
)

// Admission errors. The server maps them to HTTP statuses: ErrQueueFull →
// 429 (back off and retry), ErrDraining → 503 (the process is going away).
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: draining, not accepting new jobs")
)

// ErrShutdown terminates jobs that were still queued or running when the
// Manager was closed. Their subscribers receive an explicit terminal
// "failed" event carrying this error instead of hanging on a stream that
// will never produce another byte.
var ErrShutdown = errors.New("jobs: manager shut down before the job finished")

// UnknownBenchmarkError rejects a submission naming no registered workload.
type UnknownBenchmarkError struct{ Name string }

func (e *UnknownBenchmarkError) Error() string {
	return fmt.Sprintf("jobs: unknown benchmark %q", e.Name)
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Event is one entry of a job's progress stream, served over SSE by the
// server. Lifecycle events (queued, running, done, failed, and cache-hit or
// store-hit for a submission answered from memory or disk) come from the
// Manager; sim-* and coalesced events are the engine's progress
// stream scoped to this job's (benchmark, signature) key.
type Event struct {
	// Seq is the event's position in the job's history, assigned at append
	// time. It is the SSE event id (`id:` line), which lets a disconnected
	// client resume with Last-Event-ID without replaying what it has seen.
	// Advisory events that are fanned out live but not recorded in the
	// history (e.g. "draining") carry Seq -1.
	Seq       int    `json:"-"`
	Kind      string `json:"kind"`
	Attempt   int    `json:"attempt,omitempty"`
	Cycles    uint64 `json:"cycles,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
	// TraceRef names the stored trace on a record job's terminal "done"
	// event, so a streaming client learns the ref without re-fetching the
	// job view.
	TraceRef string `json:"trace_ref,omitempty"`
}

// Job is one submitted simulation. All mutable state is behind mu; the
// identity fields are immutable after creation.
type Job struct {
	ID        string
	Benchmark string
	Signature string // experiments.ConfigSignature of the submitted config
	Config    sim.Config
	Mode      Mode
	// Tenant is the owning tenant's name when explicit tenants are
	// configured, and empty in single-tenant mode — so single-tenant job
	// views stay byte-identical to every previous release.
	Tenant string

	mu       sync.Mutex
	state    State
	cached   bool
	traceRef string // replay: the input ref; record: set once the trace is stored
	result   *sim.Result
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	events   []Event
	subs     map[chan Event]struct{}
}

// JobView is the JSON representation of a job's current state. Mode and
// TraceRef are additive (omitted when empty), so pre-trace clients see the
// exact payload they always did.
type JobView struct {
	ID        string      `json:"id"`
	Benchmark string      `json:"benchmark"`
	Signature string      `json:"signature"`
	State     State       `json:"state"`
	Mode      Mode        `json:"mode,omitempty"`
	Tenant    string      `json:"tenant,omitempty"`
	TraceRef  string      `json:"trace_ref,omitempty"`
	Cached    bool        `json:"cached,omitempty"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Result    *sim.Result `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Benchmark: j.Benchmark,
		Signature: j.Signature,
		State:     j.state,
		Tenant:    j.Tenant,
		TraceRef:  j.traceRef,
		Cached:    j.cached,
		Created:   j.created,
		Result:    j.result,
	}
	if j.Mode != ModeExecute {
		// Execute is the default; omitting it keeps the payload identical
		// to what pre-trace clients have always received.
		v.Mode = j.Mode
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result and error once finished (nil, nil while
// the job is still queued or running). On an output-mismatch failure both
// are non-nil: fault campaigns need the counters of wrong runs.
func (j *Job) Result() (*sim.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// TraceRef returns the job's trace reference: the input ref of a replay
// job, or — once the job is done — the ref a record job's trace was stored
// under ("" otherwise).
func (j *Job) TraceRef() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceRef
}

// setTraceRef publishes a record job's stored-trace ref; it must be set
// before finish so the terminal event and every later view carry it.
func (j *Job) setTraceRef(ref string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.traceRef = ref
}

// SubscribeFrom returns the job's events with Seq > after (pass -1 for the
// full history) and, when the job is still live, a channel delivering
// subsequent events (closed when the job finishes). A finished job returns
// a nil channel. cancel releases the subscription; it is safe to call
// multiple times and after the close. Slow subscribers do not block the
// engine: each channel is buffered and events beyond the buffer are
// dropped for that subscriber (the full history remains available via a
// fresh subscription or the job view). It is the Last-Event-ID primitive:
// a client that saw event N reconnects with after=N and misses nothing,
// duplicates nothing.
func (j *Job) SubscribeFrom(after int) (replay []Event, ch <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	from := after + 1
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	replay = append([]Event(nil), j.events[from:]...)
	if j.state == StateDone || j.state == StateFailed {
		return replay, nil, func() {}
	}
	c := make(chan Event, 64)
	j.subs[c] = struct{}{}
	return replay, c, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[c]; ok {
			delete(j.subs, c)
			close(c)
		}
	}
}

// append records an event and fans it out to live subscribers.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(ev)
}

func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for c := range j.subs {
		select {
		case c <- ev:
		default: // slow subscriber: drop rather than stall the pipeline
		}
	}
}

// notify fans an advisory event out to live subscribers without recording
// it in the replayable history (its Seq is forced to -1, so it never
// claims an SSE event id).
func (j *Job) notify(ev Event) {
	ev.Seq = -1
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := range j.subs {
		select {
		case c <- ev:
		default:
		}
	}
}

// setRunning transitions queued → running. A job already forced to a
// terminal state (shutdown) stays there.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.appendLocked(Event{Kind: "running"})
}

// finish completes the job, emits the terminal event and closes every
// subscriber channel. It is idempotent: a job can reach a terminal state
// only once, so a worker completing a job the shutdown path already failed
// (or vice versa) is a no-op.
func (j *Job) finish(res *sim.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.result, j.err = res, err
	j.finished = time.Now()
	ev := Event{Kind: "done"}
	if err != nil {
		j.state = StateFailed
		ev = Event{Kind: "failed", Error: err.Error()}
	} else {
		j.state = StateDone
	}
	if res != nil {
		ev.Cycles = res.Cycles
	}
	if j.state == StateDone && j.Mode == ModeRecord {
		ev.TraceRef = j.traceRef
	}
	j.appendLocked(ev)
	for c := range j.subs {
		delete(j.subs, c)
		close(c)
	}
}

// Config sizes the Manager. Zero values get sensible defaults (see
// NewManager).
type Config struct {
	// Workers is the worker-pool width and the engine's parallelism;
	// <= 0 means GOMAXPROCS.
	Workers int
	// SMParallel is the shard count SubmitRequest writes into every
	// submission that leaves sim.Config.SMParallel at 0. <= 0 leaves
	// those at 0, which the engine resolves to GOMAXPROCS divided by
	// Workers. Results are byte-identical at every shard count, so this
	// is invisible to the result and trace tiers.
	SMParallel int
	// QueueDepth bounds the FIFO admission queue; submissions beyond it
	// are rejected with ErrQueueFull. <= 0 means 64.
	QueueDepth int
	// CacheSize bounds the result tier's memory layer in entries, least
	// recently used first; 0 disables it (the disk store is still probed),
	// < 0 means the 1024-entry default.
	CacheSize int
	// RetainJobs bounds how many finished jobs stay queryable; the oldest
	// finished jobs are forgotten beyond it. <= 0 means 1024.
	RetainJobs int
	// TraceStore bounds how many recorded warped.trace/v1 launches stay
	// resident for replay; the least recently used recording is evicted
	// beyond it. Replays referencing an evicted ref fall back to the disk
	// store when one is configured, and fail at submission with
	// *UnknownTraceError otherwise. <= 0 means 16.
	TraceStore int
	// TraceStoreBytes additionally bounds the resident recorded traces by
	// their in-memory size (Launch.MemBytes); <= 0 means no byte budget.
	// Whichever of the two trace bounds is hit first evicts.
	TraceStoreBytes int64
	// Store, when non-nil, is the disk-backed write-through store:
	// completed results and recorded traces are persisted to it
	// asynchronously, and submissions that miss the memory layer are
	// served from it — so a restarted process answers repeat sweeps
	// without re-simulating. The Manager does not close it.
	Store *store.Store
	// Scale is the workload size benchmarks are built at (default Small).
	Scale kernels.Scale
	// Retries and Watchdog configure the engine's per-job robustness
	// exactly as in the experiment runner.
	Retries  int
	Watchdog time.Duration
	// Tenants declares the API tenants (see Tenant). Empty means
	// single-tenant: no authentication, one implicit "default" tenant with
	// no limits — the pre-tenancy behavior, byte-for-byte.
	Tenants []Tenant
}

// Stats is a point-in-time snapshot of the Manager's counters, rendered by
// the server's /metrics endpoint.
type Stats struct {
	Submitted uint64 // admitted jobs (queued at least once)
	Rejected  uint64 // refused: queue full or draining
	Completed uint64 // finished successfully
	Failed    uint64 // finished with an error
	Coalesced uint64 // joined an in-flight identical simulation

	// Reject reasons, split so operators can tell backpressure (queue
	// full, client should retry) from lifecycle (draining, client should
	// go elsewhere). RejectedFull + RejectedDraining == Rejected.
	RejectedFull     uint64
	RejectedDraining uint64

	CacheHits      uint64 // served from the result tier's memory layer
	CacheMisses    uint64
	CacheEvictions uint64 // results dropped from memory by capacity pressure
	CacheEntries   int

	TracesRecorded    uint64 // traces captured by record jobs over the process lifetime
	TraceEvictions    uint64 // recordings dropped by trace-store capacity pressure
	TraceEntries      int    // recordings currently resident and replayable
	TraceBytes        int64  // resident recorded-trace bytes (Launch.MemBytes)
	TraceEvictedBytes uint64 // recorded-trace bytes reclaimed by capacity pressure

	// Disk store counters (all zero when no store is configured).
	StoreEnabled      bool
	StoreHits         uint64 // submissions served from the disk store
	StoreEntries      int
	StoreBytes        int64
	StoreBudget       int64
	StoreWrites       uint64
	StoreWriteErrors  uint64
	StoreQuarantined  uint64
	StoreEvicted      uint64
	StoreEvictedBytes uint64

	SimCycles uint64 // total simulated cycles across completed runs

	Queued        int // jobs waiting in the FIFO
	Running       int // jobs occupying a worker
	QueueCapacity int
	Workers       int
	Draining      bool

	// MultiTenant is true when explicit tenants are configured; Tenants
	// then holds one entry per tenant in configuration order. In
	// single-tenant mode it holds the implicit default tenant.
	MultiTenant bool
	Tenants     []TenantStat
}

// task is one queue entry: the job plus everything a worker needs to run
// it. launch is the resolved trace of a replay job (resolution happens at
// submission, so a worker never discovers a dangling ref).
type task struct {
	job    *Job
	bench  *kernels.Benchmark
	cfg    sim.Config
	launch *exectrace.Launch
}

// Manager owns the queue, the worker pool, the engine and the result and
// trace tiers. Build one with NewManager; shut it down with Drain
// (graceful) and/or Close.
type Manager struct {
	cfg    Config
	eng    *experiments.Engine
	cancel context.CancelFunc

	fq *fairQueue
	wg sync.WaitGroup // workers

	// pending counts admitted-but-unfinished tasks; Drain waits on it.
	pending sync.WaitGroup

	// storeWG counts in-flight write-through persists. Drain and Close wait
	// on it after pending, so a SIGTERM during a sweep never loses a
	// completed result that was still on its way to disk.
	storeWG sync.WaitGroup
	store   *store.Store // nil when no disk store is configured

	// results is keyed by storeKey, traces by trace ref. Their mutexes are
	// leaves below mu.
	results *tier[*sim.Result]
	traces  *tier[storedTrace]

	// testWriteDelay stalls every write-through persist; only the
	// drain-flush test sets it (before any submission), to prove Drain
	// waits for persists that are still in flight.
	testWriteDelay time.Duration

	mu       sync.Mutex
	closed   bool
	draining bool
	jobs     map[string]*Job
	finished []string          // finished job IDs, oldest first (retention ring)
	byKey    map[string][]*Job // running jobs by sim key, for event fanout
	refs     refMint
	nextID   uint64

	submitted, completed, failed      uint64
	rejectedFull, rejectedDraining    uint64
	coalesced, cacheHits, cacheMisses uint64
	storeHits                         uint64
	simCycles                         uint64
	queued, running                   int
}

// NewManager builds and starts a Manager. ctx bounds every simulation it
// will ever run; canceling it aborts in-flight work (Close does this too).
func NewManager(ctx context.Context, cfg Config) *Manager {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize < 0 {
		cfg.CacheSize = 1024
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.TraceStore <= 0 {
		cfg.TraceStore = 16
	}
	ctx, cancel := context.WithCancel(ctx)
	m := &Manager{
		cfg:     cfg,
		cancel:  cancel,
		fq:      newFairQueue(cfg.QueueDepth, cfg.Tenants),
		jobs:    make(map[string]*Job),
		byKey:   make(map[string][]*Job),
		store:   cfg.Store,
		results: newTier[*sim.Result](cfg.CacheSize, 0, nil),
		traces:  newTier(cfg.TraceStore, cfg.TraceStoreBytes, storedTrace.memBytes),
		// Trace refs carry a per-process nonce, so recordings persisted by
		// a previous process (or a live peer sharing the store directory)
		// can never collide with refs this process mints — no startup scan
		// needed; replays of old refs resolve through the disk store on
		// demand.
		refs: refMint{nonce: refNonce()},
	}
	if cfg.Store != nil {
		m.results.backedBy(cfg.Store, store.NSResult, resultCodec, m.writeBehind)
		m.traces.backedBy(cfg.Store, store.NSTrace, traceCodec(cfg.Scale), m.writeBehind)
	}
	m.eng = experiments.NewEngine(ctx, experiments.EngineConfig{
		Parallelism: cfg.Workers,
		Scale:       cfg.Scale,
		Retries:     cfg.Retries,
		Watchdog:    cfg.Watchdog,
		Progress:    m.onEngineEvent,
		// No engine memoization: the result tier is the retention policy;
		// the engine contributes single-flight dedup only.
		Memoize: false,
	})
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// key is the shared cache/single-flight identity of a submission.
func key(benchmark, signature string) string { return benchmark + "|" + signature }

// storeKey is the result tier's key, in memory and on disk. It prefixes
// the single-flight key with the workload scale because ConfigSignature
// covers only the sim configuration — the same config at a different scale
// is a different simulation, and the disk store outlives any single
// process's -scale flag.
func (m *Manager) storeKey(benchmark, signature string) string {
	return m.cfg.Scale.String() + "|" + key(benchmark, signature)
}

// resultCodec persists results as their warped.sim.result/v1 JSON.
var resultCodec = codec[*sim.Result]{
	encode: func(res *sim.Result) ([]byte, error) { return json.Marshal(res) },
	decode: func(data []byte) (*sim.Result, error) {
		res := new(sim.Result)
		return res, json.Unmarshal(data, res)
	},
}

// writeBehind runs one write-through persist on its own goroutine under
// storeWG, so Drain and Close flush it before returning.
func (m *Manager) writeBehind(write func()) {
	m.storeWG.Add(1)
	go func() {
		defer m.storeWG.Done()
		if m.testWriteDelay > 0 {
			time.Sleep(m.testWriteDelay)
		}
		write()
	}()
}

// Request is one job submission: a benchmark and configuration, plus the
// optional trace-mode fields. Mode "" (and "execute") is the classic full
// simulation; "record" additionally captures the functional execution as a
// warped.trace/v1 launch and stores it under a ref; "replay" drives the
// timing back-end from a previously recorded ref — byte-identical results
// without re-executing the front-end. Replay may leave Benchmark empty
// (the trace is self-contained and remembers it); a non-empty Benchmark
// must match the recording.
type Request struct {
	Benchmark string
	Config    sim.Config
	Mode      Mode
	TraceRef  string // replay input ref; must be empty in every other mode
	// Tenant is the submitting tenant's name, resolved from the API key by
	// the server (ResolveAPIKey). Empty means the anonymous tenant: the
	// implicit default in single-tenant mode, the keyless tenant otherwise.
	Tenant string
}

// SubmitRequest validates and admits one job. It returns the job
// immediately: completed (answered from memory or disk), or queued for the
// worker pool. Admission failures: ErrDraining once a drain has begun,
// ErrQueueFull when the FIFO is at capacity, *UnknownBenchmarkError /
// *UnknownModeError / *UnknownTraceError / config validation errors for
// bad requests.
func (m *Manager) SubmitRequest(req Request) (*Job, error) {
	mode, b, err := validate(req)
	if err != nil {
		return nil, err
	}
	cfg := req.Config
	if cfg.SMParallel == 0 && m.cfg.SMParallel > 0 {
		cfg.SMParallel = m.cfg.SMParallel
	}

	m.mu.Lock()
	draining := m.drainingLocked()
	tenant, known := m.fq.tenantByName(req.Tenant)
	m.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	if !known {
		return nil, fmt.Errorf("tenant %q: %w", req.Tenant, ErrUnknownTenant)
	}

	// The tiers probe the disk, so they are consulted without m.mu: a
	// store read must not stall submissions, job completion and stats
	// behind disk latency.
	benchmark := req.Benchmark
	var launch *exectrace.Launch
	if mode == ModeReplay {
		st, _, ok := m.traces.get(req.TraceRef)
		if !ok {
			return nil, &UnknownTraceError{Ref: req.TraceRef}
		}
		if benchmark != "" && benchmark != st.benchmark {
			return nil, fmt.Errorf("jobs: trace %s records benchmark %q, not %q", req.TraceRef, st.benchmark, benchmark)
		}
		benchmark, launch = st.benchmark, st.launch
	}
	signature := experiments.ConfigSignature(&cfg)
	// Record jobs exist to capture a trace, so a stored result must not
	// short-circuit them; execute and replay jobs produce byte-identical
	// results by contract and share the result tier freely.
	var (
		res  *sim.Result
		from layer
		hit  bool
	)
	if mode != ModeRecord {
		res, from, hit = m.results.get(m.storeKey(benchmark, signature))
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.drainingLocked() {
		return nil, ErrDraining
	}
	if mode != ModeRecord {
		if hit && from == fromMemory {
			m.cacheHits++
			return m.servedJobLocked(benchmark, signature, cfg, mode, req.TraceRef, tenant.viewName, "cache-hit", res), nil
		}
		m.cacheMisses++
		if hit {
			m.storeHits++
			return m.servedJobLocked(benchmark, signature, cfg, mode, req.TraceRef, tenant.viewName, "store-hit", res), nil
		}
	}
	// From here the submission will consume a worker. Admission is one
	// atomic check: global depth, tenant quota, then the tenant's rate —
	// in that order, so a submission into a full queue is never charged a
	// rate token for work that was not admitted. Memory and disk hits
	// above are free: re-reading a result the fleet already paid for is
	// not load.
	job := m.newJobLocked(benchmark, signature, cfg, mode, req.TraceRef)
	job.Tenant = tenant.viewName
	job.state = StateQueued
	job.events = []Event{{Kind: "queued"}}
	m.pending.Add(1)
	if err := m.fq.admit(tenant, task{job: job, bench: b, cfg: cfg, launch: launch}); err != nil {
		m.pending.Done()
		if !errors.Is(err, ErrRateLimited) {
			m.rejectedFull++
		}
		return nil, err
	}
	m.submitted++
	m.queued++
	m.jobs[job.ID] = job
	return job, nil
}

// validate checks everything about a request that needs no Manager state
// and returns its mode and, outside replay (where the trace names it), its
// benchmark.
func validate(req Request) (Mode, *kernels.Benchmark, error) {
	mode, err := parseMode(string(req.Mode))
	if err != nil {
		return "", nil, err
	}
	if req.TraceRef != "" && mode != ModeReplay {
		return "", nil, fmt.Errorf("jobs: trace_ref is only valid with mode \"replay\" (got mode %q)", mode)
	}
	if mode == ModeReplay && req.TraceRef == "" {
		return "", nil, fmt.Errorf("jobs: mode \"replay\" requires a trace_ref (record one first)")
	}
	if mode != ModeExecute && req.Config.Faults.Enabled() {
		return "", nil, &sim.ConfigError{Field: "Faults", Reason: "fault injection corrupts functional state at commit time; record and replay require a fault-free functional front-end"}
	}
	var b *kernels.Benchmark
	if mode != ModeReplay {
		var ok bool
		if b, ok = kernels.ByName(req.Benchmark); !ok {
			return "", nil, &UnknownBenchmarkError{Name: req.Benchmark}
		}
	}
	return mode, b, req.Config.Validate()
}

// drainingLocked reports whether a drain has begun, counting the
// submission it refuses. Caller holds m.mu.
func (m *Manager) drainingLocked() bool {
	if m.draining {
		m.rejectedDraining++
	}
	return m.draining
}

// servedJobLocked registers a job that is already complete at submission —
// a memory or disk hit — with the event kind naming which layer served it.
// Caller holds m.mu.
func (m *Manager) servedJobLocked(benchmark, signature string, cfg sim.Config, mode Mode, traceRef, tenantView, kind string, res *sim.Result) *Job {
	job := m.newJobLocked(benchmark, signature, cfg, mode, traceRef)
	job.Tenant = tenantView
	job.state = StateDone
	job.cached = true
	job.result = res
	job.finished = job.created
	job.events = []Event{{Kind: kind, Cycles: res.Cycles}}
	m.jobs[job.ID] = job
	m.retainLocked(job)
	return job
}

// newJobLocked allocates a job (caller holds m.mu for the ID counter).
// The caller finishes initializing it and registers it in m.jobs — in that
// order, so a concurrently held m.mu snapshot never sees a half-built job.
func (m *Manager) newJobLocked(benchmark, signature string, cfg sim.Config, mode Mode, traceRef string) *Job {
	m.nextID++
	return &Job{
		ID:        fmt.Sprintf("job-%06d", m.nextID),
		Benchmark: benchmark,
		Signature: signature,
		Config:    cfg,
		Mode:      mode,
		traceRef:  traceRef,
		created:   time.Now(),
		subs:      make(map[chan Event]struct{}),
	}
}

// retainLocked records a finished job in the retention ring, forgetting
// the oldest finished job beyond the cap. Caller holds m.mu.
func (m *Manager) retainLocked(j *Job) {
	m.finished = append(m.finished, j.ID)
	for len(m.finished) > m.cfg.RetainJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every retained job, oldest submission first.
func (m *Manager) Jobs() []JobView {
	m.mu.Lock()
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	views := make([]JobView, len(all))
	for i, j := range all {
		views[i] = j.View()
	}
	// IDs are zero-padded monotonic counters, so a lexical sort is
	// submission order.
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	return views
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		t, ok := m.fq.next()
		if !ok {
			return
		}
		m.runJob(t)
		m.pending.Done()
	}
}

// ResolveAPIKey maps a client-presented API key to its tenant name for
// Request.Tenant. In single-tenant mode every key (including none)
// resolves to the default tenant; otherwise an unknown key — or a missing
// key when no keyless tenant is configured — fails with ErrUnknownTenant,
// which the server maps to 401.
func (m *Manager) ResolveAPIKey(key string) (string, error) {
	return m.fq.resolveKey(key)
}

// MultiTenant reports whether explicit tenants are configured.
func (m *Manager) MultiTenant() bool { return m.fq.multi }

// runJob executes one admitted task on the engine and completes its job.
func (m *Manager) runJob(t task) {
	k := key(t.job.Benchmark, t.job.Signature)
	m.mu.Lock()
	m.queued--
	m.running++
	m.byKey[k] = append(m.byKey[k], t.job)
	m.mu.Unlock()
	t.job.setRunning()

	var (
		res *sim.Result
		lt  *exectrace.Launch
		err error
	)
	switch t.job.Mode {
	case ModeRecord:
		res, lt, err = m.eng.Record(t.bench, t.cfg)
	case ModeReplay:
		res, err = m.eng.Replay(t.job.Benchmark, t.launch, t.cfg)
	default:
		res, err = m.eng.Run(t.bench, t.cfg)
	}

	m.mu.Lock()
	if err == nil && lt != nil {
		ref := m.refs.next()
		m.traces.put(ref, storedTrace{benchmark: t.job.Benchmark, launch: lt})
		t.job.setTraceRef(ref)
	}
	m.running--
	peers := m.byKey[k]
	for i, j := range peers {
		if j == t.job {
			m.byKey[k] = append(peers[:i], peers[i+1:]...)
			break
		}
	}
	if len(m.byKey[k]) == 0 {
		delete(m.byKey, k)
	}
	if err == nil && res != nil {
		m.results.put(m.storeKey(t.job.Benchmark, t.job.Signature), res)
	}
	if res != nil {
		m.simCycles += res.Cycles
	}
	if err != nil {
		m.failed++
	} else {
		m.completed++
	}
	m.retainLocked(t.job)
	m.mu.Unlock()
	t.job.finish(res, err)
}

// onEngineEvent scopes the engine's progress stream to the jobs currently
// running under the event's (benchmark, signature) key.
func (m *Manager) onEngineEvent(ev experiments.Event) {
	k := key(ev.Benchmark, ev.Config)
	m.mu.Lock()
	if ev.Kind == experiments.EventCacheHit {
		m.coalesced++
	}
	targets := append([]*Job(nil), m.byKey[k]...)
	m.mu.Unlock()
	je := Event{Attempt: ev.Attempt, Cycles: ev.Cycles}
	switch ev.Kind {
	case experiments.EventJobStart:
		je.Kind = "sim-start"
	case experiments.EventJobDone:
		je.Kind = "sim-done"
		je.ElapsedMS = ev.Elapsed.Milliseconds()
		if ev.Err != nil {
			je.Error = ev.Err.Error()
		}
	case experiments.EventJobRetry:
		je.Kind = "sim-retry"
		if ev.Err != nil {
			je.Error = ev.Err.Error()
		}
	case experiments.EventCacheHit:
		je.Kind = "coalesced"
	default:
		je.Kind = ev.Kind.String()
	}
	for _, j := range targets {
		j.append(je)
	}
}

// Draining reports whether a drain has begun (readiness probes key off it).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops admission (subsequent Submits fail with ErrDraining) and
// waits for every admitted job — queued and running — to finish, or for
// ctx to expire, whichever comes first. It does not stop the workers; call
// Close afterwards. Drain is idempotent.
//
// Every open event subscription receives an advisory "draining" event
// immediately, so streaming clients (the cluster coordinator above all)
// learn the process is going away while their job is still in flight and
// can arrange failover instead of discovering it via a TCP timeout.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	live := m.unfinishedLocked()
	m.mu.Unlock()
	for _, j := range live {
		j.notify(Event{Kind: "draining"})
	}
	done := make(chan struct{})
	go func() {
		m.pending.Wait()
		// Jobs are finished; now flush the write-through persists they
		// spawned. A SIGTERM during a sweep must never lose a completed
		// result that was still on its way to the disk store.
		m.storeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain aborted with work in flight: %w", ctx.Err())
	}
}

// Close shuts the Manager down: admission stops, the engine's context is
// canceled (aborting any in-flight simulations — Drain first for a
// graceful exit), and the workers are joined. Jobs that were still queued
// or running are failed with ErrShutdown, which delivers an explicit
// terminal "failed" event to their subscribers and closes the streams —
// no SSE client is left hanging on a job that will never finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.draining = true
		m.fq.close()
	}
	live := m.unfinishedLocked()
	m.mu.Unlock()
	m.cancel()
	for _, j := range live {
		j.finish(nil, ErrShutdown)
	}
	m.wg.Wait()
	m.storeWG.Wait()
}

// unfinishedLocked snapshots every job not yet in a terminal state.
// Caller holds m.mu.
func (m *Manager) unfinishedLocked() []*Job {
	var live []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed
		j.mu.Unlock()
		if !terminal {
			live = append(live, j)
		}
	}
	return live
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	// Snapshot the disk store before taking m.mu: its counters live behind
	// the store's own lock, and the two are never held together.
	var ss store.Stats
	enabled := m.store != nil
	if enabled {
		ss = m.store.Stats()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ts := m.results.stats(), m.traces.stats()
	return Stats{
		Submitted:         m.submitted,
		Rejected:          m.rejectedFull + m.rejectedDraining,
		RejectedFull:      m.rejectedFull,
		RejectedDraining:  m.rejectedDraining,
		Completed:         m.completed,
		Failed:            m.failed,
		Coalesced:         m.coalesced,
		CacheHits:         m.cacheHits,
		CacheMisses:       m.cacheMisses,
		CacheEvictions:    rs.evictions,
		CacheEntries:      rs.entries,
		TracesRecorded:    m.refs.minted,
		TraceEvictions:    ts.evictions,
		TraceEntries:      ts.entries,
		TraceBytes:        ts.bytes,
		TraceEvictedBytes: ts.evictedBytes,
		StoreEnabled:      enabled,
		StoreHits:         m.storeHits,
		StoreEntries:      ss.Entries,
		StoreBytes:        ss.Bytes,
		StoreBudget:       ss.Budget,
		StoreWrites:       ss.Writes,
		StoreWriteErrors:  ss.WriteErrors,
		StoreQuarantined:  ss.Quarantined,
		StoreEvicted:      ss.Evicted,
		StoreEvictedBytes: ss.EvictedBytes,
		SimCycles:         m.simCycles,
		Queued:            m.queued,
		Running:           m.running,
		QueueCapacity:     m.cfg.QueueDepth,
		Workers:           m.cfg.Workers,
		Draining:          m.draining,
		MultiTenant:       m.fq.multi,
		Tenants:           m.fq.snapshot(),
	}
}

// Scale reports the workload size served jobs are built at.
func (m *Manager) Scale() kernels.Scale { return m.cfg.Scale }

package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Per-tenant admission errors. The server maps ErrTenantQueueFull and
// ErrRateLimited to 429 (the tenant hit its own limits, the fleet is fine)
// and ErrUnknownTenant to 401.
var (
	ErrTenantQueueFull = errors.New("jobs: tenant queue quota exceeded")
	ErrRateLimited     = errors.New("jobs: tenant rate limit exceeded")
	ErrUnknownTenant   = errors.New("jobs: unknown tenant or API key")
)

// DefaultTenant is the implicit tenant every submission belongs to when no
// explicit tenants are configured: one queue, weight 1, no key, no limits —
// exactly the pre-tenancy behavior.
const DefaultTenant = "default"

// Tenant declares one API tenant: its identity (Name, API Key), its
// fair-share Weight in the admission queue, and its limits. The zero limits
// mean unlimited; Weight <= 0 means 1.
type Tenant struct {
	// Name labels the tenant in job views, stats and metrics.
	Name string `json:"name"`
	// Key is the API key presented via X-API-Key or Authorization: Bearer.
	// At most one tenant may have an empty key; it receives every
	// unauthenticated request (remove it to require keys on every call).
	Key string `json:"key"`
	// Weight is the tenant's share of worker time when queues contend:
	// a weight-3 tenant is dispatched 3× as often as a weight-1 tenant.
	Weight int `json:"weight"`
	// MaxQueued caps this tenant's queued (not running) jobs; beyond it
	// submissions fail with ErrTenantQueueFull. <= 0 means only the global
	// queue depth applies.
	MaxQueued int `json:"max_queued"`
	// RatePerSec token-bucket-limits compute admissions per second.
	// Submissions served from the result cache or the disk store are free:
	// the limit protects simulation capacity, not lookups. <= 0 disables.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the token bucket depth (default: RatePerSec rounded up, at
	// least 1).
	Burst int `json:"burst"`
}

// ParseTenants decodes and validates a JSON tenant roster (the -tenants
// file): a non-empty array of Tenant objects with unique names and unique
// keys, at most one of them anonymous (empty key).
func ParseTenants(r io.Reader) ([]Tenant, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tenants []Tenant
	if err := dec.Decode(&tenants); err != nil {
		return nil, fmt.Errorf("jobs: tenants: %w", err)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("jobs: tenants: roster is empty")
	}
	names := make(map[string]bool)
	keys := make(map[string]bool)
	anonymous := false
	for i, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("jobs: tenants[%d]: missing name", i)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("jobs: tenants: duplicate name %q", t.Name)
		}
		names[t.Name] = true
		if t.Key == "" {
			if anonymous {
				return nil, fmt.Errorf("jobs: tenants: more than one anonymous tenant (empty key)")
			}
			anonymous = true
		} else {
			if keys[t.Key] {
				return nil, fmt.Errorf("jobs: tenants: duplicate key (tenant %q)", t.Name)
			}
			keys[t.Key] = true
		}
		if t.Weight < 0 || t.MaxQueued < 0 || t.RatePerSec < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("jobs: tenants[%d] (%q): negative limit", i, t.Name)
		}
	}
	return tenants, nil
}

// TenantStat is one tenant's slice of Stats.
type TenantStat struct {
	Name          string
	Weight        int
	Queued        int
	Submitted     uint64 // jobs this tenant pushed into the queue
	RejectedQuota uint64 // submissions refused by MaxQueued
	RejectedRate  uint64 // submissions refused by RatePerSec
}

// tenantState is one tenant's runtime side: its FIFO queue, its smooth-WRR
// credit, and its token bucket. All fields are guarded by fairQueue.mu.
type tenantState struct {
	spec     Tenant
	viewName string // stamped on jobs; empty in single-tenant mode (byte-compat)

	queue   []task
	current int // smooth weighted-round-robin credit

	tokens   float64
	lastFill time.Time

	submitted, rejectedQuota, rejectedRate uint64
}

// fairQueue is the multi-tenant admission queue that replaces the plain
// FIFO channel: each tenant has its own FIFO, and workers dispatch across
// the non-empty ones by smooth weighted round-robin, so one tenant's
// campaign can delay but never starve another's. It enforces the global
// depth, each tenant's queue quota, and each tenant's token-bucket rate.
//
// Lock ordering: fairQueue.mu nests strictly inside Manager.mu (the submit
// path calls in with m.mu held; workers call next without it).
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	depth  int // global queue capacity
	size   int // total queued across tenants
	closed bool

	multi  bool // explicit tenants configured
	order  []*tenantState
	byName map[string]*tenantState
	byKey  map[string]*tenantState // non-empty keys only
	anon   *tenantState            // tenant for unauthenticated requests, nil if keys required
}

func newFairQueue(depth int, tenants []Tenant) *fairQueue {
	fq := &fairQueue{
		depth:  depth,
		multi:  len(tenants) > 0,
		byName: make(map[string]*tenantState),
		byKey:  make(map[string]*tenantState),
	}
	fq.cond = sync.NewCond(&fq.mu)
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: DefaultTenant}}
	}
	now := time.Now()
	for _, t := range tenants {
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.RatePerSec > 0 && t.Burst <= 0 {
			t.Burst = int(t.RatePerSec)
			if float64(t.Burst) < t.RatePerSec {
				t.Burst++
			}
			if t.Burst < 1 {
				t.Burst = 1
			}
		}
		ts := &tenantState{spec: t, tokens: float64(t.Burst), lastFill: now}
		if fq.multi {
			ts.viewName = t.Name
		}
		fq.order = append(fq.order, ts)
		fq.byName[t.Name] = ts
		if t.Key != "" {
			fq.byKey[t.Key] = ts
		} else {
			fq.anon = ts
		}
	}
	return fq
}

// resolveKey maps a client-presented API key to its tenant name. In
// single-tenant mode every key (including none) is the default tenant; in
// multi-tenant mode an unknown key — or a missing key with no anonymous
// tenant — is ErrUnknownTenant.
func (fq *fairQueue) resolveKey(key string) (string, error) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if !fq.multi {
		return DefaultTenant, nil
	}
	if key == "" {
		if fq.anon == nil {
			return "", ErrUnknownTenant
		}
		return fq.anon.spec.Name, nil
	}
	if ts, ok := fq.byKey[key]; ok {
		return ts.spec.Name, nil
	}
	return "", ErrUnknownTenant
}

// tenantByName resolves a submission's tenant. The empty name means "the
// anonymous tenant": the implicit default in single-tenant mode, the
// keyless tenant otherwise.
func (fq *fairQueue) tenantByName(name string) (*tenantState, bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if name == "" {
		return fq.anon, fq.anon != nil
	}
	ts, ok := fq.byName[name]
	return ts, ok
}

// allowRateLocked spends one token from the tenant's bucket, refilling it
// from wall time first. Caller holds fq.mu. It is invoked only for
// submissions that will consume a worker — cache and store hits are never
// charged.
func (fq *fairQueue) allowRateLocked(ts *tenantState) bool {
	if ts.spec.RatePerSec <= 0 {
		return true
	}
	now := time.Now()
	ts.tokens += now.Sub(ts.lastFill).Seconds() * ts.spec.RatePerSec
	ts.lastFill = now
	if max := float64(ts.spec.Burst); ts.tokens > max {
		ts.tokens = max
	}
	if ts.tokens < 1 {
		ts.rejectedRate++
		return false
	}
	ts.tokens--
	return true
}

// admit performs every admission check and the enqueue in one critical
// section: global depth first (the fleet is full: ErrQueueFull), tenant
// quota second (only this tenant is over: ErrTenantQueueFull), the
// tenant's rate last — so a submission refused for congestion never
// spends a rate token it got nothing for.
func (fq *fairQueue) admit(ts *tenantState, t task) error {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return ErrDraining
	}
	if fq.size >= fq.depth {
		return ErrQueueFull
	}
	if ts.spec.MaxQueued > 0 && len(ts.queue) >= ts.spec.MaxQueued {
		ts.rejectedQuota++
		return fmt.Errorf("tenant %q: %w", ts.spec.Name, ErrTenantQueueFull)
	}
	if !fq.allowRateLocked(ts) {
		return fmt.Errorf("tenant %q: %w", ts.spec.Name, ErrRateLimited)
	}
	ts.queue = append(ts.queue, t)
	ts.submitted++
	fq.size++
	fq.cond.Signal()
	return nil
}

// next blocks until a task is available and returns it, choosing among
// tenants with queued work by smooth weighted round-robin. After close it
// keeps returning queued tasks until every queue is empty, then reports
// false — exactly the drain semantics of a closed channel.
func (fq *fairQueue) next() (task, bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if fq.size > 0 {
			return fq.pickLocked(), true
		}
		if fq.closed {
			return task{}, false
		}
		fq.cond.Wait()
	}
}

// pickLocked runs one round of smooth WRR over the tenants that have work:
// every contender gains its weight, the richest is dispatched and pays the
// round's total back. Over time each backlogged tenant is served in
// proportion to its weight, with no bursts (the "smooth" property).
func (fq *fairQueue) pickLocked() task {
	var total int
	var winner *tenantState
	for _, ts := range fq.order {
		if len(ts.queue) == 0 {
			continue
		}
		total += ts.spec.Weight
		ts.current += ts.spec.Weight
		if winner == nil || ts.current > winner.current {
			winner = ts
		}
	}
	winner.current -= total
	t := winner.queue[0]
	winner.queue[0] = task{} // release references
	winner.queue = winner.queue[1:]
	if len(winner.queue) == 0 {
		winner.queue = nil // don't pin a grown backing array
		winner.current = 0 // a drained tenant re-contends from scratch
	}
	fq.size--
	return t
}

// close stops admission and wakes every blocked worker. Queued tasks are
// still handed out; see next.
func (fq *fairQueue) close() {
	fq.mu.Lock()
	fq.closed = true
	fq.mu.Unlock()
	fq.cond.Broadcast()
}

// snapshot returns per-tenant stats in configuration order.
func (fq *fairQueue) snapshot() []TenantStat {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	out := make([]TenantStat, len(fq.order))
	for i, ts := range fq.order {
		out[i] = TenantStat{
			Name:          ts.spec.Name,
			Weight:        ts.spec.Weight,
			Queued:        len(ts.queue),
			Submitted:     ts.submitted,
			RejectedQuota: ts.rejectedQuota,
			RejectedRate:  ts.rejectedRate,
		}
	}
	return out
}

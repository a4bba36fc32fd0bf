package jobs_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/sim"
)

// twoTenants is a minimal roster: alice (keyed) and a keyless guest.
func twoTenants() []jobs.Tenant {
	return []jobs.Tenant{
		{Name: "alice", Key: "key-alice", Weight: 2},
		{Name: "guest", Weight: 1},
	}
}

// TestResolveAPIKey covers the auth matrix for both tenancy modes.
func TestResolveAPIKey(t *testing.T) {
	single := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4})
	if single.MultiTenant() {
		t.Fatal("manager with no roster reports multi-tenant")
	}
	for _, key := range []string{"", "anything"} {
		name, err := single.ResolveAPIKey(key)
		if err != nil || name != jobs.DefaultTenant {
			t.Fatalf("single-tenant ResolveAPIKey(%q) = %q, %v; want default tenant", key, name, err)
		}
	}

	multi := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4, Tenants: twoTenants()})
	if !multi.MultiTenant() {
		t.Fatal("manager with a roster reports single-tenant")
	}
	if name, err := multi.ResolveAPIKey("key-alice"); err != nil || name != "alice" {
		t.Fatalf("ResolveAPIKey(key-alice) = %q, %v", name, err)
	}
	if name, err := multi.ResolveAPIKey(""); err != nil || name != "guest" {
		t.Fatalf("keyless request = %q, %v; want the keyless tenant", name, err)
	}
	if _, err := multi.ResolveAPIKey("wrong"); !errors.Is(err, jobs.ErrUnknownTenant) {
		t.Fatalf("bad key err = %v, want ErrUnknownTenant", err)
	}
}

// TestTenantQuotaRejection: a tenant at its MaxQueued cap is rejected
// with ErrTenantQueueFull while other tenants keep submitting.
func TestTenantQuotaRejection(t *testing.T) {
	release := gate(t)
	m := newManager(t, jobs.Config{
		Workers: 1, QueueDepth: 16, CacheSize: 0,
		Tenants: []jobs.Tenant{
			{Name: "capped", Key: "kc", MaxQueued: 1},
			{Name: "free", Key: "kf"},
		},
	})
	cfgAt := func(lat int) sim.Config {
		c := testConfig()
		c.CompressLatency = lat
		return c
	}
	submit := func(tenant string, lat int) error {
		_, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgAt(lat), Tenant: tenant})
		return err
	}

	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfgAt(1), Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, jobs.StateRunning) // occupies the only worker
	if err := submit("capped", 2); err != nil {
		t.Fatalf("submit within quota: %v", err)
	}
	err = submit("capped", 3)
	if !errors.Is(err, jobs.ErrTenantQueueFull) {
		t.Fatalf("over-quota err = %v, want ErrTenantQueueFull", err)
	}
	if !strings.Contains(err.Error(), "capped") {
		t.Fatalf("quota error %q does not name the tenant", err)
	}
	// The shared queue has room: another tenant is unaffected.
	if err := submit("free", 4); err != nil {
		t.Fatalf("other tenant blocked by capped tenant's quota: %v", err)
	}

	var capped jobs.TenantStat
	for _, ts := range m.Stats().Tenants {
		if ts.Name == "capped" {
			capped = ts
		}
	}
	if capped.RejectedQuota != 1 {
		t.Fatalf("tenant stats = %+v, want capped.RejectedQuota == 1", m.Stats().Tenants)
	}
	release()
}

// TestTenantRateLimit: the token bucket only charges submissions that
// reach compute — cache hits are free, so repeat sweeps never rate-limit.
func TestTenantRateLimit(t *testing.T) {
	m := newManager(t, jobs.Config{
		Workers: 2, QueueDepth: 8, CacheSize: 8,
		Tenants: []jobs.Tenant{{Name: "slow", Key: "ks", RatePerSec: 0.000001, Burst: 1}},
	})
	j, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Tenant: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	// Same config again: a cache hit, admitted without spending a token.
	j2, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Tenant: "slow"})
	if err != nil {
		t.Fatalf("cache hit was rate-limited: %v", err)
	}
	if j2.State() != jobs.StateDone {
		t.Fatalf("repeat submission state = %s, want cached StateDone", j2.State())
	}

	// A new configuration needs compute and the bucket is empty.
	cfg := testConfig()
	cfg.CompressLatency = 9
	_, err = m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: cfg, Tenant: "slow"})
	if !errors.Is(err, jobs.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if ts := m.Stats().Tenants; len(ts) != 1 || ts[0].RejectedRate != 1 {
		t.Fatalf("tenant stats = %+v, want RejectedRate == 1", ts)
	}
}

// TestUnknownTenantRejected: a submission naming no configured tenant
// fails closed.
func TestUnknownTenantRejected(t *testing.T) {
	m := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4, Tenants: []jobs.Tenant{{Name: "only", Key: "k"}}})
	_, err := m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Tenant: "nobody"})
	if !errors.Is(err, jobs.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	// No keyless tenant configured → anonymous submissions are rejected too.
	_, err = m.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if !errors.Is(err, jobs.ErrUnknownTenant) {
		t.Fatalf("anonymous err = %v, want ErrUnknownTenant", err)
	}
}

// TestJobViewTenantField: multi-tenant jobs carry their tenant in the
// view; single-tenant views stay byte-compatible (field omitted).
func TestJobViewTenantField(t *testing.T) {
	multi := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4, Tenants: twoTenants()})
	j, err := multi.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig(), Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.View().Tenant; got != "alice" {
		t.Fatalf("view tenant = %q, want alice", got)
	}

	single := newManager(t, jobs.Config{Workers: 1, QueueDepth: 4})
	js, err := single.SubmitRequest(jobs.Request{Benchmark: "zz-hold", Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if got := js.View().Tenant; got != "" {
		t.Fatalf("single-tenant view tenant = %q, want empty for wire compatibility", got)
	}
}

// TestParseTenants exercises the roster validation matrix.
func TestParseTenants(t *testing.T) {
	good := `[{"name":"a","key":"ka","weight":2},{"name":"b","rate_per_sec":1.5}]`
	roster, err := jobs.ParseTenants(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(roster) != 2 || roster[0].Name != "a" || roster[1].RatePerSec != 1.5 {
		t.Fatalf("roster = %+v", roster)
	}

	bad := map[string]string{
		"empty roster":     `[]`,
		"missing name":     `[{"key":"k"}]`,
		"duplicate name":   `[{"name":"a"},{"name":"a","key":"k"}]`,
		"duplicate key":    `[{"name":"a","key":"k"},{"name":"b","key":"k"}]`,
		"two keyless":      `[{"name":"a"},{"name":"b"}]`,
		"negative weight":  `[{"name":"a","weight":-1}]`,
		"negative rate":    `[{"name":"a","rate_per_sec":-2}]`,
		"unknown field":    `[{"name":"a","color":"red"}]`,
		"not a json array": `{"name":"a"}`,
	}
	for what, input := range bad {
		if _, err := jobs.ParseTenants(strings.NewReader(input)); err == nil {
			t.Errorf("ParseTenants accepted %s: %s", what, input)
		}
	}
}

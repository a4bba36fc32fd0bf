package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/kernels"
)

// JobFailure identifies one failed (benchmark, configuration) job in a
// partial run.
type JobFailure struct {
	Benchmark string
	Config    string // memoization signature of the configuration
	Err       error
}

// ExhibitFailure records an exhibit that could not be assembled at all in a
// partial run (its assembly returned an error or panicked), as opposed to
// one that merely lost rows to failed jobs.
type ExhibitFailure struct {
	ID  string
	Err error
}

// Report is the outcome of RunPartial: every exhibit that could be
// assembled, plus a structured account of everything that could not.
type Report struct {
	// Tables holds the successfully assembled exhibits, in paper order.
	// Exhibits whose jobs partly failed appear with the failing rows
	// omitted; exhibits that failed outright are absent (see Exhibits).
	Tables []*Table
	// Exhibits lists exhibits that could not be assembled.
	Exhibits []ExhibitFailure
	// Jobs lists each failed (benchmark, configuration) job exactly once,
	// sorted by benchmark then configuration.
	Jobs []JobFailure
}

// Failed reports whether anything went wrong.
func (r *Report) Failed() bool { return len(r.Exhibits) > 0 || len(r.Jobs) > 0 }

// Render formats the failure report as text. It renders nothing when the
// run was clean.
func (r *Report) Render() string {
	if !r.Failed() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("== failure report ==\n")
	for _, j := range r.Jobs {
		fmt.Fprintf(&sb, "job     %-14s [%s]: %v\n", j.Benchmark, j.Config, j.Err)
	}
	for _, e := range r.Exhibits {
		fmt.Fprintf(&sb, "exhibit %-14s: %v\n", e.ID, e.Err)
	}
	return sb.String()
}

// failureSink collects job failures during a partial run. A benchmark that
// fails under any configuration is skipped for the rest of the run: its
// rows would be incomparable across exhibits, and (more practically) a
// benchmark that panics or stalls under one config usually does so under
// the next twenty.
type failureSink struct {
	mu     sync.Mutex
	seen   map[string]bool // "bench|cfgSig" — dedupe across exhibits
	benchs map[string]bool // failed benchmark names
	jobs   []JobFailure
}

func newFailureSink() *failureSink {
	return &failureSink{seen: make(map[string]bool), benchs: make(map[string]bool)}
}

func (s *failureSink) record(bench, cfgSig string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.benchs[bench] = true
	key := bench + "|" + cfgSig
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.jobs = append(s.jobs, JobFailure{Benchmark: bench, Config: cfgSig, Err: err})
}

// filter drops benchmarks that already failed earlier in the run.
func (s *failureSink) filter(benches []*kernels.Benchmark) []*kernels.Benchmark {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.benchs) == 0 {
		return benches
	}
	out := benches[:0:0]
	for _, b := range benches {
		if !s.benchs[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

func (s *failureSink) failures() []JobFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]JobFailure(nil), s.jobs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Config < out[j].Config
	})
	return out
}

// RunPartial regenerates the named exhibits (all of them when none are
// named) with graceful degradation: a failing job drops its benchmark from
// the remaining exhibits instead of aborting the run, and an exhibit whose
// assembly itself fails — including by panic — is reported and skipped.
// The returned Report always carries every table that could be assembled;
// err is reserved for structural problems (unknown exhibit id, invalid
// runner). The report is deterministic at every parallelism level.
func (r *Runner) RunPartial(ids ...string) (*Report, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	var run []*entry
	for _, id := range ids {
		e := lookup(id)
		if e == nil {
			return nil, fmt.Errorf("experiments: unknown exhibit %q (have %v)", id, IDs())
		}
		run = append(run, e)
	}

	// Partial mode is a property of the whole pass, not of one exhibit:
	// the sink persists across exhibits so a failed benchmark stays gone.
	r.failures = newFailureSink()
	defer func() { r.failures = nil }()

	rep := &Report{}
	for _, e := range run {
		t, err := r.runExhibit(e)
		if err != nil {
			rep.Exhibits = append(rep.Exhibits, ExhibitFailure{ID: e.id, Err: err})
			continue
		}
		rep.Tables = append(rep.Tables, t)
	}
	rep.Jobs = r.failures.failures()
	return rep, nil
}

// runExhibit assembles one exhibit with panic isolation: exhibit code
// indexing into rows for a benchmark the sink dropped must not take down
// the rest of the report.
func (r *Runner) runExhibit(e *entry) (t *Table, err error) {
	defer func() {
		if v := recover(); v != nil {
			t, err = nil, &PanicError{Value: v}
		}
	}()
	return r.assemble(e)
}

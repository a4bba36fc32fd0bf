// Package sweep loads experiment-campaign specifications: a named set of
// sim.Config variations crossed with a benchmark list. A spec is the unit
// of work the cluster coordinator shards across warpedd workers
// (cmd/warpedctl), but it is deliberately transport-agnostic — expansion
// produces plain (name, benchmark, sim.Config) jobs that any runner can
// execute.
//
// Spec JSON:
//
//	{
//	  "name": "fig20-latency",
//	  "benchmarks": ["bfs", "pathfinder"],
//	  "preset": "warped",                  // or "baseline"; default "warped"
//	  "base": {"NumSMs": 2},               // overrides applied to every config
//	  "configs": [                         // explicit named configurations
//	    {"name": "fast", "overrides": {"CompressLatency": 1}}
//	  ],
//	  "grid": {                            // cross-product axes (field → values)
//	    "CompressLatency": [2, 4, 8],
//	    "PowerGating": [true, false]
//	  }
//	}
//
// Overrides address sim.Config fields by their Go names; unknown fields
// are rejected, and every expanded configuration must pass
// sim.Config.Validate. Expansion order is deterministic: explicit configs
// in spec order first, then the grid with axes in sorted field order and
// the rightmost axis varying fastest — so two loads of the same spec
// always yield the identical job list, which the cluster report's
// byte-stability guarantee builds on.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// Spec is a parsed campaign specification. Build one with Load or Parse —
// both validate — and expand it with Jobs.
type Spec struct {
	// Name identifies the campaign; it is echoed into the merged report.
	Name string `json:"name"`
	// Benchmarks are the registered workload names every configuration
	// runs on.
	Benchmarks []string `json:"benchmarks"`
	// Preset seeds each configuration: "warped" (paper Table 2, default)
	// or "baseline" (compression and gating off).
	Preset string `json:"preset,omitempty"`
	// Base holds sim.Config field overrides applied to every
	// configuration before its own overrides.
	Base json.RawMessage `json:"base,omitempty"`
	// Configs are explicit named configurations.
	Configs []ConfigSpec `json:"configs,omitempty"`
	// Grid maps sim.Config field names to value lists; the cross product
	// of all axes is appended after Configs.
	Grid map[string][]json.RawMessage `json:"grid,omitempty"`
}

// ConfigSpec is one explicit configuration of a campaign.
type ConfigSpec struct {
	Name      string          `json:"name"`
	Overrides json.RawMessage `json:"overrides,omitempty"`
}

// Job is one expanded unit of work: a named configuration on a benchmark.
type Job struct {
	// Name is the configuration's name (explicit, or "Field=value,..."
	// for grid points).
	Name      string
	Benchmark string
	Config    sim.Config
}

// SpecError is a typed specification failure: which part of the spec is
// wrong and why.
type SpecError struct {
	Part   string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("sweep: invalid %s: %s", e.Part, e.Reason)
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Parse decodes and validates a spec document. The decode is strict:
// unknown top-level or config fields are errors, catching typos before a
// campaign burns cluster time.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return &SpecError{"name", "missing campaign name"}
	}
	if len(s.Benchmarks) == 0 {
		return &SpecError{"benchmarks", "need at least one benchmark"}
	}
	seenB := map[string]bool{}
	for _, b := range s.Benchmarks {
		if _, ok := kernels.ByName(b); !ok {
			return &SpecError{"benchmarks", fmt.Sprintf("unknown benchmark %q", b)}
		}
		if seenB[b] {
			return &SpecError{"benchmarks", fmt.Sprintf("benchmark %q listed twice", b)}
		}
		seenB[b] = true
	}
	switch s.Preset {
	case "", "warped", "baseline":
	default:
		return &SpecError{"preset", fmt.Sprintf("unknown preset %q (have warped, baseline)", s.Preset)}
	}
	seenC := map[string]bool{}
	for i, c := range s.Configs {
		if c.Name == "" {
			return &SpecError{"configs", fmt.Sprintf("config #%d has no name", i)}
		}
		if seenC[c.Name] {
			return &SpecError{"configs", fmt.Sprintf("config name %q used twice", c.Name)}
		}
		seenC[c.Name] = true
	}
	for axis, vals := range s.Grid {
		if len(vals) == 0 {
			return &SpecError{"grid", fmt.Sprintf("axis %q has no values", axis)}
		}
	}
	// The expansion itself (unknown fields, invalid combinations) is
	// checked in Jobs, where the full config is in hand.
	_, err := s.Jobs()
	return err
}

// preset returns the spec's starting configuration.
func (s *Spec) preset() sim.Config {
	if s.Preset == "baseline" {
		return sim.BaselineConfig()
	}
	return sim.DefaultConfig()
}

// Jobs expands the spec into its deterministic job list: each named
// configuration (explicit first, then grid points) crossed with each
// benchmark, config-major. Every configuration is fully validated.
func (s *Spec) Jobs() ([]Job, error) {
	type named struct {
		name string
		cfg  sim.Config
	}
	base := s.preset()
	if len(s.Base) > 0 {
		if err := applyOverrides(&base, s.Base); err != nil {
			return nil, &SpecError{"base", err.Error()}
		}
	}

	var configs []named
	for _, cs := range s.Configs {
		cfg := base
		if len(cs.Overrides) > 0 {
			if err := applyOverrides(&cfg, cs.Overrides); err != nil {
				return nil, &SpecError{"configs", fmt.Sprintf("%s: %v", cs.Name, err)}
			}
		}
		configs = append(configs, named{cs.Name, cfg})
	}

	points, err := s.gridPoints(base)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		configs = append(configs, named(p))
	}

	if len(configs) == 0 {
		// No explicit configs and no grid: the campaign is the preset (+
		// base overrides) itself.
		name := s.Preset
		if name == "" {
			name = "warped"
		}
		configs = append(configs, named{name, base})
	}

	seen := map[string]bool{}
	jobs := make([]Job, 0, len(configs)*len(s.Benchmarks))
	for _, c := range configs {
		if seen[c.name] {
			return nil, &SpecError{"grid", fmt.Sprintf("config name %q used twice (explicit config collides with a grid point?)", c.name)}
		}
		seen[c.name] = true
		if err := c.cfg.Validate(); err != nil {
			return nil, &SpecError{"configs", fmt.Sprintf("%s: %v", c.name, err)}
		}
		for _, b := range s.Benchmarks {
			jobs = append(jobs, Job{Name: c.name, Benchmark: b, Config: c.cfg})
		}
	}
	return jobs, nil
}

// gridPoints expands the grid axes into named configurations: axes in
// sorted field order, rightmost varying fastest (odometer order).
func (s *Spec) gridPoints(base sim.Config) ([]struct {
	name string
	cfg  sim.Config
}, error) {
	if len(s.Grid) == 0 {
		return nil, nil
	}
	axes := make([]string, 0, len(s.Grid))
	for axis := range s.Grid {
		axes = append(axes, axis)
	}
	sort.Strings(axes)

	var out []struct {
		name string
		cfg  sim.Config
	}
	idx := make([]int, len(axes))
	for {
		cfg := base
		parts := make([]string, len(axes))
		for i, axis := range axes {
			val := s.Grid[axis][idx[i]]
			one := json.RawMessage(fmt.Sprintf(`{%q: %s}`, axis, val))
			if err := applyOverrides(&cfg, one); err != nil {
				return nil, &SpecError{"grid", fmt.Sprintf("%s = %s: %v", axis, compact(val), err)}
			}
			parts[i] = axis + "=" + compact(val)
		}
		out = append(out, struct {
			name string
			cfg  sim.Config
		}{strings.Join(parts, ","), cfg})

		// Advance the odometer, rightmost fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Grid[axes[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// SetBaseCompression merges a {"Compression": name} override into the
// spec's Base overrides — the flag-level convenience behind warpedctl's
// -compression. Explicit per-config and grid overrides still win, since
// Base applies first. The spec is re-validated afterwards, so an unknown
// name fails here, before any cluster time is spent.
func (s *Spec) SetBaseCompression(name string) error {
	var base map[string]json.RawMessage
	if len(s.Base) > 0 {
		if err := json.Unmarshal(s.Base, &base); err != nil {
			return &SpecError{"base", err.Error()}
		}
	}
	if base == nil {
		base = map[string]json.RawMessage{}
	}
	enc, err := json.Marshal(name)
	if err != nil {
		return &SpecError{"base", err.Error()}
	}
	base["Compression"] = enc
	merged, err := json.Marshal(base)
	if err != nil {
		return &SpecError{"base", err.Error()}
	}
	s.Base = merged
	return s.validate()
}

// applyOverrides decodes raw onto cfg, rejecting unknown fields.
func applyOverrides(cfg *sim.Config, raw json.RawMessage) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(cfg)
}

// compact renders a raw JSON value for use in a grid point's name.
func compact(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return strings.TrimSpace(string(raw))
	}
	return strings.Trim(buf.String(), `"`)
}

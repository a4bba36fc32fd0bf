// Package sim is the cycle-level SIMT GPU model: streaming multiprocessors
// with dual warp schedulers, a scoreboard, operand collectors over the
// banked register file, functional-unit pipelines, a coalescing global
// memory path, SIMT-stack divergence handling and the warped-compression
// write/read paths (compressor and decompressor units, dummy MOV injection,
// bank power gating).
//
// It plays the role GPGPU-Sim plays in the paper: the timing substrate whose
// event counts feed the energy model. Functional execution happens at issue
// (register values and memory are architecturally updated immediately, in
// issue order, which the scoreboard keeps dependence-correct); the timing
// pipeline then models when banks, compressors, functional units and the
// memory system are busy.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/regfile"
)

// Config carries every microarchitectural parameter of paper Table 2 plus
// the design-space knobs of §6.6-6.8.
type Config struct {
	// Core organization (Table 2).
	NumSMs          int // 15
	SchedulersPerSM int // 2
	MaxWarpsPerSM   int // 48
	MaxCTAsPerSM    int // CTAs resident per SM (8, Fermi-like)
	Collectors      int // operand collector units per SM

	// Scheduling policy: "gto" (default) or "lrr" (§6.5).
	Scheduler string

	// Compression names the compression setting (core.Compressions):
	// "off" (the paper's baseline: no compression hardware), "bdi" (the
	// paper's warped-compression), "bdi-40"/"bdi-41"/"bdi-42" (BDI
	// restricted to one parameter choice, §6.6), "fpc" or "static" (the
	// alternative backends). The empty string is the default spelling of
	// "bdi". With compression off, writes are still classified with bdi
	// for the compressibility statistics.
	Compression string
	// DivergencePolicy selects how divergent writes interact with
	// compressed registers (paper §5.2):
	//   "uncompressed" (default): store divergent writes uncompressed,
	//       injecting a dummy MOV to decompress the destination first;
	//   "recompress": read-merge-recompress through an intermediate buffer
	//       (the alternative the paper describes and rejects for its
	//       buffer cost; modeled here for the ablation study).
	DivergencePolicy  string
	Compressors       int // 2 per SM
	Decompressors     int // 4 per SM
	CompressLatency   int // 2 cycles default, swept in Fig 20
	DecompressLatency int // 1 cycle default, swept in Fig 21
	PowerGating       bool
	BankWakeupLatency int // 10 cycles
	// DrowsyAfter enables the drowsy-register-file comparator: idle
	// powered banks drop to a data-retentive low-leakage state after this
	// many cycles (0 disables; abl5-drowsy uses 100).
	DrowsyAfter int

	// RFCEntries enables the register file cache comparator (Gebhart et
	// al., the paper's §7 rival approach): a small per-warp, write-back,
	// write-allocate cache of recently written warp registers between the
	// main banks and the execution units. 0 disables it. Meant to be used
	// with compression off; see the abl4-rfc experiment.
	RFCEntries int

	// Functional unit pipeline depths.
	ALULatency int
	SFULatency int

	// Memory system.
	GlobalMemBytes    int // device memory capacity
	GlobalLatency     int // cycles to DRAM
	GlobalMaxInflight int // outstanding transactions per SM
	SharedLatency     int // shared memory access cycles
	L1SizeKB          int // per-SM L1 data cache size (0 disables)
	L1Ways            int // L1 associativity
	L1HitLatency      int // L1 hit latency in cycles

	// CharacterizeWrites enables the paper §3 value-similarity histograms
	// (Figs 2 and 5) on every register write.
	CharacterizeWrites bool

	// Faults configures deterministic register-file fault injection
	// (internal/faults): permanent stuck-at bank failures, transient
	// write-back bit flips and RRCD-style redirection of compressed
	// registers into healthy banks. The zero value disables injection.
	Faults faults.Config

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// SMParallel shards the per-cycle SM loop across worker goroutines: each
	// worker owns a contiguous slice of SMs and global-memory effects commit
	// at epoch barriers in SM-id order, so results are byte-identical at
	// every shard count. 0 (the default) means min(GOMAXPROCS, NumSMs); a
	// positive value is clamped to NumSMs. SMParallel never changes results,
	// so it is exempt from the configuration signature.
	SMParallel int

	// SMEpoch is the number of cycles each shard simulates between global
	// commit barriers. 0 (the default) means 1: commit every cycle, the
	// configuration whose results are byte-identical to the original
	// sequential engine. Larger epochs amortize barrier cost but change
	// timing (CTA dispatch and idle detection happen only at epoch
	// boundaries), so SMEpoch participates in the configuration signature.
	// Deferred atomics must resolve before the pipeline consumes their old
	// values, which bounds SMEpoch to at most GlobalLatency.
	SMEpoch int
}

// DefaultConfig returns paper Table 2 with warped-compression enabled.
func DefaultConfig() Config {
	return Config{
		NumSMs:          15,
		SchedulersPerSM: 2,
		MaxWarpsPerSM:   48,
		MaxCTAsPerSM:    8,
		Collectors:      8,

		Scheduler: "gto",

		DivergencePolicy:  "uncompressed",
		Compressors:       2,
		Decompressors:     4,
		CompressLatency:   2,
		DecompressLatency: 1,
		PowerGating:       true,
		BankWakeupLatency: 10,

		ALULatency: 4,
		SFULatency: 8,

		GlobalMemBytes:    64 << 20,
		GlobalLatency:     200,
		GlobalMaxInflight: 64,
		SharedLatency:     24,
		L1SizeKB:          16,
		L1Ways:            4,
		L1HitLatency:      30,

		MaxCycles: 200_000_000,
	}
}

// Baseline returns c as the paper's no-compression baseline (§6), against
// which every reported result is a ratio: compression off and no bank power
// gating.
func Baseline(c Config) Config {
	c.Compression = "off"
	c.PowerGating = false
	return c
}

// BaselineConfig is DefaultConfig as the paper's no-compression baseline.
func BaselineConfig() Config { return Baseline(DefaultConfig()) }

// ConfigError is a typed Config validation failure: which field (or field
// combination) is impossible and why. All Validate errors are *ConfigError
// except fault-model failures, which surface as *faults.ConfigError.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid %s: %s", e.Field, e.Reason)
}

// Validate rejects nonsensical parameter combinations with typed errors.
func (c *Config) Validate() error {
	comp, compErr := core.LookupCompression(c.Compression)
	switch {
	case c.NumSMs < 1:
		return &ConfigError{"NumSMs", "need at least one SM"}
	case c.SchedulersPerSM < 1:
		return &ConfigError{"SchedulersPerSM", "need at least one scheduler"}
	case c.MaxWarpsPerSM < 1 || c.MaxWarpsPerSM%c.SchedulersPerSM != 0:
		return &ConfigError{"MaxWarpsPerSM", fmt.Sprintf("%d is not a positive multiple of the %d schedulers", c.MaxWarpsPerSM, c.SchedulersPerSM)}
	case !regfile.FitsWarps(1, 1):
		// Unreachable with the compiled-in geometry; guards refactors.
		return &ConfigError{"MaxWarpsPerSM", "register file cannot hold a single warp register"}
	case c.MaxCTAsPerSM < 1:
		return &ConfigError{"MaxCTAsPerSM", "need at least one CTA slot"}
	case c.Collectors < 1:
		return &ConfigError{"Collectors", "need at least one operand collector"}
	case c.Compressors < 1:
		return &ConfigError{"Compressors", "need at least one compressor"}
	case c.Decompressors < 1:
		return &ConfigError{"Decompressors", "need at least one decompressor"}
	case c.CompressLatency < 0 || c.DecompressLatency < 0:
		return &ConfigError{"CompressLatency", "negative compression latency"}
	case c.ALULatency < 1 || c.SFULatency < 1:
		return &ConfigError{"ALULatency", "functional unit latencies must be >= 1"}
	case c.GlobalMemBytes < 4096:
		return &ConfigError{"GlobalMemBytes", "device memory too small (minimum 4096 bytes)"}
	case c.GlobalLatency < 1 || c.SharedLatency < 1:
		return &ConfigError{"GlobalLatency", "memory timings must be >= 1"}
	case c.GlobalMaxInflight < isa.WarpSize:
		// One uncoalesced warp access issues a transaction per lane; a
		// pipe that cannot hold that many never accepts it, and the
		// kernel would spin to MaxCycles.
		return &ConfigError{"GlobalMaxInflight", fmt.Sprintf("%d outstanding transactions cannot hold one uncoalesced warp access (need >= %d)", c.GlobalMaxInflight, isa.WarpSize)}
	case c.L1SizeKB < 0 || (c.L1SizeKB > 0 && (c.L1Ways < 1 || c.L1HitLatency < 1)):
		return &ConfigError{"L1SizeKB", "invalid L1 cache configuration"}
	case c.BankWakeupLatency < 0:
		return &ConfigError{"BankWakeupLatency", "negative wakeup latency"}
	case c.MaxCycles == 0:
		return &ConfigError{"MaxCycles", "must be positive"}
	case c.Scheduler != "gto" && c.Scheduler != "lrr":
		return &ConfigError{"Scheduler", fmt.Sprintf("unknown scheduler %q (have gto, lrr)", c.Scheduler)}
	case c.DivergencePolicy != "" && c.DivergencePolicy != "uncompressed" && c.DivergencePolicy != "recompress":
		return &ConfigError{"DivergencePolicy", fmt.Sprintf("unknown policy %q (have uncompressed, recompress)", c.DivergencePolicy)}
	case c.RFCEntries < 0:
		return &ConfigError{"RFCEntries", "negative RFC size"}
	case c.DrowsyAfter < 0:
		return &ConfigError{"DrowsyAfter", "negative drowsy threshold"}
	case compErr != nil:
		return &ConfigError{"Compression", compErr.Error()}
	case c.RFCEntries > 0 && comp.Policy.Enabled():
		return &ConfigError{"RFCEntries", "the RFC comparator and warped-compression are mutually exclusive"}
	case c.Faults.Redirect && !comp.Policy.Enabled():
		return &ConfigError{"Faults.Redirect", "RRCD redirection needs compression (only compressed registers can move banks)"}
	case c.SMParallel < 0:
		return &ConfigError{"SMParallel", "negative shard count (0 selects GOMAXPROCS)"}
	case c.SMEpoch < 0:
		return &ConfigError{"SMEpoch", "negative epoch length (0 selects 1 cycle)"}
	case c.SMEpoch > c.GlobalLatency:
		return &ConfigError{"SMEpoch", fmt.Sprintf("epoch of %d cycles exceeds GlobalLatency %d (deferred atomics must commit before the pipeline consumes their old values)", c.SMEpoch, c.GlobalLatency)}
	}
	return c.Faults.Validate(regfile.NumBanks)
}

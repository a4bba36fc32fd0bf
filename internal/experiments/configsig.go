package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// ConfigSignatureVersion identifies the signature format ConfigSignature
// emits. Bump it whenever the format changes — when a field is added to or
// removed from the signature, or an existing field's rendering changes —
// so persisted caches keyed by old signatures can never alias new ones.
const ConfigSignatureVersion = "cfg/v1"

// ConfigSignature renders a sim.Config as a stable, versioned string that
// is equal exactly when two configurations produce identical simulations.
// It is the shared identity used by the engine's single-flight memo cache,
// the serving layer's result cache (internal/jobs) and every progress
// event and job error — one implementation, so the caches can never drift.
//
// Every field that can change a simulation's outcome must appear here: the
// fault-injection exhibit, for example, varies Faults and MaxCycles on top
// of otherwise identical configs, and omitting either would silently alias
// its cache entries with the clean runs. TestConfigSignatureCoversConfig
// enforces coverage field by field.
func ConfigSignature(c *sim.Config) string {
	comp, err := core.LookupCompression(c.Compression)
	if err != nil {
		// Validate rejects the name; sign it raw so that distinct invalid
		// names never share a cache entry, and never alias a valid one.
		comp.Scheme = "?" + c.Compression
	}
	dp := cmp.Or(c.DivergencePolicy, "uncompressed")
	return ConfigSignatureVersion + ":" +
		fmt.Sprintf("m%d g%t s%s cl%d dl%d ch%t sm%d w%d cta%d col%d c%d d%d wake%d dp%s",
			comp.Policy, c.PowerGating, c.Scheduler, c.CompressLatency, c.DecompressLatency,
			c.CharacterizeWrites, c.NumSMs, c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.Collectors,
			c.Compressors, c.Decompressors, c.BankWakeupLatency, dp) +
		fmt.Sprintf(" sch%d alu%d sfu%d gm%d gl%d gi%d sl%d l1%d/%d/%d rfc%d drw%d mc%d ep0 cs%s flt{%s}",
			c.SchedulersPerSM, c.ALULatency, c.SFULatency,
			c.GlobalMemBytes, c.GlobalLatency, c.GlobalMaxInflight, c.SharedLatency,
			c.L1SizeKB, c.L1Ways, c.L1HitLatency,
			c.RFCEntries, c.DrowsyAfter, c.MaxCycles,
			comp.Scheme, c.Faults.String())
}

// Compression is signed as its resolved policy (m) and backend (cs), not as
// the raw name, so "" and "bdi" share one cache identity (they run the
// identical simulation), and every setting keeps the key it had when
// sim.Config carried the policy and the backend as two fields. Inserting
// the cs token did not need a version bump: a cfg/v1 string with the token
// can never equal one without it, so old persisted keys miss instead of
// aliasing. Likewise DivergencePolicy "" runs exactly as "uncompressed"
// does, so it is signed as that default.
//
// The ep0 token is literal: it signed the sharded SM loop's commit
// interval, now fixed at one cycle, which it always rendered as ep0.
// Keeping it keeps every stored key and rendezvous placement valid without
// a version bump.

// SMParallel is deliberately absent: the per-cycle commit protocol makes
// results byte-identical at every shard count (the determinism oracle in
// internal/sim enforces it), so including it would only fragment the cache.

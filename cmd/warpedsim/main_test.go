package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/warped"
)

// TestAsmCompareKernelPerBuild runs an -asm kernel the way -compare does:
// both configurations at once on one engine. Every Build must hand out its
// own kernel, since each GPU fills the kernel's ReconvPC table as it starts
// (a shared kernel is a data race under go test -race), and the concurrent
// results must equal runs made one at a time.
func TestAsmCompareKernelPerBuild(t *testing.T) {
	// The kernel diverges and reconverges, so a run reads ReconvPC.
	b, err := benchmark("", filepath.Join("..", "testdata", "cli", "divergent.s"), 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.Build(nil, warped.Small)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.Build(nil, warped.Small)
	if err != nil {
		t.Fatal(err)
	}
	if first.Launch.Kernel == second.Launch.Kernel {
		t.Fatal("two Builds share one kernel")
	}

	cfg := warped.DefaultConfig()
	cfg.NumSMs = 2
	cfgs := []warped.Config{cfg, sim.Baseline(cfg)}
	ctx := context.Background()
	got, errs := runAll(experiments.NewEngine(ctx, experiments.EngineConfig{Parallelism: len(cfgs)}), b, cfgs)
	for i, c := range cfgs {
		if errs[i] != nil {
			t.Fatalf("config %d: %v", i, errs[i])
		}
		want, err := experiments.NewEngine(ctx, experiments.EngineConfig{Parallelism: 1}).Run(b, c)
		if err != nil {
			t.Fatalf("config %d alone: %v", i, err)
		}
		if g, w := encode(t, got[i]), encode(t, want); !bytes.Equal(g, w) {
			t.Fatalf("config %d: concurrent result differs from a run alone:\n%s\nwant:\n%s", i, g, w)
		}
	}
}

func encode(t *testing.T, res *warped.Result) []byte {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

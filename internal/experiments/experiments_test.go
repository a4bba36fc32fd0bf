package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// fastOpts runs three representative benchmarks (uniform, divergent,
// best-case) at small scale on a shrunken GPU.
func fastOpts() []Option {
	base := sim.DefaultConfig()
	base.NumSMs = 4
	return []Option{
		WithScale(kernels.Small),
		WithBenchmarks("bfs", "lib", "pathfinder"),
		WithBaseConfig(base),
	}
}

// fastRunner builds a Runner from fastOpts plus any extras.
func fastRunner(t *testing.T, extra ...Option) *Runner {
	t.Helper()
	return mustNew(t, context.Background(), append(fastOpts(), extra...)...)
}

func TestIDsCoverEveryPaperExhibit(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3",
		"fig2", "fig3", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"abl1-divergence", "abl2-gating", "abl3-units", "abl4-rfc", "abl5-drowsy",
		"flt1-faults",
		"cmp1-schemes-ratio", "cmp1-schemes-energy", "cmp1-schemes-overhead",
		"gemm1-tiling-ratio", "gemm1-tiling-energy", "gemm1-tiling-time", "gemm1-tiling-shared"}
	if len(ids) != len(want) {
		t.Fatalf("%d exhibits, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("exhibit %d = %s, want %s", i, ids[i], id)
		}
		if _, ok := Title(id); !ok {
			t.Fatalf("no title for %s", id)
		}
	}
	if _, ok := Title("fig99"); ok {
		t.Fatal("bogus exhibit has a title")
	}
}

func TestStaticTables(t *testing.T) {
	r := fastRunner(t)
	t1, err := r.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 9 {
		t.Fatalf("table1 rows %d, want 9 (Table 1)", len(t1.Rows))
	}
	// Spot-check the <4,1> row: 35 bytes, 3 banks, used.
	for _, row := range t1.Rows {
		if row.Label == "<4,1>" {
			if row.Values[2] != 35 || row.Values[3] != 3 || row.Values[4] != 1 {
				t.Fatalf("<4,1> row: %v", row.Values)
			}
		}
	}
	for _, id := range []string{"table2", "table3"} {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s empty", id)
		}
	}
}

func TestCharacterizationFigures(t *testing.T) {
	r := fastRunner(t)
	f2, err := r.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	// Bin fractions of each phase must sum to ~1 where present.
	for _, row := range f2.Rows {
		sum := 0.0
		for _, v := range row.Values[:4] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: non-divergent bins sum to %v", row.Label, sum)
		}
	}
	f3, err := r.Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f3.Rows {
		if row.Values[0] < 0 || row.Values[0] > 1 {
			t.Fatalf("%s: non-divergent ratio %v out of range", row.Label, row.Values[0])
		}
	}
	// lib must be fully convergent; bfs must diverge.
	for _, row := range f3.Rows {
		switch row.Label {
		case "lib":
			if row.Values[0] != 1 {
				t.Fatalf("lib diverged: %v", row.Values[0])
			}
		case "bfs":
			if row.Values[0] >= 1 {
				t.Fatal("bfs did not diverge")
			}
		}
	}
	f5, err := r.Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	// lib is constant-input: the explorer must overwhelmingly pick <4,0>.
	for _, row := range f5.Rows {
		if row.Label == "lib" && row.Values[0] < 0.5 {
			t.Fatalf("lib <4,0> share %v, want > 0.5", row.Values[0])
		}
	}
}

func TestHeadlineFigures(t *testing.T) {
	r := fastRunner(t)
	f8, err := r.Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f8.Rows {
		if row.Values[0] < 1 {
			t.Fatalf("%s: compression ratio %v below 1", row.Label, row.Values[0])
		}
		if row.Label == "lib" && row.Values[0] < 4 {
			t.Fatalf("lib ratio %v, want near 8", row.Values[0])
		}
	}
	f9, err := r.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f9.Rows {
		total := row.Values[6]
		if total <= 0 || total >= 1.05 {
			t.Fatalf("%s: normalized WC energy %v", row.Label, total)
		}
		if row.Label == "AVG" && total > 0.95 {
			t.Fatalf("average energy saving too small: %v", total)
		}
	}
	f13, err := r.Run("fig13")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f13.Rows {
		if row.Values[0] < 0.9 || row.Values[0] > 1.5 {
			t.Fatalf("%s: normalized cycles %v unreasonable", row.Label, row.Values[0])
		}
	}
}

func TestDesignSpaceFigures(t *testing.T) {
	r := fastRunner(t)
	f15, err := r.Run("fig15")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f15.Rows {
		only40, warped := row.Values[0], row.Values[3]
		if only40 > warped+1e-9 {
			t.Fatalf("%s: <4,0>-only ratio %v beats warped %v", row.Label, only40, warped)
		}
	}
	f19, err := r.Run("fig19")
	if err != nil {
		t.Fatal(err)
	}
	// Higher wire activity favours compression: the normalized energy at
	// 100% activity must be <= the value at 0% activity (more savings).
	for _, row := range f19.Rows {
		if row.Label != "AVG" {
			continue
		}
		if row.Values[4] > row.Values[0]+1e-9 {
			t.Fatalf("wire sweep not monotone: %v", row.Values)
		}
	}
	f20, err := r.Run("fig20")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f20.Rows {
		if row.Label != "AVG" {
			continue
		}
		if row.Values[2] < row.Values[0]-1e-9 {
			t.Fatalf("8-cycle compression latency should not be faster: %v", row.Values)
		}
	}
}

// TestDesignSpaceFiguresOverrideBaseCompression: Figs 15/16 name their own
// compression settings, so a runner whose base config selects another
// backend reproduces the default-base tables exactly. (When the policy and
// the backend were two config fields, a non-BDI base made every fixed-choice
// column an invalid configuration.)
func TestDesignSpaceFiguresOverrideBaseCompression(t *testing.T) {
	render := func(r *Runner, id string) string {
		t.Helper()
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		if err := tab.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	def := fastRunner(t)
	for _, name := range []string{"fpc", "static"} {
		base := sim.DefaultConfig()
		base.NumSMs = 4
		base.Compression = name
		r := fastRunner(t, WithBaseConfig(base))
		for _, id := range []string{"fig15", "fig16"} {
			if got, want := render(r, id), render(def, id); got != want {
				t.Errorf("%s under a %s base differs from the default base:\n%s\nwant:\n%s", id, name, got, want)
			}
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	r := fastRunner(t)
	if _, err := r.Run("fig99"); err == nil {
		t.Fatal("unknown exhibit accepted")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	r := fastRunner(t, WithBenchmarks("nope"))
	if _, err := r.Run("fig3"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMemoization(t *testing.T) {
	var log strings.Builder
	r := fastRunner(t, WithProgressWriter(&log))
	if _, err := r.Run("fig8"); err != nil {
		t.Fatal(err)
	}
	runs1 := strings.Count(log.String(), "ran ")
	if _, err := r.Run("fig11"); err != nil { // same warped config
		t.Fatal(err)
	}
	if runs2 := strings.Count(log.String(), "ran "); runs2 != runs1 {
		t.Fatalf("fig11 re-simulated despite cache: %d -> %d runs", runs1, runs2)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row1", 1.5, math.NaN())
	tab.AddRow("row2", 2, 4)
	tab.AddAverage()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "row1", "n/a", "AVG"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// The AVG of column b must ignore the NaN: only row2 counts.
	if !strings.Contains(out, "4") {
		t.Fatalf("average wrong:\n%s", out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row1", 1.5, math.NaN())
	var sb strings.Builder
	if err := tab.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "benchmark,a,b\nrow1,1.5,\n"
	if sb.String() != want {
		t.Fatalf("csv output %q, want %q", sb.String(), want)
	}
}

// TestAllExhibitsRunAndRender regenerates every exhibit (paper figures,
// tables and ablations) on a two-benchmark small-scale suite and renders
// each to text and CSV. This is the whole-harness smoke test.
func TestAllExhibitsRunAndRender(t *testing.T) {
	base := sim.DefaultConfig()
	base.NumSMs = 4
	r := mustNew(t, context.Background(),
		WithScale(kernels.Small),
		WithBenchmarks("bfs", "lib"),
		WithBaseConfig(base))
	tables, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("%d tables, want %d", len(tables), len(IDs()))
	}
	for _, tab := range tables {
		if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", tab.ID)
		}
		var text, csv strings.Builder
		if err := tab.Render(&text); err != nil {
			t.Fatalf("%s: render: %v", tab.ID, err)
		}
		if err := tab.RenderCSV(&csv); err != nil {
			t.Fatalf("%s: csv: %v", tab.ID, err)
		}
		if !strings.Contains(text.String(), tab.ID) {
			t.Fatalf("%s: text output missing id", tab.ID)
		}
	}
}

// TestAblationSanity checks the ablation stories hold even at small scale:
// gating-off energy is never lower than gating-on, and the 1-compressor
// configuration is never faster than the default.
func TestAblationSanity(t *testing.T) {
	r := fastRunner(t)
	g, err := r.Run("abl2-gating")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range g.Rows {
		if row.Values[1] < row.Values[0]-1e-9 {
			t.Fatalf("%s: ungated energy %v below gated %v", row.Label, row.Values[1], row.Values[0])
		}
	}
	u, err := r.Run("abl3-units")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range u.Rows {
		if row.Label == "AVG" && row.Values[0] < row.Values[1]-1e-9 {
			t.Fatalf("halved unit pools should not be faster: %v", row.Values)
		}
	}
	rfc, err := r.Run("abl4-rfc")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rfc.Rows {
		if row.Values[2] < 0 || row.Values[2] > 1 {
			t.Fatalf("%s: RFC hit rate %v out of range", row.Label, row.Values[2])
		}
	}
}

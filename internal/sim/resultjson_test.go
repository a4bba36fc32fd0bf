package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/regfile"
	"repro/internal/stats"
)

// resultFixture returns a Result with every counter populated with a
// distinct value, so a round-trip that drops any field fails loudly.
func resultFixture(t *testing.T) *Result {
	t.Helper()
	g, l := spinLaunch(t, 500)
	res, err := g.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the counters the spin kernel cannot exercise.
	res.Stats.RFCReads = 11
	res.Stats.RFCReadMisses = 12
	res.Stats.RFCWrites = 13
	res.Stats.RFCEvictions = 14
	res.Stats.CensusCompressed[0] = 1.25
	res.Stats.CensusCompressed[1] = 2.5
	res.Energy.RFCAccesses = 15
	res.Energy.RFCKB = 36
	res.Stats.FaultStuckWrites = 16
	res.Stats.FaultCorruptedLanes = 17
	res.Stats.FaultTransientFlips = 18
	res.Stats.RF.RedirectedWrites = 19
	return res
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := resultFixture(t)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != res.Cycles {
		t.Fatalf("cycles %d != %d", back.Cycles, res.Cycles)
	}
	if back.Stats != res.Stats {
		t.Fatalf("stats round-trip mismatch:\n got %+v\nwant %+v", back.Stats, res.Stats)
	}
	if back.Energy != res.Energy {
		t.Fatalf("energy round-trip mismatch:\n got %+v\nwant %+v", back.Energy, res.Energy)
	}
	// Marshaling the round-tripped value must be byte-identical.
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("re-marshaled document differs")
	}
}

// TestResultJSONEveryCounter fills every numeric leaf reachable from Result
// with a distinct non-zero value, so a counter the encoding drops or
// misroutes fails the round trip, including the omitempty counters that
// resultFixture and the golden document leave at zero.
func TestResultJSONEveryCounter(t *testing.T) {
	var res Result
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Uint64:
			n++
			v.SetUint(uint64(n))
		case reflect.Int:
			n++
			v.SetInt(int64(n))
		case reflect.Float64:
			n++
			v.SetFloat(float64(n) + 0.25)
		default:
			t.Fatalf("no fill for a %s leaf", v.Type())
		}
	}
	fill(reflect.ValueOf(&res).Elem())
	t.Logf("%d numeric leaves", n)

	data, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Fatalf("round trip lost a counter:\n got %+v\nwant %+v", back, res)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-marshaled document differs:\n got %s\nwant %s", again, data)
	}
}

// TestResultJSONStableKeys pins the schema identifier and the top-level and
// headline key names: renaming any of these is a breaking change that
// requires a schema version bump.
func TestResultJSONStableKeys(t *testing.T) {
	data, err := json.Marshal(resultFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != "warped.sim.result/v1" {
		t.Fatalf("schema = %v", doc["schema"])
	}
	for _, key := range []string{"schema", "cycles", "stats", "energy_events"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("missing top-level key %q", key)
		}
	}
	stats, ok := doc["stats"].(map[string]any)
	if !ok {
		t.Fatal("stats is not an object")
	}
	for _, key := range []string{
		"instructions", "divergent_instructions", "dummy_movs",
		"write_bins", "bdi_choices", "reg_writes", "write_orig_banks",
		"write_comp_banks", "writes_by_encoding", "census_samples",
		"census_compressed", "register_file", "compressor_activations",
		"decompressor_activations", "rfc_reads", "rfc_read_misses",
		"rfc_writes", "rfc_evictions", "global_transactions",
		"shared_accesses", "l1_hits", "l1_misses", "stall_scoreboard",
		"stall_collector", "stall_compressor", "stall_wakeup",
	} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("missing stats key %q", key)
		}
	}
	ev, ok := doc["energy_events"].(map[string]any)
	if !ok {
		t.Fatal("energy_events is not an object")
	}
	for _, key := range []string{
		"bank_accesses", "wire_beats", "compressor_activations",
		"decompressor_activations", "rfc_accesses", "rfc_kb",
		"powered_bank_cycles", "drowsy_bank_cycles", "cycles",
		"compressor_units", "decompressor_units",
	} {
		if _, ok := ev[key]; !ok {
			t.Fatalf("missing energy_events key %q", key)
		}
	}
}

func TestResultJSONRejectsUnknownSchema(t *testing.T) {
	r := Result{Cycles: 3}
	err := json.Unmarshal([]byte(`{"schema":"warped.sim.result/v0","cycles":1}`), &r)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("v0 schema accepted: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"cycles":1}`), &r); err == nil {
		t.Fatal("schema-less document accepted")
	}
	if err := json.Unmarshal([]byte(`{"schema":"warped.sim.result/v1","cycles":"1"}`), &r); err == nil {
		t.Fatal("string cycles accepted")
	}
	if r != (Result{Cycles: 3}) {
		t.Fatalf("a rejected document changed the receiver: %+v", r)
	}
}

// TestResultJSONTolerantDecode: documents of older and newer v1 writers
// decode. Unknown fields are ignored, a short count array leaves the
// missing entries zero, and a long one is truncated.
func TestResultJSONTolerantDecode(t *testing.T) {
	doc := `{"schema": "warped.sim.result/v1", "cycles": 7, "added_later": 1,
		"stats": {"bdi_choices": [1, 2], "write_bins": {"divergent": [1, 2, 3, 4, 5]},
			"register_file": {"per_bank_reads": [` + strings.Repeat("1, ", regfile.NumBanks) + `9]},
			"added_later": {"x": 1}}}`
	var r Result
	if err := json.Unmarshal([]byte(doc), &r); err != nil {
		t.Fatal(err)
	}
	s := &r.Stats
	if r.Cycles != 7 ||
		s.BDIChoices != [stats.NumExplorerChoices]uint64{1, 2} ||
		s.WriteBins[stats.Divergent] != [stats.NumBins]uint64{1, 2, 3, 4} ||
		s.WriteBins[stats.NonDivergent] != [stats.NumBins]uint64{} ||
		s.RF.PerBankReads[regfile.NumBanks-1] != 1 {
		t.Fatalf("decoded %+v", r)
	}
}

// TestResultJSONTagsEveryField: every struct field reachable from Result
// names itself on the wire in an explicit snake_case json tag, so a counter
// added without a wire name fails here rather than appearing under its Go
// name.
func TestResultJSONTagsEveryField(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if !snake.MatchString(name) {
					t.Errorf("%s.%s has wire name %q, want a snake_case json tag", path, f.Name, name)
				}
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Result{}), "Result")
}

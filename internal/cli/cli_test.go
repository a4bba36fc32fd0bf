package cli

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// parse binds a binary's flags on a fresh flag set and parses args.
func parse(t *testing.T, groups Group, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := bind(fs, "test", "medium", groups)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGroupsDeclareFlags pins which flags each engine binary's groups
// declare.
func TestGroupsDeclareFlags(t *testing.T) {
	common := "compression scale sm-parallel version"
	for _, tc := range []struct {
		binary string
		groups Group
		want   string
	}{
		{"warpedsim", Timeout | Profile, common + " cpuprofile memprofile timeout"},
		{"warpedbench", Pool | Timeout | Profile | Suite, common + " benchmarks cpuprofile memprofile o parallel retries timeout watchdog"},
		{"warpedreport", Pool | Timeout | Suite, common + " benchmarks o parallel retries timeout watchdog"},
		{"warpedd", Pool, common + " parallel retries watchdog"},
	} {
		fs := flag.NewFlagSet(tc.binary, flag.ContinueOnError)
		bind(fs, tc.binary, "medium", tc.groups)
		var got []string
		fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
		want := strings.Fields(tc.want)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s declares %v, want %v", tc.binary, got, want)
		}
	}
}

// TestEngineCompression: off is the paper's baseline, so it also turns
// bank power gating off; any other setting leaves gating alone, and no
// setting keeps the base's own.
func TestEngineCompression(t *testing.T) {
	for _, tc := range []struct {
		flag        string
		compression string
		gating      bool
	}{
		{"", "", true},
		{"off", "off", false},
		{"fpc", "fpc", true},
		{"bdi-40", "bdi-40", true},
	} {
		f := parse(t, 0, "-compression", tc.flag)
		_, base, err := f.Engine(sim.DefaultConfig())
		if err != nil {
			t.Fatalf("-compression %q: %v", tc.flag, err)
		}
		if base.Compression != tc.compression || base.PowerGating != tc.gating {
			t.Errorf("-compression %q: got %q gating=%t, want %q gating=%t",
				tc.flag, base.Compression, base.PowerGating, tc.compression, tc.gating)
		}
	}
}

func TestEngineConfig(t *testing.T) {
	f := parse(t, Pool, "-scale", "small", "-parallel", "3", "-sm-parallel", "2", "-retries", "1", "-watchdog", "2m")
	ec, _, err := f.Engine(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.EngineConfig{Parallelism: 3, SMParallel: 2, Scale: kernels.Small, Retries: 1, Watchdog: 2 * time.Minute}
	if !reflect.DeepEqual(ec, want) {
		t.Fatalf("got %+v, want %+v", ec, want)
	}
}

func TestEngineRejects(t *testing.T) {
	sms := sim.DefaultConfig()
	sms.NumSMs = 0
	for _, tc := range []struct {
		args []string
		base sim.Config
		want string
	}{
		{[]string{"-scale", "huge"}, sim.DefaultConfig(), "-scale: unknown scale"},
		{[]string{"-sm-parallel", "-1"}, sim.DefaultConfig(), "-sm-parallel: negative"},
		{[]string{"-compression", "warped"}, sim.DefaultConfig(), "unknown compression"},
		{nil, sms, "NumSMs"},
	} {
		_, _, err := parse(t, 0, tc.args...).Engine(tc.base)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestConfigSignatureVersioned pins the version prefix: cache keys are
// persisted by the serving layer, so the format must announce itself.
func TestConfigSignatureVersioned(t *testing.T) {
	c := sim.DefaultConfig()
	s := ConfigSignature(&c)
	if !strings.HasPrefix(s, ConfigSignatureVersion+":") {
		t.Fatalf("signature %q missing version prefix %q", s, ConfigSignatureVersion)
	}
	if ConfigSignatureVersion != "cfg/v1" {
		t.Fatalf("ConfigSignatureVersion = %q; bumping it invalidates every persisted cache key — make sure that is intended, then update this test", ConfigSignatureVersion)
	}
}

// TestConfigSignatureDeterministic: equal configs produce equal signatures,
// and the signature is a pure function (no hidden state).
func TestConfigSignatureDeterministic(t *testing.T) {
	a, b := sim.DefaultConfig(), sim.DefaultConfig()
	if ConfigSignature(&a) != ConfigSignature(&b) {
		t.Fatal("equal configs produced different signatures")
	}
	if ConfigSignature(&a) != ConfigSignature(&a) {
		t.Fatal("signature not deterministic")
	}
}

// perturb changes one struct field to a value distinct from its current
// one, recursing into nested structs (faults.Config) by perturbing their
// first leaf field.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		if v.String() == "gto" {
			v.SetString("lrr") // keep Scheduler a real policy
		} else {
			v.SetString(v.String() + "x")
		}
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// TestConfigSignatureCoversConfig enforces the signature's contract field
// by field: changing ANY sim.Config field must change the signature. A new
// field added to sim.Config fails here until it is added to
// ConfigSignature (or explicitly exempted), which is exactly the point —
// an uncovered field silently aliases cache entries.
func TestConfigSignatureCoversConfig(t *testing.T) {
	base := sim.DefaultConfig()
	want := ConfigSignature(&base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "SMParallel" {
			// Exempt by design: shard count never changes results (the
			// per-cycle commit makes them byte-identical at every
			// SMParallel, enforced by internal/sim's determinism tests), so
			// covering it would fragment the memo cache for no gain.
			continue
		}
		mod := base
		perturb(reflect.ValueOf(&mod).Elem().Field(i))
		if got := ConfigSignature(&mod); got == want {
			t.Errorf("changing Config.%s did not change the signature (%q)", f.Name, got)
		}
	}
}

// TestConfigSignatureCompressionScheme pins the literal cfg/v1 strings of
// the presets and of DefaultConfig under every compression setting. They
// are the keys persisted stores and the cluster's rendezvous placement
// already hold, as rendered when sim.Config named the policy (m) and the
// backend (cs) in two fields: off was policy 0 over bdi, bdi-40/41/42
// policies 2-4 over bdi, and fpc and static policy 1 over their own
// backends. DefaultConfig's empty Compression and "bdi" run the same
// simulation and share one key; every other setting gets its own, so
// result and store caches never alias across settings.
func TestConfigSignatureCompressionScheme(t *testing.T) {
	pinned := []struct{ name, sig string }{
		{"DefaultConfig", "cfg/v1:m1 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"BaselineConfig", "cfg/v1:m0 gfalse sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"off", "cfg/v1:m0 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"bdi", "cfg/v1:m1 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"bdi-40", "cfg/v1:m2 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"bdi-41", "cfg/v1:m3 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"bdi-42", "cfg/v1:m4 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csbdi flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"fpc", "cfg/v1:m1 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csfpc flt{seed=0,stuck=0,transient=0,redirect=false}"},
		{"static", "cfg/v1:m1 gtrue sgto cl2 dl1 chfalse sm15 w48 cta8 col8 c2 d4 wake10 dpuncompressed sch2 alu4 sfu8 gm67108864 gl200 gi64 sl24 l116/4/30 rfc0 drw0 mc200000000 ep0 csstatic flt{seed=0,stuck=0,transient=0,redirect=false}"},
	}
	configs := map[string]sim.Config{"DefaultConfig": sim.DefaultConfig(), "BaselineConfig": sim.BaselineConfig()}
	for _, name := range core.Compressions() {
		c := sim.DefaultConfig()
		c.Compression = name
		configs[name] = c
	}
	if len(configs) != len(pinned) {
		t.Fatalf("core.Compressions() = %v; pin every setting here", core.Compressions())
	}
	for _, p := range pinned {
		c, ok := configs[p.name]
		if !ok {
			t.Fatalf("%s is no longer a compression setting", p.name)
		}
		if got := ConfigSignature(&c); got != p.sig {
			t.Errorf("%s:\n got: %s\nwant: %s", p.name, got, p.sig)
		}
	}
}

// TestConfigSignatureDefaultSpellings: a config that spells out a default
// the simulator treats like its zero value (DivergencePolicy "" for
// "uncompressed") signs as the default does, so an override that names
// the default reuses its cache entry instead of simulating again. Each
// pair really does simulate byte-identically.
func TestConfigSignatureDefaultSpellings(t *testing.T) {
	def := sim.DefaultConfig()
	def.NumSMs = 4
	run := func(c sim.Config) []byte {
		t.Helper()
		gpu, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		bfs, _ := kernels.ByName("bfs")
		inst, err := bfs.Build(gpu.Mem(), kernels.Small)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpu.Run(inst.Launch)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(def)
	for _, alias := range []struct {
		name string
		set  func(*sim.Config)
	}{
		{`DivergencePolicy ""`, func(c *sim.Config) { c.DivergencePolicy = "" }},
	} {
		c := def
		alias.set(&c)
		if got, want := ConfigSignature(&c), ConfigSignature(&def); got != want {
			t.Errorf("%s signs apart from the default:\n got: %s\nwant: %s", alias.name, got, want)
		}
		if !bytes.Equal(run(c), want) {
			t.Errorf("%s simulates differently from the default; it must not share its signature", alias.name)
		}
	}
}

// TestConfigSignatureFaultFields: every fault knob must alter the
// signature individually (the exhibit that varies them depends on it).
func TestConfigSignatureFaultFields(t *testing.T) {
	base := sim.DefaultConfig()
	want := ConfigSignature(&base)
	for _, mut := range []func(*sim.Config){
		func(c *sim.Config) { c.Faults.Seed = 42 },
		func(c *sim.Config) { c.Faults.StuckAtBanks = 2 },
		func(c *sim.Config) { c.Faults.TransientPerM = 100 },
		func(c *sim.Config) { c.Faults.Redirect = true },
	} {
		mod := base
		mut(&mod)
		if ConfigSignature(&mod) == want {
			t.Errorf("fault mutation did not change signature: %+v", mod.Faults)
		}
	}
}

package hanccr

import (
	"flag"
	"io"
	"testing"
	"time"
)

// TestScenarioFlagsDefaultsMatchNewScenario pins the anti-drift
// guarantee the shared flag block exists for: parsing an empty command
// line yields exactly the scenario NewScenario() builds, for every
// binary.
func TestScenarioFlagsDefaultsMatchNewScenario(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := BindScenarioFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sc, err := sf.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Key() != NewScenario().Key() {
		t.Fatalf("flag defaults diverge from NewScenario():\nflags: %+v", sf)
	}
}

// TestScenarioFlagsSubset checks subset binding defines exactly the
// requested flags.
func TestScenarioFlagsSubset(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindScenarioFlags(fs, "family", "tasks", "seed")
	for _, name := range []string{"family", "tasks", "seed"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s missing", name)
		}
	}
	for _, name := range []string{"procs", "pfail", "ccr", "bw", "workers", "input", "ragged"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s bound although not requested", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown flag name must panic")
		}
	}()
	BindScenarioFlags(flag.NewFlagSet("y", flag.ContinueOnError), "familly")
}

// TestBindServeFlagsDefaults pins the daemon flag block: defaults
// match the documented constants and a parsed command line reaches the
// struct.
func TestBindServeFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := BindServeFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sf.Addr != ":8080" || sf.Cache != DefaultCacheCapacity || sf.Shards != DefaultShards ||
		sf.Tail != "" || sf.WarmWorkers != 0 {
		t.Fatalf("serve defaults = %+v", sf)
	}
	svc, err := sf.Service()
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Shards != DefaultShards || st.Capacity < DefaultCacheCapacity {
		t.Fatalf("default service stats = %+v", st)
	}

	fs = flag.NewFlagSet("serve", flag.ContinueOnError)
	sf = BindServeFlags(fs)
	err = fs.Parse([]string{
		"-addr", ":9090", "-cache", "64", "-shards", "4",
		"-tail", "http://10.0.0.2:8080, https://peer/", "-warm-workers", "2",
		"-store", t.TempDir(), "-store-verify", "-store-compact", "30s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sf.Addr != ":9090" || sf.Cache != 64 || sf.Shards != 4 ||
		sf.WarmWorkers != 2 ||
		sf.Store == "" || !sf.StoreVerify || sf.StoreCompact != 30*time.Second {
		t.Fatalf("parsed serve flags = %+v", sf)
	}
	if peers, err := sf.TailSources(); err != nil || len(peers) != 2 || peers[1] != "https://peer/" {
		t.Fatalf("TailSources() = %q, %v; want the two peer URLs", peers, err)
	}
	sf.Tail = "http://10.0.0.2:8080,/var/lib/hanccr/r1.jsonl"
	if _, err := sf.TailSources(); err == nil {
		t.Fatal("TailSources accepted a file path; -tail takes peer URLs only")
	}
	svc, err = sf.Service()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.CloseStore()
	if st := svc.Stats(); st.Shards != 4 || st.Capacity != 64 {
		t.Fatalf("parsed service stats = %+v", st)
	}
}

// TestScenarioFlagsParse exercises a realistic command line end to end,
// including strategy pass-through and the input-file path.
func TestScenarioFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := BindScenarioFlags(fs)
	err := fs.Parse([]string{
		"-family", "montage", "-tasks", "80", "-procs", "7",
		"-pfail", "0.01", "-ccr", "0.5", "-seed", "9", "-bw", "2e8", "-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sf.Scenario(WithStrategy(CkptAll))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Strategy() != CkptAll || sc.Seed() != 9 {
		t.Fatalf("scenario = %+v", sc)
	}
	want := NewScenario(
		WithFamily("montage"), WithTasks(80), WithProcs(7),
		WithPFail(0.01), WithCCR(0.5), WithSeed(9), WithBandwidth(2e8),
		WithStrategy(CkptAll),
	)
	if sc.Key() != want.Key() {
		t.Fatal("parsed scenario hashes differently from the equivalent NewScenario")
	}
}

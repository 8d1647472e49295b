package cliflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/netdist"
	"repro/internal/obs"
)

func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterDefaults(t *testing.T) {
	c := parse(t)
	if c.Parallel != 0 || c.Nodes != 0 || c.CPUProfile != "" || c.MemProfile != "" {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if err := c.ValidateNodes(); err != nil {
		t.Fatalf("default nodes rejected: %v", err)
	}
}

func TestRegisterParsesShared(t *testing.T) {
	c := parse(t, "-parallel", "4", "-nodes", "96")
	if c.Parallel != 4 || c.Nodes != 96 {
		t.Fatalf("parsed %+v", c)
	}
}

func TestValidation(t *testing.T) {
	if err := parse(t, "-nodes", "-3").ValidateNodes(); err == nil {
		t.Error("negative nodes accepted")
	}
}

// TestProgressMeter: off by default (nil, so callers skip the option),
// a live meter when -progress is set.
func TestProgressMeter(t *testing.T) {
	if parse(t).ProgressMeter("x") != nil {
		t.Error("progress meter on without -progress")
	}
	if parse(t, "-progress").ProgressMeter("x") == nil {
		t.Error("-progress produced no meter")
	}
}

// TestStartMetrics: a no-op without -metrics-addr, a live scrape
// endpoint with one.
func TestStartMetrics(t *testing.T) {
	snap := func() obs.Snapshot { return obs.Snapshot{} }
	stop, err := parse(t).StartMetrics(snap)
	if err != nil {
		t.Fatalf("no-op metrics server errored: %v", err)
	}
	stop()

	stop, err = parse(t, "-metrics-addr", "127.0.0.1:0").StartMetrics(snap)
	if err != nil {
		t.Fatalf("metrics server failed to start: %v", err)
	}
	stop()

	if _, err := parse(t, "-metrics-addr", "256.0.0.1:bad").StartMetrics(snap); err == nil {
		t.Error("bad -metrics-addr accepted")
	}
}

// TestResolveBackend: the transport flag matrix — default pool,
// -connect exclusivity, cache wrapping, and bad values.
func TestResolveBackend(t *testing.T) {
	b, stop, err := parse(t).ResolveBackend()
	if err != nil || b != nil {
		t.Errorf("default: backend = %v, err = %v, want nil/nil", b, err)
	}
	if stop != nil {
		stop()
	}

	for _, tc := range [][]string{
		{"-connect", "x:1", "-backend", "proc"},
		{"-connect", "x:1", "-workers", "2"},
		{"-connect", " , "},
		{"-cache-mb", "-1"},
		{"-backend", "quantum"},
	} {
		if _, _, err := parse(t, tc...).ResolveBackend(); err == nil {
			t.Errorf("%v accepted", tc)
		}
	}

	// -cache-mb alone wraps a private pool in a cache.
	b, stop, err = parse(t, "-cache-mb", "64").ResolveBackend()
	if err != nil || b == nil {
		t.Fatalf("cache-only: backend = %v, err = %v", b, err)
	}
	if _, ok := b.(*netdist.Cache); !ok {
		t.Errorf("cache-only backend is %T, want *netdist.Cache", b)
	}
	stop()

	// -connect builds a network backend (dialing is lazy, so no server
	// needs to exist here); -cache-mb stacks the cache on top of it.
	b, stop, err = parse(t, "-connect", "127.0.0.1:1", "-cache-mb", "64").ResolveBackend()
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	c, ok := b.(*netdist.Cache)
	if !ok {
		t.Fatalf("connect+cache backend is %T, want *netdist.Cache", b)
	}
	if _, ok := c.Unwrap().(*netdist.NetBackend); !ok {
		t.Errorf("cache wraps %T, want *netdist.NetBackend", c.Unwrap())
	}
	stop()
}

package system

import (
	"bufio"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current code")

const goldenPath = "testdata/golden_digests.txt"

// goldenSeeds are the replication seeds of every golden case.
var goldenSeeds = []uint64{1, 2, 3}

// goldenExcluded names the Metrics fields left out of the digest. They
// measure scheduling mechanics, not simulation outcomes: the engine's
// event totals (how many events a run needed) and its pending-event
// high-water mark (how deep the queue got). A stream whose next arrival
// falls past the horizon holds no pending event, so an arrival
// generator that reaches the same results with fewer events also keeps
// a shallower queue at the end of a run, and keeps its digests.
var goldenExcluded = map[string]bool{
	"Engine.EventsScheduled": true,
	"Engine.EventsFired":     true,
	"Engine.EventsCancelled": true,
	"Engine.PendingHWM":      true,
}

// goldenCase is one configuration of the golden matrix; its seeds run
// as one replication set on warm workspaces.
type goldenCase struct {
	name string
	cfg  Config
}

// goldenHorizons keeps every topology at roughly the same task count,
// so the whole matrix stays a few seconds of simulation.
var goldenHorizons = map[int]float64{6: 2000, 64: 200, 1024: 25}

// goldenCases is the matrix the digests freeze: every scenario preset
// plus the generated churn schedule and the stationary model, at three
// topology sizes, under UD and EQF. Case names end in "interleaved",
// the RNG layout (one stream per source, gap and body draws
// interleaved) every digest was recorded under.
func goldenCases(t testing.TB) []goldenCase {
	presets := []string{"none", "burst", "ramp", "storm", "outage", "heavytail", "churn"}
	var out []goldenCase
	for _, preset := range presets {
		for _, nodes := range []int{6, 64, 1024} {
			for _, ssp := range []string{"UD", "EQF"} {
				cfg := Baseline()
				cfg.Nodes = nodes
				cfg.Horizon = goldenHorizons[nodes]
				cfg.SSP = ssp
				cfg.Seed = goldenSeeds[0]
				var err error
				switch preset {
				case "none":
				case "churn":
					cfg.Scenario, err = scenario.Churn(nodes, 2, cfg.Horizon,
						scenario.ChurnOptions{Seed: cfg.Seed, SlowdownFrac: 0.25})
				default:
					cfg.Scenario, err = scenario.Preset(preset, cfg.Horizon)
				}
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenCase{
					name: fmt.Sprintf("%s/n%d/%s/interleaved", preset, nodes, ssp),
					cfg:  cfg,
				})
			}
		}
	}
	return out
}

// metricsDigest hashes every field of m except goldenExcluded, in
// declaration order: integers and float bits as big-endian words,
// accumulators and series through their bit-exact binary encodings,
// slices and nil-able pointers prefixed by length or presence. No gob,
// no map iteration, no decimal formatting — two runs share a digest iff
// their metrics are bit-identical.
func metricsDigest(m *Metrics) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(*m), "")
	return hex.EncodeToString(h.Sum(nil))
}

var binaryMarshaler = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()

func digestValue(h hash.Hash, v reflect.Value, path string) {
	word := func(u uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	if v.Kind() != reflect.Pointer && v.Type().Implements(binaryMarshaler) {
		b, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(fmt.Sprintf("golden: %s: %v", path, err))
		}
		word(uint64(len(b)))
		h.Write(b)
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if !goldenExcluded[name] {
				digestValue(h, v.Field(i), name)
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		digestValue(h, v.Elem(), path)
	case reflect.Slice:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i), path)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float64:
		word(math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("golden: %s: unhandled kind %s", path, v.Kind()))
	}
}

// runGolden runs every golden case's seeds and returns one line per
// replication: "<case>/seed<N> <digest>".
func runGolden(t *testing.T) []string {
	t.Helper()
	var lines []string
	ws := NewWorkspace()
	for _, c := range goldenCases(t) {
		runs, err := runSeeds(ws, c.cfg, len(goldenSeeds))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, m := range runs {
			lines = append(lines, fmt.Sprintf("%s/seed%d %s", c.name, goldenSeeds[i], metricsDigest(m)))
		}
	}
	return lines
}

// TestGoldenDigests pins the simulator's outputs bit for bit across the
// golden matrix. The digests in testdata were generated before inline
// arrival thinning landed and must never change under a pure
// performance change; regenerate them (go test ./internal/system -run
// TestGoldenDigests -update-golden) only for a deliberate change of the
// sample path, and say so in the change log.
func TestGoldenDigests(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Per-replication system.Metrics digests; see TestGoldenDigests.\n")
		b.WriteString("# Engine event totals and the pending-event high-water mark are excluded.\n")
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d digests differ", bad, len(want))
	}
}

// TestInlineThinningEventCounts pins what inline arrival thinning buys
// and what it leaves alone, against engine totals recorded with the
// event-per-candidate generator it replaced (the 1024-node golden cases,
// UD, seeds 1-3). A burst replication fires at least
// 30% fewer events, since rejected candidates no longer reach the
// engine; a stationary replication schedules and fires exactly the
// events it did, since unmodulated streams kept their path.
func TestInlineThinningEventCounts(t *testing.T) {
	type totals struct{ scheduled, fired uint64 }
	candidatePath := map[string][]totals{
		"none/n1024/UD/interleaved":  {{23701, 22164}, {23203, 21671}, {23627, 22089}},
		"burst/n1024/UD/interleaved": {{46462, 44864}, {45879, 44300}, {46554, 44944}},
	}
	ws := NewWorkspace()
	for _, c := range goldenCases(t) {
		want, ok := candidatePath[c.name]
		if !ok {
			continue
		}
		runs, err := runSeeds(ws, c.cfg, len(want))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range runs {
			e, w := m.Engine, want[i]
			if c.cfg.Scenario == nil {
				if e.EventsScheduled != w.scheduled || e.EventsFired != w.fired {
					t.Errorf("%s seed %d: scheduled/fired %d/%d, want %d/%d unchanged",
						c.name, goldenSeeds[i], e.EventsScheduled, e.EventsFired, w.scheduled, w.fired)
				}
				continue
			}
			if limit := w.fired * 7 / 10; e.EventsFired > limit {
				t.Errorf("%s seed %d: fired %d events, want <= %d (70%% of %d)",
					c.name, goldenSeeds[i], e.EventsFired, limit, w.fired)
			}
		}
	}
}

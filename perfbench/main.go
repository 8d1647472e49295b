// Command perfbench is the repository's benchmark: one command that runs
// one workload, checks every output for correctness, and prints each
// metric by name with its unit. The last line of standard output is a
// JSON summary.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload service --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the traced
// mode: spans around every call into the layers, isolated layer replays
// driven by a recorded input stream, and the per-layer attribution
// table. README.md explains each workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/system"
)

// setupRepeats is how many times an untraced run sets up from scratch;
// setup_s is the median, which keeps one slow page-fault or GC storm out
// of it.
const setupRepeats = 5

// minPasses is the fewest timed passes any run makes, however short its
// window.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params configures one workload run.
type params struct {
	seed   uint64
	window time.Duration // the timed window
	setups int           // set-ups made; setup_s is their median
	spans  *spanLog      // nil when tracing is off
}

// families maps each workload name to the function that runs it.
var families = map[string]func(params) (*famResult, error){
	"paper-sweep": runSweep,
	"scale-64k":   runScale,
	"service":     runService,
}

// outcome counts a run's checked operations and says why any failed.
type outcome struct {
	attempted, failed int
	problems          []string
}

// check counts one operation, failing it with the formatted reason when
// ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.problems = append(o.problems, other.problems...)
}

// famResult is what one run of a workload measured.
type famResult struct {
	outcome
	setup        []float64 // seconds per set-up, warm-up operation included
	passSecs     []float64 // wall time of each timed pass
	opsPerPass   int       // operations in one pass
	tasksPerPass uint64    // simulated tasks in one pass (deterministic)
	allocBytes   uint64    // bytes allocated inside timed passes
	hitMs        []float64 // latency of operations answered without simulating
	missMs       []float64 // latency of operations that ran a replication
	heapBytes    uint64    // live heap at the point the workload reads it
	gcCycles     uint32    // GC cycles inside timed passes
	gcPause      time.Duration
	minMiss      int               // miss latencies a timed window collects at least
	layers       map[string]metric // layer metrics this workload measures itself
	capture      system.Config     // the configuration layer replays record
}

func newFamResult(opsPerPass, minMiss int, capture system.Config) *famResult {
	return &famResult{opsPerPass: opsPerPass, minMiss: minMiss, capture: capture, layers: map[string]metric{}}
}

// endToEnd derives the end-to-end metrics. Rates divide one pass's
// deterministic work by the median pass time. Allocation is a mean over
// every pass: the task pool allocates in 512-task slabs, so one pass's
// bytes are quantized and only their average is steady.
func (r *famResult) endToEnd() map[string]metric {
	t := median(r.passSecs)
	return map[string]metric{
		"setup_s":     {median(r.setup), "s"},
		"tasks_per_s": {float64(r.tasksPerPass) / t, "tasks/s"},
		"req_per_s":   {float64(r.opsPerPass) / t, "req/s"},
		"alloc_mb":    {float64(r.allocBytes) / float64(len(r.passSecs)*r.opsPerPass) / 1e6, "MB/op"},
		"heap_mb":     {float64(r.heapBytes) / 1e6, "MB"},
		"hit_p50_ms":  {percentile(r.hitMs, 50), "ms"},
		"miss_p50_ms": {percentile(r.missMs, 50), "ms"},
		"miss_p90_ms": {percentile(r.missMs, 90), "ms"},
	}
}

// timedPass runs fn after a GC and returns its wall time; the MemStats
// readings that bracket it (allocation, GC cycles and pauses) are taken
// outside the timed span.
func (r *famResult) timedPass(fn func()) time.Duration {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	r.passSecs = append(r.passSecs, d.Seconds())
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return d
}

// more reports whether to start another timed pass: until the window has
// elapsed, at least minPasses ran and, in a timed window, the miss
// latencies number minMiss.
func (r *famResult) more(start time.Time, window time.Duration, passes int) bool {
	return passes < minPasses || time.Since(start) < window || (window > 0 && len(r.missMs) < r.minMiss)
}

// heapLive returns the bytes of live heap objects after a GC: the working
// set. Unlike HeapInuse it does not count free slots in partly used
// spans, which vary with allocation order.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// nsPer times body, which does some units of work and returns how many:
// after one warm-up call it runs five rounds of at least 50 ms each and
// returns the median nanoseconds per unit.
func nsPer(body func() int) float64 {
	body()
	rounds := make([]float64, 5)
	for i := range rounds {
		start := time.Now()
		units := 0
		for time.Since(start) < 50*time.Millisecond {
			units += body()
		}
		rounds[i] = float64(time.Since(start).Nanoseconds()) / float64(units)
	}
	return median(rounds)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-sweep, scale-64k or service")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced mode writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fam, ok := families[*name]
	if !ok || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: want --workload paper-sweep|scale-64k|service, --trace 0|1 and --seconds > 0")
		return 2
	}
	p := params{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), setups: setupRepeats}
	var (
		metrics map[string]metric
		out     outcome
		err     error
	)
	if *traced == 1 {
		metrics, out, err = runTraced(*name, p, *spansDir, stdout)
	} else {
		var r *famResult
		if r, err = fam(p); err == nil {
			metrics, out = r.endToEnd(), r.outcome
			fmt.Fprintf(stdout, "%s: %d passes of %d ops; latency samples: hit n=%d, miss n=%d (%d beyond miss_p90_ms)\n",
				*name, len(r.passSecs), r.opsPerPass, len(r.hitMs), len(r.missMs), beyond(len(r.missMs), 90))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printMetrics(stdout, metrics)
	for _, pr := range out.problems {
		fmt.Fprintln(stdout, "FAILED:", pr)
	}
	line, err := json.Marshal(summary{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: encode summary: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func printMetrics(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the enclosing
// span's ID (0 at a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so the untraced mode runs the same code.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent, req uint64) uint64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (l *spanLog) end(id uint64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerTime totals the spans of one name.
type layerTime struct {
	Count       int
	Total, Self time.Duration
}

// selfTimes sums each span name's duration and self time: a span's
// duration minus the part of its interval its children cover. Children
// that overlap (parallel workers) count once. Unclosed spans are skipped.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s.Start, s.End, kids[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanKey carries the enclosing span through a context, so a backend
// wrapper called deep inside a layer parents its span correctly.
type spanKey struct{}

type spanRef struct{ id, req uint64 }

func withSpan(ctx context.Context, id, req uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
}

func spanFrom(ctx context.Context) (id, req uint64) {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r.id, r.req
}

package system

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/queueing"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shortBaseline returns a fast configuration for unit-level integration
// tests (shape assertions use longer horizons in shape_test.go).
func shortBaseline() Config {
	cfg := Baseline()
	cfg.Horizon = 10000
	return cfg
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{name: "zero nodes", mut: func(c *Config) { c.Nodes = 0 }},
		{name: "zero mu", mut: func(c *Config) { c.MuLocal = 0 }},
		{name: "negative mu subtask", mut: func(c *Config) { c.MuSubtask = -1 }},
		{name: "zero load", mut: func(c *Config) { c.Load = 0 }},
		{name: "overload", mut: func(c *Config) { c.Load = 1.0 }},
		{name: "frac_local > 1", mut: func(c *Config) { c.FracLocal = 1.5 }},
		{name: "inverted slack", mut: func(c *Config) { c.SlackMin = 3; c.SlackMax = 1 }},
		{name: "negative rel_flex", mut: func(c *Config) { c.RelFlex = -1 }},
		{name: "negative pex err", mut: func(c *Config) { c.PexRelErr = -0.1 }},
		{name: "zero horizon", mut: func(c *Config) { c.Horizon = 0 }},
		{name: "warmup beyond horizon", mut: func(c *Config) { c.Warmup = c.Horizon }},
		{name: "zero m", mut: func(c *Config) { c.M = 0 }},
		{name: "bad SSP", mut: func(c *Config) { c.SSP = "nope" }},
		{name: "bad PSP", mut: func(c *Config) { c.PSP = "nope" }},
		{name: "bad scheduler", mut: func(c *Config) { c.Scheduler = sched.Policy("??") }},
		{name: "multiplier count", mut: func(c *Config) { c.LocalRateMultipliers = []float64{1, 2} }},
		{name: "negative multiplier", mut: func(c *Config) {
			c.LocalRateMultipliers = []float64{1, 1, 1, 1, 1, -1}
		}},
		{name: "zero multipliers", mut: func(c *Config) {
			c.LocalRateMultipliers = []float64{0, 0, 0, 0, 0, 0}
		}},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := shortBaseline()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted a bad config")
			}
		})
	}
	good := shortBaseline()
	if err := good.Validate(); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
}

// TestValidateRejectsOversizedTopology: a node count whose pending
// events could exhaust the engine's slot space must fail validation
// with an error naming the limit, so Run returns it instead of the
// engine panicking mid-run (nothing recovers that panic; it would take
// down a service process).
func TestValidateRejectsOversizedTopology(t *testing.T) {
	if 2*MaxNodes+1 >= sim.PendingCapacity {
		t.Fatalf("MaxNodes %d leaves no room for the global stream in a capacity of %d", MaxNodes, sim.PendingCapacity)
	}
	for _, nodes := range []int{MaxNodes + 1, sim.PendingCapacity / 2, sim.PendingCapacity} {
		cfg := shortBaseline()
		cfg.Nodes = nodes
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("Validate accepted Nodes = %d", nodes)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(MaxNodes)) {
			t.Fatalf("Nodes = %d: error %q does not name the limit %d", nodes, err, MaxNodes)
		}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run accepted Nodes = %d", nodes)
		}
	}
	cfg := shortBaseline()
	cfg.Nodes = MaxNodes
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected Nodes = MaxNodes: %v", err)
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite float field must fail
// validation naming the field, not pass (a NaN horizon never ends a run)
// or fail somewhere downstream.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		at   func(*Config) *float64
	}{
		{"MuSubtask", func(c *Config) *float64 { return &c.MuSubtask }},
		{"MuLocal", func(c *Config) *float64 { return &c.MuLocal }},
		{"Load", func(c *Config) *float64 { return &c.Load }},
		{"FracLocal", func(c *Config) *float64 { return &c.FracLocal }},
		{"SlackMin", func(c *Config) *float64 { return &c.SlackMin }},
		{"SlackMax", func(c *Config) *float64 { return &c.SlackMax }},
		{"RelFlex", func(c *Config) *float64 { return &c.RelFlex }},
		{"PexRelErr", func(c *Config) *float64 { return &c.PexRelErr }},
		{"Horizon", func(c *Config) *float64 { return &c.Horizon }},
		{"Warmup", func(c *Config) *float64 { return &c.Warmup }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", f.name, v), func(t *testing.T) {
				cfg := shortBaseline()
				*f.at(&cfg) = v
				err := cfg.Validate()
				if err == nil {
					t.Fatal("Validate accepted it")
				}
				if !strings.Contains(err.Error(), f.name) {
					t.Fatalf("error %q does not name %s", err, f.name)
				}
			})
		}
	}
}

func TestDeriveRates(t *testing.T) {
	cfg := shortBaseline()
	rates, err := cfg.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	// λ_local = frac·load·µ_local = 0.75·0.5·1 = 0.375 per node.
	if math.Abs(rates.LocalPerNode-0.375) > 1e-12 {
		t.Errorf("LocalPerNode = %v, want 0.375", rates.LocalPerNode)
	}
	// λ_global = (1−frac)·load·k·µ_s/m = 0.25·0.5·6/4 = 0.1875.
	if math.Abs(rates.Global-0.1875) > 1e-12 {
		t.Errorf("Global = %v, want 0.1875", rates.Global)
	}
	// Reconstruct the load equation.
	load := (rates.Global*rates.MeanSubtasks/cfg.MuSubtask +
		float64(cfg.Nodes)*rates.LocalPerNode/cfg.MuLocal) / float64(cfg.Nodes)
	if math.Abs(load-cfg.Load) > 1e-12 {
		t.Errorf("reconstructed load = %v, want %v", load, cfg.Load)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 5000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalGenerated != b.LocalGenerated || a.GlobalGenerated != b.GlobalGenerated {
		t.Fatalf("same seed generated different arrivals: %d/%d vs %d/%d",
			a.LocalGenerated, a.GlobalGenerated, b.LocalGenerated, b.GlobalGenerated)
	}
	if a.LocalMiss.Hits() != b.LocalMiss.Hits() || a.GlobalMiss.Hits() != b.GlobalMiss.Hits() {
		t.Fatal("same seed produced different miss counts")
	}
	if a.MeanUtilization() != b.MeanUtilization() {
		t.Fatal("same seed produced different utilization")
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalGenerated == c.LocalGenerated && a.LocalMiss.Hits() == c.LocalMiss.Hits() {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestTaskConservation(t *testing.T) {
	cfg := shortBaseline()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalGenerated == 0 || m.GlobalGenerated == 0 {
		t.Fatal("nothing generated")
	}
	// Everything generated is either done or still in flight.
	if m.LocalDone+m.LocalInFlight != m.LocalGenerated {
		t.Errorf("local conservation broken: done %d + inflight %d != generated %d",
			m.LocalDone, m.LocalInFlight, m.LocalGenerated)
	}
	if m.GlobalDone+m.GlobalInFlight != m.GlobalGenerated {
		t.Errorf("global conservation broken: done %d + inflight %d != generated %d",
			m.GlobalDone, m.GlobalInFlight, m.GlobalGenerated)
	}
	// In-flight work at the end of a stable run is a handful of tasks,
	// not a growing backlog.
	if m.LocalInFlight > m.LocalGenerated/10 {
		t.Errorf("local backlog too large: %d of %d", m.LocalInFlight, m.LocalGenerated)
	}
}

func TestUtilizationMatchesLoad(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 30000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MeanUtilization(); math.Abs(got-cfg.Load) > 0.03 {
		t.Errorf("mean utilization = %v, want about load %v", got, cfg.Load)
	}
	for i, u := range m.Utilization {
		if u < 0.3 || u > 0.7 {
			t.Errorf("node %d utilization %v far from homogeneous load 0.5", i, u)
		}
	}
}

func TestArrivalCountsMatchRates(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 30000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := cfg.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	wantLocal := rates.LocalPerNode * float64(cfg.Nodes) * cfg.Horizon
	if math.Abs(float64(m.LocalGenerated)-wantLocal)/wantLocal > 0.05 {
		t.Errorf("local arrivals = %d, want about %v", m.LocalGenerated, wantLocal)
	}
	wantGlobal := rates.Global * cfg.Horizon
	if math.Abs(float64(m.GlobalGenerated)-wantGlobal)/wantGlobal > 0.05 {
		t.Errorf("global arrivals = %d, want about %v", m.GlobalGenerated, wantGlobal)
	}
}

func TestPureLocalMM1Sanity(t *testing.T) {
	// With frac_local = 1 each node is an independent M/M/1 queue at
	// ρ = load: mean response time W = 1/(µ(1−ρ)) = 2 for ρ = 0.5.
	cfg := shortBaseline()
	cfg.FracLocal = 1
	cfg.Horizon = 60000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalGenerated != 0 {
		t.Fatalf("pure local config generated %d globals", m.GlobalGenerated)
	}
	got := m.LocalResponse.Mean()
	if math.Abs(got-2) > 0.15 {
		t.Errorf("M/M/1 mean response = %v, want 2.0 +/- 0.15", got)
	}
}

func TestFCFSLocalMissMatchesMM1Theory(t *testing.T) {
	// With frac_local = 1 and FCFS, each node is an exact M/M/1 queue
	// and the local miss probability has the closed form
	// P(Wq > sl), sl ~ U[Smin, Smax] — waiting is independent of the
	// job's own service under FCFS. This validates the entire pipeline
	// (arrivals, service sampling, queueing, deadline accounting,
	// metrics) against theory.
	cfg := shortBaseline()
	cfg.FracLocal = 1
	cfg.Scheduler = sched.FCFS
	cfg.Horizon = 60000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := cfg.DeriveRates()
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.MM1{Lambda: rates.LocalPerNode, Mu: cfg.MuLocal}
	want, err := q.MissProbUniformSlack(cfg.SlackMin, cfg.SlackMax)
	if err != nil {
		t.Fatal(err)
	}
	got := m.LocalMiss.Value()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("FCFS local miss ratio = %.4f, M/M/1 theory = %.4f (+/- 0.01)", got, want)
	}
}

// TestFCFSLocalResponseMatchesMG1 checks one FCFS node carrying only
// local tasks against the Pollaczek–Khinchine mean response, with the
// scenario demand override supplying non-exponential service: the mean
// LocalResponse over independent seeds must lie within four standard
// errors of E[S] + λE[S²]/(2(1−ρ)).
func TestFCFSLocalResponseMatchesMG1(t *testing.T) {
	const seeds = 8
	// Second moments at mean 1: lognormal e^{σ²}; Pareto αx_m²/(α−2)
	// with x_m = (α−1)/α.
	const alpha = 4.5
	xm := (alpha - 1) / alpha
	cases := []struct {
		demand       scenario.DemandSpec
		secondMoment float64
	}{
		{scenario.DemandSpec{Dist: "deterministic"}, 1},
		{scenario.DemandSpec{Dist: "lognormal", Sigma: 1}, math.E},
		{scenario.DemandSpec{Dist: "pareto", Alpha: alpha}, alpha * xm * xm / (alpha - 2)},
	}
	for _, c := range cases {
		t.Run(c.demand.Dist, func(t *testing.T) {
			cfg := Baseline()
			cfg.Nodes, cfg.FracLocal, cfg.Load = 1, 1, 0.5
			cfg.Scheduler = sched.FCFS
			cfg.Horizon = 20000
			cfg.Scenario = scenario.MustNew(scenario.Spec{Demand: &c.demand})
			rates, err := cfg.DeriveRates()
			if err != nil {
				t.Fatal(err)
			}
			q := queueing.MG1{Lambda: rates.LocalPerNode, MeanService: 1 / cfg.MuLocal, SecondMoment: c.secondMoment}
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			var means stats.Welford
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg.Seed = seed
				m, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				means.Add(m.LocalResponse.Mean())
			}
			se := means.StdDev() / math.Sqrt(seeds)
			want := q.MeanSojourn()
			t.Logf("mean response = %.4f ± %.4f (se), M/G/1 = %.4f", means.Mean(), se, want)
			if math.Abs(means.Mean()-want) > 4*se {
				t.Errorf("mean response %.4f is more than 4 se from M/G/1 %.4f", means.Mean(), want)
			}
		})
	}
}

func TestGlobalsFirstConfigServesGlobalsSooner(t *testing.T) {
	base := shortBaseline()
	base.Shape = workload.ParallelShape{M: 4, MeanExec: 1}
	base.SlackMin, base.SlackMax = 1.25, 5.0

	ud := base
	ud.PSP = "UD"
	gf := base
	gf.PSP = "GF"

	mUD, err := Run(ud)
	if err != nil {
		t.Fatal(err)
	}
	mGF, err := Run(gf)
	if err != nil {
		t.Fatal(err)
	}
	if mGF.GlobalResponse.Mean() >= mUD.GlobalResponse.Mean() {
		t.Errorf("GF global response %v not better than UD %v",
			mGF.GlobalResponse.Mean(), mUD.GlobalResponse.Mean())
	}
}

func TestAbortPolicyAbortsOnlyWhenConfigured(t *testing.T) {
	cfg := shortBaseline()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalAborted != 0 || m.GlobalAborted != 0 {
		t.Fatalf("no-abort run aborted %d local / %d global", m.LocalAborted, m.GlobalAborted)
	}
	cfg.TardyAbort = true
	cfg.SlackMin, cfg.SlackMax = 0.0, 0.5 // tight slack forces aborts
	m2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.LocalAborted == 0 {
		t.Error("tight-slack abort run discarded no local tasks")
	}
	if m2.GlobalAborted == 0 {
		t.Error("tight-slack abort run discarded no global instances")
	}
	// Conservation still holds with aborts.
	if m2.LocalDone+m2.LocalInFlight != m2.LocalGenerated {
		t.Error("local conservation broken under abort policy")
	}
}

func TestFirmAbortGentlerThanVirtualAbortForDIV(t *testing.T) {
	// DIV-1 assigns deliberately early virtual deadlines. Aborting on
	// those kills tasks that could still meet dl(T); aborting on the
	// end-to-end (firm) deadline must discard far fewer global tasks.
	base := shortBaseline()
	base.Shape = workload.ParallelShape{M: 4, MeanExec: 1}
	base.SlackMin, base.SlackMax = 1.25, 5.0
	base.PSP = "DIV-1"

	virtual := base
	virtual.TardyAbort = true
	firm := base
	firm.FirmAbort = true

	mv, err := Run(virtual)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := Run(firm)
	if err != nil {
		t.Fatal(err)
	}
	if mf.GlobalAborted >= mv.GlobalAborted {
		t.Errorf("firm abort discarded %d global tasks, virtual abort %d; firm should be gentler",
			mf.GlobalAborted, mv.GlobalAborted)
	}
	if mf.MDGlobal() >= mv.MDGlobal() {
		t.Errorf("firm-abort MDglobal %.1f%% not below virtual-abort %.1f%%",
			mf.MDGlobal(), mv.MDGlobal())
	}
	// Both abort flags together must be rejected.
	both := base
	both.TardyAbort, both.FirmAbort = true, true
	if err := both.Validate(); err == nil {
		t.Error("TardyAbort+FirmAbort accepted")
	}
}

func TestHotNodeMultipliers(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 30000
	cfg.LocalRateMultipliers = []float64{3, 1, 1, 1, 1, 1}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 carries triple local load; its utilization must exceed the
	// others'.
	hot := m.Utilization[0]
	for i := 1; i < len(m.Utilization); i++ {
		if hot <= m.Utilization[i] {
			t.Errorf("hot node 0 utilization %v not above node %d's %v", hot, i, m.Utilization[i])
		}
	}
	// Total load unchanged.
	if got := m.MeanUtilization(); math.Abs(got-cfg.Load) > 0.04 {
		t.Errorf("mean utilization = %v, want about %v", got, cfg.Load)
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 500
	rec := trace.NewRecorder(0)
	cfg.Trace = rec
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	counts := rec.CountByKind()
	// Every completion observed by the metrics must appear in the trace.
	wantCompletes := m.LocalDone + (m.GlobalGenerated-m.GlobalInFlight)*0 // locals at least
	if int64(counts[trace.Complete]) < wantCompletes {
		t.Errorf("trace completions %d < local completions %d", counts[trace.Complete], wantCompletes)
	}
	if counts[trace.Submit] < counts[trace.Complete] {
		t.Errorf("submits %d < completions %d", counts[trace.Submit], counts[trace.Complete])
	}
	if counts[trace.Preempt] != 0 {
		t.Errorf("non-preemptive run recorded %d preemptions", counts[trace.Preempt])
	}
	// A task's history must be causally ordered: submit before dispatch
	// before complete.
	events := rec.Events()
	hist := rec.TaskHistory(events[0].TaskID)
	if len(hist) < 2 || hist[0].Kind != trace.Submit {
		t.Errorf("first task history starts with %v", hist[0].Kind)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].T < hist[i-1].T {
			t.Errorf("history timestamps go backwards: %v", hist)
		}
	}
	// CSV export round-trips the count.
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != rec.Len()+1 {
		t.Errorf("csv lines = %d, want %d", got, rec.Len()+1)
	}
}

func TestTracePreemptionEvents(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 2000
	cfg.Preemptive = true
	rec := trace.NewRecorder(0)
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	counts := rec.CountByKind()
	if counts[trace.Preempt] == 0 {
		t.Error("preemptive run recorded no preemption events")
	}
	// Every dispatch ends in a completion, a preemption, or is still in
	// service when the horizon ends (at most one per node).
	delta := counts[trace.Dispatch] - counts[trace.Complete] - counts[trace.Preempt]
	if delta < 0 || delta > cfg.Nodes {
		t.Errorf("dispatches %d vs completions %d + preemptions %d: residue %d outside [0, %d]",
			counts[trace.Dispatch], counts[trace.Complete], counts[trace.Preempt], delta, cfg.Nodes)
	}
}

func TestMLFSchedulerRuns(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 4000
	cfg.Scheduler = sched.MLF
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMixedShapeRuns(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 4000
	cfg.Shape = workload.MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1}
	cfg.SSP, cfg.PSP = "EQF", "DIV-1"
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalDone == 0 {
		t.Error("no mixed global tasks completed")
	}
}

func TestPexErrorRuns(t *testing.T) {
	cfg := shortBaseline()
	cfg.Horizon = 4000
	cfg.PexRelErr = 0.5
	cfg.SSP = "EQF"
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

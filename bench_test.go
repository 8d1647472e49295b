package repro

// One benchmark per paper artifact (Table 1 and every figure, plus the
// section-6 experiment, the section-4.3 ablations and the extensions).
// Each iteration regenerates the artifact at a reduced horizon — the
// benchmark measures the cost of reproducing the figure, and reports the
// headline miss ratios of the final iteration as custom metrics so the
// shape stays visible in benchmark output.
//
// Paper-scale regeneration is `sdasim -exp <id> -horizon 1e6 -reps 2`.

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// benchSession returns a session that b's cleanup closes. b's cleanup
// runs after each b.N round, so a benchmark that fans out with b.Run
// creates its session up front: it then outlives every round of every
// sub-benchmark, and its workspaces stay warm as a long-lived session's
// do.
func benchSession(b *testing.B, opts ...RunOption) *Session {
	sess := NewSession(opts...)
	b.Cleanup(func() { sess.Close() })
	return sess
}

// warmSession is benchSession for a benchmark without sub-benchmarks,
// whose session lives for one round only: one run of job warms a
// workspace per worker before the round measures anything.
func warmSession(b *testing.B, job Job, opts ...RunOption) *Session {
	b.Helper()
	sess := benchSession(b, opts...)
	if _, err := sess.Run(context.Background(), job); err != nil {
		b.Fatal(err)
	}
	return sess
}

// BenchmarkRunReplications measures the replicated-run fan-out at
// several worker counts. Replication results are bit-identical across
// the sub-benchmarks (see internal/session's determinism tests); only
// the wall clock should move. On a machine with >= 4 cores the
// parallel=4 case is expected to run >= 2x faster than parallel=1.
func BenchmarkRunReplications(b *testing.B) {
	cfg := BaselineConfig()
	cfg.Horizon = 2000
	job := Job{Config: cfg, Reps: 8}
	for _, parallel := range []int{1, 2, 4, 8} {
		sess := benchSession(b, WithParallelism(parallel))
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(context.Background(), job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioRun measures the scenario engine (burst preset:
// non-homogeneous arrivals via thinning, windowed series, merged across
// replications) at several worker counts. The merged CSV is
// byte-identical across the sub-benchmarks; only wall clock moves.
func BenchmarkScenarioRun(b *testing.B) {
	cfg := BaselineConfig()
	cfg.Horizon = 2000
	var err error
	if cfg.Scenario, err = ScenarioPreset("burst", cfg.Horizon); err != nil {
		b.Fatal(err)
	}
	job := Job{Config: cfg, Reps: 8}
	for _, parallel := range []int{1, 4} {
		sess := benchSession(b, WithParallelism(parallel))
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			b.ReportAllocs()
			var (
				last   *RunResult
				series *ScenarioSeries
			)
			for i := 0; i < b.N; i++ {
				res, err := sess.Run(context.Background(), job)
				if err != nil {
					b.Fatal(err)
				}
				if series, err = res.MergedSeries(); err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last != nil {
				b.ReportMetric(float64(series.Len()), "windows/op")
				b.ReportMetric(last.GlobalMD.Mean, "MDglobal%")
			}
		})
	}
}

// benchOptions keeps one iteration around tens of milliseconds.
func benchOptions() ExperimentOptions {
	return ExperimentOptions{Horizon: 1200, Reps: 1, Seed: 42}
}

// benchArtifact regenerates one experiment per iteration and reports the
// named curves' final y values as metrics.
func benchArtifact(b *testing.B, id string, reportCurves ...string) {
	b.Helper()
	opts := benchOptions()
	sess := NewSession()
	defer sess.Close()
	var last *ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := sess.Experiment(context.Background(), id, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last == nil || last.Figure == nil {
		return
	}
	for _, label := range reportCurves {
		c := last.Figure.Curve(label)
		if c == nil || len(c.Points) == 0 {
			continue
		}
		unit := strings.ReplaceAll(label, " ", "_") + "_MD%"
		b.ReportMetric(c.Points[len(c.Points)-1].Y, unit)
	}
}

func BenchmarkTable1BaselineRun(b *testing.B) {
	cfg := BaselineConfig()
	cfg.Horizon = 2000
	job := Job{Config: cfg}
	sess := warmSession(b, job, WithParallelism(1))
	b.ResetTimer()
	var last *SimMetrics
	for i := 0; i < b.N; i++ {
		res, err := sess.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Runs[0]
	}
	if last != nil {
		b.ReportMetric(float64(last.LocalGenerated+last.GlobalGenerated), "tasks/op")
		b.ReportMetric(last.MDGlobal(), "MDglobal%")
	}
}

func BenchmarkFig2aSSPLocal(b *testing.B)  { benchArtifact(b, "fig2a", "UD", "EQF") }
func BenchmarkFig2bSSPGlobal(b *testing.B) { benchArtifact(b, "fig2b", "UD", "EQF") }

func BenchmarkFig3FracLocal(b *testing.B) {
	benchArtifact(b, "fig3", "UD global", "EQF global")
}

func BenchmarkFig4PSP(b *testing.B) {
	benchArtifact(b, "fig4", "UD global", "DIV-1 global")
}

func BenchmarkCombinedSSPPSP(b *testing.B) {
	benchArtifact(b, "combined", "UD-UD global", "EQF-DIV-1 global")
}

func BenchmarkAblationPexError(b *testing.B) { benchArtifact(b, "abl-pexerr", "EQF") }

func BenchmarkAblationAbort(b *testing.B) {
	benchArtifact(b, "abl-abort", "DIV-1 abort", "GF abort")
}

func BenchmarkAblationMLF(b *testing.B) { benchArtifact(b, "abl-mlf", "EQF MLF") }

func BenchmarkAblationRelFlex(b *testing.B) { benchArtifact(b, "abl-relflex", "UD", "EQF") }

func BenchmarkAblationSubtasks(b *testing.B) { benchArtifact(b, "abl-m", "UD", "EQF") }

func BenchmarkAblationHeteroM(b *testing.B) {
	benchArtifact(b, "abl-hetm", "EQF hetero")
}

func BenchmarkAblationHotNode(b *testing.B) {
	benchArtifact(b, "abl-hot", "EQF global")
}

func BenchmarkExtensionArtificialStages(b *testing.B) {
	benchArtifact(b, "ext-as", "EQF-AS global")
}

func BenchmarkExtensionAdaptiveDiv(b *testing.B) {
	benchArtifact(b, "ext-adiv", "ADIV4")
}

func BenchmarkExtensionPreemptive(b *testing.B) {
	benchArtifact(b, "ext-preempt", "EQF preemptive")
}

func BenchmarkDiagnosticStages(b *testing.B) {
	benchArtifact(b, "diag-stages", "UD", "EQF")
}

// Micro-benchmarks of the core operations a downstream scheduler would
// call on its hot path.

func BenchmarkStrategyStageDeadline(b *testing.B) {
	remaining := []float64{1.2, 0.8, 2.5, 1.1}
	strategies := []struct {
		name string
		s    SerialStrategy
	}{
		{name: "UD", s: UD},
		{name: "ED", s: ED},
		{name: "EQS", s: EQS},
		{name: "EQF", s: EQF},
	}
	for _, tt := range strategies {
		b.Run(tt.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = tt.s.StageDeadline(10, 30, remaining)
			}
			_ = sink
		})
	}
}

func BenchmarkAssignerPlan(b *testing.B) {
	g := MustParseGraph("[a:1 [b:2 || c:3 || d:1] e:2 [f:1 || g:1] h:0.5]")
	a := NewAssigner(EQF, DIV(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Plan(g, 0, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphParse(b *testing.B) {
	const notation = "[gather:1 [f1:1 || f2:1.5 || f3:2] analyze:2 trade:1]"
	for i := 0; i < b.N; i++ {
		if _, err := ParseGraph(notation); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationThroughput(b *testing.B) {
	// Measures raw simulator speed in executed tasks per second at the
	// baseline load; the horizon scales with b.N. allocs/op here is the
	// steady-state allocation count per 10 simulated time units — the
	// pooled engine holds it at zero.
	b.ReportAllocs()
	cfg := BaselineConfig()
	warm := cfg
	warm.Horizon = 10
	sess := warmSession(b, Job{Config: warm}, WithParallelism(1))
	cfg.Horizon = float64(b.N) * 10
	cfg.Warmup = 1
	b.ResetTimer()
	res, err := sess.Run(context.Background(), Job{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	m := res.Runs[0]
	b.ReportMetric(float64(m.LocalDone+m.GlobalDone)/b.Elapsed().Seconds(), "tasks/s")
}

package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// registry holds every experiment: the two hand-written artifacts, then
// one entry per sweep spec. All() sorts by id.
var registry = func() []Experiment {
	r := []Experiment{table1, diagStages}
	for i := range sweeps {
		s := &sweeps[i]
		r = append(r, Experiment{ID: s.id, Title: s.title, Paper: s.paper, run: s.run})
	}
	return r
}()

// Axis labels shared by most sweeps.
const (
	mdPct       = "missed deadlines (%)"
	mdGlobalPct = "global missed deadlines (%)"
)

// sweeps is the table of sweep experiments: the paper's figures, then
// the ablations and extensions.
var sweeps = []sweepSpec{
	{
		id:       "fig2a",
		title:    "Fig. 2a — SSP baseline, local tasks",
		paper:    "MD_local vs load for UD/ED/EQS/EQF: curves nearly coincide (SSP strategy barely affects locals); about 24% at load 0.5.",
		figTitle: "Fig. 2a — SSP baseline: local task miss ratio",
		xLabel:   "load", yLabel: mdPct,
		base: system.Baseline, xs: loadGrid(), setX: setLoad,
		variants: each(localOnly, setSSP, "UD", "ED", "EQS", "EQF"),
	},
	{
		id:       "fig2b",
		title:    "Fig. 2b — SSP baseline, global tasks",
		paper:    "MD_global vs load: UD worst (about 40% at load 0.5), ED between UD and EQF, EQS ~ EQF best (about 30%).",
		figTitle: "Fig. 2b — SSP baseline: global task miss ratio",
		xLabel:   "load", yLabel: mdPct,
		base: system.Baseline, xs: loadGrid(), setX: setLoad,
		variants: each(globalOnly, setSSP, "UD", "ED", "EQS", "EQF"),
	},
	{
		id:       "fig3",
		title:    "Fig. 3 — effect of varying the fraction of local tasks",
		paper:    "At load 0.5, MD_global(UD) rises steeply with frac_local, MD_local(UD) rises mildly, both EQF curves stay nearly flat.",
		figTitle: "Fig. 3 — varying frac_local (load 0.5)",
		xLabel:   "frac_local", yLabel: mdPct,
		base: system.Baseline, xs: []float64{0.1, 0.25, 0.5, 0.75, 0.95},
		setX:     func(c *system.Config, x float64) { c.FracLocal = x },
		variants: each(bothClasses, setSSP, "UD", "EQF"),
	},
	{
		id:       "fig4",
		title:    "Fig. 4 — PSP baseline (UD, DIV-1, DIV-2; GF from section 5.3 text)",
		paper:    "Parallel subtasks: UD lets globals miss about 3x as often as locals; DIV-1 pulls the classes together; DIV-2 ~ DIV-1 except at very high load; GF reduces MD_global further.",
		figTitle: "Fig. 4 — PSP baseline: UD vs DIV-x vs GF",
		xLabel:   "load", yLabel: mdPct,
		base: system.PSPBaseline, xs: loadGrid(), setX: setLoad,
		variants: each(bothClasses, setPSP, "UD", "DIV-1", "DIV-2", "GF"),
	},
	{
		id:       "combined",
		title:    "Section 6 — SSP+PSP on serial-parallel tasks",
		paper:    "UD-UD misses vastly more global than local deadlines; EQF or DIV-1 alone reduce MD_global significantly with a mild MD_local increase; combined they are additive and keep MD_global close to MD_local.",
		figTitle: "Section 6 — mixed tasks [S1 [P1||P2||P3] S2]",
		xLabel:   "load", yLabel: mdPct,
		base: mixedBaseline, xs: []float64{0.3, 0.5, 0.7}, setX: setLoad,
		variants: []variant{
			bothClasses("UD-UD", strategies("UD", "UD")),
			bothClasses("UD-DIV-1", strategies("UD", "DIV-1")),
			bothClasses("EQF-UD", strategies("EQF", "UD")),
			bothClasses("EQF-DIV-1", strategies("EQF", "DIV-1")),
		},
	},
	{
		id:       "abl-pexerr",
		title:    "Ablation — error in execution time predictions (section 4.3)",
		paper:    "Random error in pex does not change the basic conclusions; pex-based strategies degrade gracefully toward UD-like behaviour.",
		figTitle: "Prediction error sweep (load 0.5, serial global tasks)",
		xLabel:   "relative pex error bound", yLabel: mdPct,
		base: system.Baseline, xs: []float64{0, 0.25, 0.5, 0.75, 1.0},
		setX:     func(c *system.Config, x float64) { c.PexRelErr = x },
		variants: each(globalOnly, setSSP, "ED", "EQS", "EQF"),
	},
	{
		id:       "abl-abort",
		title:    "Ablation — tardy-task abort policy (sections 4.3, 7)",
		paper:    "With tardy abort, GF loses its edge (it needs past-deadline tasks to stay schedulable) while DIV-x remains effective.",
		figTitle: "PSP strategies under tardy-abort policies",
		xLabel:   "load", yLabel: mdGlobalPct,
		base: system.PSPBaseline, xs: []float64{0.4, 0.5, 0.6}, setX: setLoad,
		variants: []variant{
			globalOnly("DIV-1 no-abort", func(c *system.Config) { c.PSP = "DIV-1" }),
			globalOnly("DIV-1 abort", func(c *system.Config) { c.PSP = "DIV-1"; c.TardyAbort = true }),
			globalOnly("DIV-1 firm-abort", func(c *system.Config) { c.PSP = "DIV-1"; c.FirmAbort = true }),
			globalOnly("GF no-abort", func(c *system.Config) { c.PSP = "GF" }),
			globalOnly("GF abort", func(c *system.Config) { c.PSP = "GF"; c.TardyAbort = true }),
			globalOnly("GF firm-abort", func(c *system.Config) { c.PSP = "GF"; c.FirmAbort = true }),
		},
	},
	{
		id:       "abl-mlf",
		title:    "Ablation — minimum-laxity-first local scheduler (section 4.3)",
		paper:    "Replacing EDF with MLF does not change the basic conclusions: EQF still beats UD on global tasks.",
		figTitle: "EDF vs MLF local scheduling",
		xLabel:   "load", yLabel: mdGlobalPct,
		base: system.Baseline, xs: []float64{0.3, 0.5}, setX: setLoad,
		variants: []variant{
			globalOnly("UD EDF", func(c *system.Config) { c.SSP, c.Scheduler = "UD", sched.EDF }),
			globalOnly("EQF EDF", func(c *system.Config) { c.SSP, c.Scheduler = "EQF", sched.EDF }),
			globalOnly("UD MLF", func(c *system.Config) { c.SSP, c.Scheduler = "UD", sched.MLF }),
			globalOnly("EQF MLF", func(c *system.Config) { c.SSP, c.Scheduler = "EQF", sched.MLF }),
		},
	},
	{
		id:       "abl-m",
		title:    "Ablation — number of subtasks per global task (section 4.3)",
		paper:    "EQF's advantage over UD grows when global tasks have many subtasks.",
		figTitle: "Subtask count sweep (load 0.5)",
		xLabel:   "m (subtasks per global task)", yLabel: mdGlobalPct,
		base: system.Baseline, xs: []float64{2, 4, 6, 8},
		setX:     func(c *system.Config, x float64) { c.M = int(x) },
		variants: each(globalOnly, setSSP, "UD", "EQF"),
	},
	{
		id:       "abl-hetm",
		title:    "Ablation — heterogeneous subtask counts (section 4.3)",
		paper:    "Global tasks with a random number of subtasks (uniform 2..6) do not change the basic conclusions.",
		figTitle: "Heterogeneous m ~ U{2..6} vs fixed m = 4",
		xLabel:   "load", yLabel: mdGlobalPct,
		base: system.Baseline, xs: []float64{0.3, 0.5}, setX: setLoad,
		variants: []variant{
			globalOnly("UD fixed", func(c *system.Config) { c.SSP = "UD" }),
			globalOnly("UD hetero", func(c *system.Config) { c.SSP = "UD"; heteroM(c) }),
			globalOnly("EQF fixed", func(c *system.Config) { c.SSP = "EQF" }),
			globalOnly("EQF hetero", func(c *system.Config) { c.SSP = "EQF"; heteroM(c) }),
		},
	},
	{
		id:       "abl-hot",
		title:    "Ablation — unbalanced local load (section 4.3)",
		paper:    "One node with a higher local task load does not change the basic conclusions.",
		figTitle: "Hot-node sweep (load 0.5; node 0 carries multiplied local load)",
		xLabel:   "hot-node multiplier", yLabel: mdPct,
		base: system.Baseline, xs: []float64{1, 2, 3, 5}, setX: setHotNode,
		variants: each(bothClasses, setSSP, "UD", "EQF"),
	},
	{
		id:       "abl-relflex",
		title:    "Ablation — relative flexibility of global tasks (section 4.3)",
		paper:    "EQF's gains over UD are most significant at moderate slack: too tight and everyone misses, too loose and nobody does; the intermediate range is where a smart SSP policy wins big.",
		figTitle: "rel_flex sweep (load 0.5, serial global tasks)",
		xLabel:   "rel_flex", yLabel: mdGlobalPct,
		base: system.Baseline, xs: []float64{0.25, 0.5, 1, 2, 4},
		setX:     func(c *system.Config, x float64) { c.RelFlex = x },
		variants: each(globalOnly, setSSP, "UD", "EQF"),
	},
	{
		id:       "ext-as",
		title:    "Extension — artificial stages (section 7 future work)",
		paper:    "Proposed, not evaluated, in the paper: damping slack variability by pretending serial tasks have extra stages.",
		figTitle: "EQF with artificial stages (load 0.5)",
		xLabel:   "artificial stages", yLabel: mdPct,
		base: system.Baseline, xs: []float64{0, 1, 2, 4},
		setX:     func(c *system.Config, x float64) { c.SSP = fmt.Sprintf("EQF-AS%d", int(x)) },
		variants: []variant{bothClasses("EQF-AS", nil)},
	},
	{
		id:       "ext-adiv",
		title:    "Extension — adaptive DIV-x (reference [7] direction)",
		paper:    "The paper defers choosing x to [7]; ADIV shrinks x toward 1 as the fan-out grows.",
		figTitle: "DIV-1 vs DIV-2 vs ADIV across fan-out (load 0.5)",
		xLabel:   "m (parallel branches)", yLabel: mdGlobalPct,
		base: system.PSPBaseline, xs: []float64{2, 4, 6}, setX: setFanOut,
		variants: each(globalOnly, setPSP, "DIV-1", "DIV-2", "ADIV4"),
	},
	{
		id:       "ext-preempt",
		title:    "Extension — preemptive EDF nodes (beyond the paper's model)",
		paper:    "Not in the paper (Table 1 fixes non-preemptive service); explores whether preemption shrinks the UD/EQF gap by rescuing urgent subtasks stuck behind long jobs.",
		figTitle: "Non-preemptive vs preemptive EDF",
		xLabel:   "load", yLabel: mdGlobalPct,
		base: system.Baseline, xs: []float64{0.3, 0.5, 0.7}, setX: setLoad,
		variants: []variant{
			globalOnly("UD non-preemptive", func(c *system.Config) { c.SSP = "UD" }),
			globalOnly("UD preemptive", func(c *system.Config) { c.SSP = "UD"; c.Preemptive = true }),
			globalOnly("EQF non-preemptive", func(c *system.Config) { c.SSP = "EQF" }),
			globalOnly("EQF preemptive", func(c *system.Config) { c.SSP = "EQF"; c.Preemptive = true }),
		},
	},
}

// loadGrid is the x-axis of the load sweeps (paper Figs. 2 and 4).
func loadGrid() []float64 { return []float64{0.1, 0.2, 0.3, 0.4, 0.5} }

// setLoad is the most common x setter.
func setLoad(c *system.Config, x float64) { c.Load = x }

// mixedBaseline is the section 6 workload: serial-parallel global tasks
// [S1 [P1||P2||P3] S2] on the baseline system.
func mixedBaseline() system.Config {
	cfg := system.Baseline()
	cfg.Shape = workload.MixedShape{
		Stages:   []int{1, 3, 1},
		MeanExec: 1 / cfg.MuSubtask,
		Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
	}
	return cfg
}

// strategies sets both subtask-deadline strategies.
func strategies(ssp, psp string) func(*system.Config) {
	return func(c *system.Config) { c.SSP, c.PSP = ssp, psp }
}

// heteroM draws each global task's subtask count from U{2..6}.
func heteroM(c *system.Config) {
	c.Shape = workload.HeteroSerialShape{
		MinM: 2, MaxM: 6,
		MeanExec: 1 / c.MuSubtask,
		Pex:      workload.PexModel{RelErr: c.PexRelErr},
	}
}

// setHotNode multiplies node 0's local arrival rate by x.
func setHotNode(c *system.Config, x float64) {
	m := make([]float64, c.Nodes)
	for i := range m {
		m[i] = 1
	}
	m[0] = x
	c.LocalRateMultipliers = m
}

// setFanOut gives global tasks x parallel branches.
func setFanOut(c *system.Config, x float64) {
	c.M = int(x)
	c.Shape = workload.ParallelShape{
		M:        int(x),
		MeanExec: 1 / c.MuSubtask,
		Pex:      workload.PexModel{RelErr: c.PexRelErr},
	}
}

// diagSSPs are the strategies diag-stages compares, one cell each.
var diagSSPs = []string{"UD", "ED", "EQF"}

// diagGrid is diag-stages' cell layout: one baseline cell per strategy
// (load 0.5 is the baseline's own load). Its variants carry no curves (so TargetCI adds no replications); the
// figure is built from the runs' per-stage statistics instead.
var diagGrid = sweepSpec{
	id: "diag-stages", base: system.Baseline, xs: []float64{0.5}, setX: setLoad,
	variants: each(func(_ string, f func(*system.Config)) variant { return variant{configure: f} },
		setSSP, diagSSPs...),
}

var diagStages = Experiment{
	ID:    "diag-stages",
	Title: "Diagnostic — per-stage slack and virtual-deadline misses (section 4.2.2)",
	Paper: "Explains Fig. 2: under UD early stages hoard the whole slack while later stages inherit whatever survives the queues; EQS/EQF spread slack evenly, and inheritance makes later stages richer ('the rich get richer').",
	run: func(ctx context.Context, sess *session.Session, o Options) (*Result, error) {
		runs, err := diagGrid.cells(ctx, sess, o)
		if err != nil {
			return nil, err
		}
		fig := &stats.Figure{
			ID: "diag-stages", Title: "Per-stage virtual-deadline misses (load 0.5, m=4)",
			XLabel: "stage (1-based)", YLabel: "virtual-deadline misses (%)",
		}
		// Stage statistics merge in rep order, so the aggregates are
		// bit-identical at every parallelism level.
		var notes strings.Builder
		notes.WriteString("mean slack at release (dl_i − ar_i − pex_i), by stage:\n")
		for si, ssp := range diagSSPs {
			var (
				miss  []stats.Ratio
				slack []stats.Welford
			)
			for _, m := range runs[si] {
				for len(miss) < len(m.StageMissByIndex) {
					miss = append(miss, stats.Ratio{})
					slack = append(slack, stats.Welford{})
				}
				for i := range m.StageMissByIndex {
					miss[i].Merge(&m.StageMissByIndex[i])
					slack[i].Merge(&m.StageSlackByIndex[i])
				}
			}
			curve := stats.Curve{Label: ssp}
			fmt.Fprintf(&notes, "  %-4s", ssp)
			for i := range miss {
				curve.Points = append(curve.Points, stats.Point{
					X: float64(i + 1), Y: 100 * miss[i].Value(),
				})
				fmt.Fprintf(&notes, "  stage%d %6.2f", i+1, slack[i].Mean())
			}
			notes.WriteByte('\n')
			fig.Curves = append(fig.Curves, curve)
		}
		return &Result{Figure: fig, Notes: notes.String()}, nil
	},
}

var table1 = Experiment{
	ID:    "table1",
	Title: "Table 1 — baseline setting",
	Paper: "Parameter listing of the baseline experiment.",
	run: func(context.Context, *session.Session, Options) (*Result, error) {
		cfg := system.Baseline()
		rates, err := cfg.DeriveRates()
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		rows := [][2]string{
			{"Overload Management Policy", "No Abort"},
			{"Local Scheduling Algorithm", "Earliest Deadline First"},
			{"mu_subtask", fmt.Sprintf("%.1f", cfg.MuSubtask)},
			{"mu_local", fmt.Sprintf("%.1f", cfg.MuLocal)},
			{"k (# of nodes)", fmt.Sprintf("%d", cfg.Nodes)},
			{"m (# of subtasks of a global task)", fmt.Sprintf("%d", cfg.M)},
			{"load", fmt.Sprintf("%.2f", cfg.Load)},
			{"frac_local", fmt.Sprintf("%.2f", cfg.FracLocal)},
			{"[Smin, Smax]", fmt.Sprintf("[%.2f, %.2f]", cfg.SlackMin, cfg.SlackMax)},
			{"rel_flex", fmt.Sprintf("%.1f", cfg.RelFlex)},
			{"pex(X)/ex(X)", "1.0"},
			{"derived lambda_local (per node)", fmt.Sprintf("%.4f", rates.LocalPerNode)},
			{"derived lambda_global", fmt.Sprintf("%.4f", rates.Global)},
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%-36s %s\n", r[0], r[1])
		}
		return &Result{
			Figure: &stats.Figure{ID: "table1", Title: "Table 1 — baseline setting"},
			Notes:  b.String(),
		}, nil
	},
}

package experiment

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workload"
)

// registry holds every experiment. Order here is presentation order for
// `sdasim -list`; All() sorts by id.
var registry = []Experiment{
	table1Exp(),
	fig2aExp(),
	fig2bExp(),
	fig3Exp(),
	fig4Exp(),
	combinedExp(),
	ablPexErrExp(),
	ablAbortExp(),
	ablMLFExp(),
	ablSubtasksExp(),
	ablHeteroMExp(),
	ablHotNodeExp(),
	ablRelFlexExp(),
	extArtificialStagesExp(),
	extAdaptiveDivExp(),
	extPreemptExp(),
	diagStagesExp(),
}

func extPreemptExp() Experiment {
	return Experiment{
		ID:    "ext-preempt",
		Title: "Extension — preemptive EDF nodes (beyond the paper's model)",
		Paper: "Not in the paper (Table 1 fixes non-preemptive service); explores whether preemption shrinks the UD/EQF gap by rescuing urgent subtasks stuck behind long jobs.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "ext-preempt", Title: "Non-preemptive vs preemptive EDF",
				XLabel: "load", YLabel: "global missed deadlines (%)",
			}
			var variants []variant
			for _, ssp := range []string{"UD", "EQF"} {
				for _, preempt := range []bool{false, true} {
					ssp, preempt := ssp, preempt
					name := ssp + " non-preemptive"
					if preempt {
						name = ssp + " preemptive"
					}
					variants = append(variants, globalOnly(name, func(c *system.Config) {
						c.SSP = ssp
						c.Preemptive = preempt
					}))
				}
			}
			fig, err := sweep(o, fig, system.Baseline, []float64{0.3, 0.5, 0.7}, setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func diagStagesExp() Experiment {
	return Experiment{
		ID:    "diag-stages",
		Title: "Diagnostic — per-stage slack and virtual-deadline misses (section 4.2.2)",
		Paper: "Explains Fig. 2: under UD early stages hoard the whole slack while later stages inherit whatever survives the queues; EQS/EQF spread slack evenly, and inheritance makes later stages richer ('the rich get richer').",
		Run: func(o Options) (*Result, error) {
			o = o.withDefaults() // TargetCI/MaxReps are ignored: no adaptive loop here
			fig := &stats.Figure{
				ID: "diag-stages", Title: "Per-stage virtual-deadline misses (load 0.5, m=4)",
				XLabel: "stage (1-based)", YLabel: "virtual-deadline misses (%)",
			}
			// One session Job per SSP strategy, the jobs themselves fanned
			// out like sweep cells (so all ssps*Reps replications can run
			// concurrently, as before the session port); results are
			// merged in rep order so the aggregates stay bit-identical to
			// the sequential path.
			ssps := []string{"UD", "ED", "EQF"}
			runs := make([][]*system.Metrics, len(ssps))
			total := len(ssps) * o.Reps
			sess, release := o.session()
			defer release()
			var done atomic.Int64
			_, err := runner.New(o.Parallelism).RunWorkersContext(o.ctx(), len(ssps), func(_, si int) error {
				cfg := system.Baseline()
				o.applyTo(&cfg, 0)
				cfg.SSP = ssps[si]
				opts := []session.Option{session.WithParallelism(o.Parallelism)}
				if o.Progress != nil {
					progress := o.Progress
					opts = append(opts, session.WithProgress(func(_, _ int) {
						progress(int(done.Add(1)), total)
					}))
				}
				res, err := sess.Run(o.ctx(), session.Job{Config: cfg, Reps: o.Reps}, opts...)
				if err != nil {
					return err
				}
				runs[si] = res.Runs
				return nil
			})
			if err == nil {
				err = o.ctx().Err()
			}
			if err != nil {
				return nil, err
			}
			var notes strings.Builder
			notes.WriteString("mean slack at release (dl_i − ar_i − pex_i), by stage:\n")
			for si, ssp := range ssps {
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
}

func table1Exp() Experiment {
	return Experiment{
		ID:    "table1",
		Title: "Table 1 — baseline setting",
		Paper: "Parameter listing of the baseline experiment.",
		Run: func(o Options) (*Result, error) {
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
}

func fig2aExp() Experiment {
	return Experiment{
		ID:    "fig2a",
		Title: "Fig. 2a — SSP baseline, local tasks",
		Paper: "MD_local vs load for UD/ED/EQS/EQF: curves nearly coincide (SSP strategy barely affects locals); about 24% at load 0.5.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "fig2a", Title: "Fig. 2a — SSP baseline: local task miss ratio",
				XLabel: "load", YLabel: "missed deadlines (%)",
			}
			var variants []variant
			for _, ssp := range []string{"UD", "ED", "EQS", "EQF"} {
				ssp := ssp
				variants = append(variants, localOnly(ssp, func(c *system.Config) { c.SSP = ssp }))
			}
			fig, err := sweep(o, fig, system.Baseline, loadGrid(), setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func fig2bExp() Experiment {
	return Experiment{
		ID:    "fig2b",
		Title: "Fig. 2b — SSP baseline, global tasks",
		Paper: "MD_global vs load: UD worst (about 40% at load 0.5), ED between UD and EQF, EQS ~ EQF best (about 30%).",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "fig2b", Title: "Fig. 2b — SSP baseline: global task miss ratio",
				XLabel: "load", YLabel: "missed deadlines (%)",
			}
			var variants []variant
			for _, ssp := range []string{"UD", "ED", "EQS", "EQF"} {
				ssp := ssp
				variants = append(variants, globalOnly(ssp, func(c *system.Config) { c.SSP = ssp }))
			}
			fig, err := sweep(o, fig, system.Baseline, loadGrid(), setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func fig3Exp() Experiment {
	return Experiment{
		ID:    "fig3",
		Title: "Fig. 3 — effect of varying the fraction of local tasks",
		Paper: "At load 0.5, MD_global(UD) rises steeply with frac_local, MD_local(UD) rises mildly, both EQF curves stay nearly flat.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "fig3", Title: "Fig. 3 — varying frac_local (load 0.5)",
				XLabel: "frac_local", YLabel: "missed deadlines (%)",
			}
			variants := []variant{
				bothClasses("UD", func(c *system.Config) { c.SSP = "UD" }),
				bothClasses("EQF", func(c *system.Config) { c.SSP = "EQF" }),
			}
			fracs := []float64{0.1, 0.25, 0.5, 0.75, 0.95}
			fig, err := sweep(o, fig, system.Baseline, fracs,
				func(c *system.Config, x float64) { c.FracLocal = x }, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func fig4Exp() Experiment {
	return Experiment{
		ID:    "fig4",
		Title: "Fig. 4 — PSP baseline (UD, DIV-1, DIV-2; GF from section 5.3 text)",
		Paper: "Parallel subtasks: UD lets globals miss about 3x as often as locals; DIV-1 pulls the classes together; DIV-2 ~ DIV-1 except at very high load; GF reduces MD_global further.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "fig4", Title: "Fig. 4 — PSP baseline: UD vs DIV-x vs GF",
				XLabel: "load", YLabel: "missed deadlines (%)",
			}
			var variants []variant
			for _, psp := range []string{"UD", "DIV-1", "DIV-2", "GF"} {
				psp := psp
				variants = append(variants, bothClasses(psp, func(c *system.Config) { c.PSP = psp }))
			}
			fig, err := sweep(o, fig, system.PSPBaseline, loadGrid(), setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func combinedExp() Experiment {
	return Experiment{
		ID:    "combined",
		Title: "Section 6 — SSP+PSP on serial-parallel tasks",
		Paper: "UD-UD misses vastly more global than local deadlines; EQF or DIV-1 alone reduce MD_global significantly with a mild MD_local increase; combined they are additive and keep MD_global close to MD_local.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "combined", Title: "Section 6 — mixed tasks [S1 [P1||P2||P3] S2]",
				XLabel: "load", YLabel: "missed deadlines (%)",
			}
			base := func() system.Config {
				cfg := system.Baseline()
				cfg.Shape = workload.MixedShape{
					Stages:   []int{1, 3, 1},
					MeanExec: 1 / cfg.MuSubtask,
					Pex:      workload.PexModel{RelErr: cfg.PexRelErr},
				}
				return cfg
			}
			var variants []variant
			for _, combo := range [][2]string{{"UD", "UD"}, {"UD", "DIV-1"}, {"EQF", "UD"}, {"EQF", "DIV-1"}} {
				combo := combo
				variants = append(variants, bothClasses(combo[0]+"-"+combo[1], func(c *system.Config) {
					c.SSP, c.PSP = combo[0], combo[1]
				}))
			}
			fig, err := sweep(o, fig, base, []float64{0.3, 0.5, 0.7}, setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablPexErrExp() Experiment {
	return Experiment{
		ID:    "abl-pexerr",
		Title: "Ablation — error in execution time predictions (section 4.3)",
		Paper: "Random error in pex does not change the basic conclusions; pex-based strategies degrade gracefully toward UD-like behaviour.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-pexerr", Title: "Prediction error sweep (load 0.5, serial global tasks)",
				XLabel: "relative pex error bound", YLabel: "missed deadlines (%)",
			}
			var variants []variant
			for _, ssp := range []string{"ED", "EQS", "EQF"} {
				ssp := ssp
				variants = append(variants, globalOnly(ssp, func(c *system.Config) { c.SSP = ssp }))
			}
			errs := []float64{0, 0.25, 0.5, 0.75, 1.0}
			fig, err := sweep(o, fig, system.Baseline, errs,
				func(c *system.Config, x float64) { c.PexRelErr = x }, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablAbortExp() Experiment {
	return Experiment{
		ID:    "abl-abort",
		Title: "Ablation — tardy-task abort policy (sections 4.3, 7)",
		Paper: "With tardy abort, GF loses its edge (it needs past-deadline tasks to stay schedulable) while DIV-x remains effective.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-abort", Title: "PSP strategies under tardy-abort policies",
				XLabel: "load", YLabel: "global missed deadlines (%)",
			}
			modes := []struct {
				suffix    string
				configure func(*system.Config)
			}{
				{suffix: " no-abort", configure: func(*system.Config) {}},
				{suffix: " abort", configure: func(c *system.Config) { c.TardyAbort = true }},
				{suffix: " firm-abort", configure: func(c *system.Config) { c.FirmAbort = true }},
			}
			var variants []variant
			for _, psp := range []string{"DIV-1", "GF"} {
				for _, mode := range modes {
					psp, mode := psp, mode
					variants = append(variants, globalOnly(psp+mode.suffix, func(c *system.Config) {
						c.PSP = psp
						mode.configure(c)
					}))
				}
			}
			fig, err := sweep(o, fig, system.PSPBaseline, []float64{0.4, 0.5, 0.6}, setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablMLFExp() Experiment {
	return Experiment{
		ID:    "abl-mlf",
		Title: "Ablation — minimum-laxity-first local scheduler (section 4.3)",
		Paper: "Replacing EDF with MLF does not change the basic conclusions: EQF still beats UD on global tasks.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-mlf", Title: "EDF vs MLF local scheduling",
				XLabel: "load", YLabel: "global missed deadlines (%)",
			}
			var variants []variant
			for _, policy := range []sched.Policy{sched.EDF, sched.MLF} {
				for _, ssp := range []string{"UD", "EQF"} {
					variants = append(variants, globalOnly(ssp+" "+string(policy), func(c *system.Config) {
						c.SSP = ssp
						c.Scheduler = policy
					}))
				}
			}
			fig, err := sweep(o, fig, system.Baseline, []float64{0.3, 0.5}, setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablSubtasksExp() Experiment {
	return Experiment{
		ID:    "abl-m",
		Title: "Ablation — number of subtasks per global task (section 4.3)",
		Paper: "EQF's advantage over UD grows when global tasks have many subtasks.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-m", Title: "Subtask count sweep (load 0.5)",
				XLabel: "m (subtasks per global task)", YLabel: "global missed deadlines (%)",
			}
			variants := []variant{
				globalOnly("UD", func(c *system.Config) { c.SSP = "UD" }),
				globalOnly("EQF", func(c *system.Config) { c.SSP = "EQF" }),
			}
			ms := []float64{2, 4, 6, 8}
			fig, err := sweep(o, fig, system.Baseline, ms,
				func(c *system.Config, x float64) { c.M = int(x) }, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablHeteroMExp() Experiment {
	return Experiment{
		ID:    "abl-hetm",
		Title: "Ablation — heterogeneous subtask counts (section 4.3)",
		Paper: "Global tasks with a random number of subtasks (uniform 2..6) do not change the basic conclusions.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-hetm", Title: "Heterogeneous m ~ U{2..6} vs fixed m = 4",
				XLabel: "load", YLabel: "global missed deadlines (%)",
			}
			hetero := func(c *system.Config) {
				c.Shape = workload.HeteroSerialShape{
					MinM: 2, MaxM: 6,
					MeanExec: 1 / c.MuSubtask,
					Pex:      workload.PexModel{RelErr: c.PexRelErr},
				}
			}
			var variants []variant
			for _, ssp := range []string{"UD", "EQF"} {
				ssp := ssp
				variants = append(variants,
					globalOnly(ssp+" fixed", func(c *system.Config) { c.SSP = ssp }),
					globalOnly(ssp+" hetero", func(c *system.Config) { c.SSP = ssp; hetero(c) }),
				)
			}
			fig, err := sweep(o, fig, system.Baseline, []float64{0.3, 0.5}, setLoad, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablHotNodeExp() Experiment {
	return Experiment{
		ID:    "abl-hot",
		Title: "Ablation — unbalanced local load (section 4.3)",
		Paper: "One node with a higher local task load does not change the basic conclusions.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-hot", Title: "Hot-node sweep (load 0.5; node 0 carries multiplied local load)",
				XLabel: "hot-node multiplier", YLabel: "missed deadlines (%)",
			}
			variants := []variant{
				bothClasses("UD", func(c *system.Config) { c.SSP = "UD" }),
				bothClasses("EQF", func(c *system.Config) { c.SSP = "EQF" }),
			}
			mults := []float64{1, 2, 3, 5}
			fig, err := sweep(o, fig, system.Baseline, mults,
				func(c *system.Config, x float64) {
					m := make([]float64, c.Nodes)
					for i := range m {
						m[i] = 1
					}
					m[0] = x
					c.LocalRateMultipliers = m
				}, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func ablRelFlexExp() Experiment {
	return Experiment{
		ID:    "abl-relflex",
		Title: "Ablation — relative flexibility of global tasks (section 4.3)",
		Paper: "EQF's gains over UD are most significant at moderate slack: too tight and everyone misses, too loose and nobody does; the intermediate range is where a smart SSP policy wins big.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "abl-relflex", Title: "rel_flex sweep (load 0.5, serial global tasks)",
				XLabel: "rel_flex", YLabel: "global missed deadlines (%)",
			}
			variants := []variant{
				globalOnly("UD", func(c *system.Config) { c.SSP = "UD" }),
				globalOnly("EQF", func(c *system.Config) { c.SSP = "EQF" }),
			}
			flex := []float64{0.25, 0.5, 1, 2, 4}
			fig, err := sweep(o, fig, system.Baseline, flex,
				func(c *system.Config, x float64) { c.RelFlex = x }, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func extArtificialStagesExp() Experiment {
	return Experiment{
		ID:    "ext-as",
		Title: "Extension — artificial stages (section 7 future work)",
		Paper: "Proposed, not evaluated, in the paper: damping slack variability by pretending serial tasks have extra stages.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "ext-as", Title: "EQF with artificial stages (load 0.5)",
				XLabel: "artificial stages", YLabel: "missed deadlines (%)",
			}
			variants := []variant{
				bothClasses("EQF-AS", nil),
			}
			extras := []float64{0, 1, 2, 4}
			fig, err := sweep(o, fig, system.Baseline, extras,
				func(c *system.Config, x float64) {
					c.SSP = fmt.Sprintf("EQF-AS%d", int(x))
				}, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

func extAdaptiveDivExp() Experiment {
	return Experiment{
		ID:    "ext-adiv",
		Title: "Extension — adaptive DIV-x (reference [7] direction)",
		Paper: "The paper defers choosing x to [7]; ADIV shrinks x toward 1 as the fan-out grows.",
		Run: func(o Options) (*Result, error) {
			fig := &stats.Figure{
				ID: "ext-adiv", Title: "DIV-1 vs DIV-2 vs ADIV across fan-out (load 0.5)",
				XLabel: "m (parallel branches)", YLabel: "global missed deadlines (%)",
			}
			base := func() system.Config { return system.PSPBaseline() }
			var variants []variant
			for _, psp := range []string{"DIV-1", "DIV-2", "ADIV4"} {
				psp := psp
				variants = append(variants, globalOnly(psp, func(c *system.Config) { c.PSP = psp }))
			}
			ms := []float64{2, 4, 6}
			fig, err := sweep(o, fig, base, ms,
				func(c *system.Config, x float64) {
					c.M = int(x)
					c.Shape = workload.ParallelShape{
						M:        int(x),
						MeanExec: 1 / c.MuSubtask,
						Pex:      workload.PexModel{RelErr: c.PexRelErr},
					}
				}, variants)
			if err != nil {
				return nil, err
			}
			return &Result{Figure: fig}, nil
		},
	}
}

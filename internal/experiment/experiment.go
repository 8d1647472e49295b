// Package experiment defines one runnable experiment per table and figure
// of the paper's evaluation (plus ablations, extensions and a diagnostic)
// and returns figures ready for the render functions. All and ByID expose
// the registry of experiment ids: table1, fig2a, fig2b, fig3, fig4,
// combined, abl-*, ext-*, diag-stages.
//
// Every experiment except table1 and diag-stages is one sweepSpec value
// in the sweeps table (definitions.go). A spec holds the id, title and
// paper claim; the figure title and axis labels; the base config; the x
// grid and its setter; and the variants, each a config mutation plus the
// curves (local and/or global miss ratio) read from its runs. One generic
// run crosses every x with every variant, replicates each cell as session
// jobs on the caller's session, and assembles the curves. To add a sweep,
// append a spec to sweeps, list its id in TestRegistryComplete, and pin
// its bytes in cmd/sdasim/testdata/artifacts.sha256. table1 (a parameter
// listing) and diag-stages (per-stage statistics) are written by hand;
// diag-stages fans out through the same cell runner as the sweeps.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/system"
)

// Options scales an experiment run. Zero fields take the defaults of
// DefaultOptions (a laptop-friendly setting; the paper scale is
// Horizon 1e6 with 2 replications).
type Options struct {
	// Horizon is the simulated duration per replication.
	Horizon float64
	// Reps is the number of independent replications per data point.
	Reps int
	// Seed seeds the first replication; later ones use Seed+1, ...
	Seed uint64
	// TargetCI, when positive, keeps adding replications (beyond Reps,
	// up to MaxReps) until every curve's 95% half-width at a data point
	// is at or below this many percentage points — the paper's protocol
	// of reporting ±0.35 pp intervals. Zero disables adaptation.
	TargetCI float64
	// MaxReps caps adaptive replication; zero defaults to 10.
	MaxReps int
	// Parallelism bounds the worker pool fanning (curve, data-point)
	// cells of a sweep out across cores: 0 uses GOMAXPROCS, 1 forces
	// the sequential path. Every cell owns its seed substreams, so
	// results are bit-identical across parallelism levels.
	Parallelism int
	// Progress, when non-nil, is called after each completed sweep cell
	// with the number of finished cells and the total. It may be called
	// concurrently from worker goroutines and must be safe for that;
	// obs.Progress (the facade's repro.ProgressPrinter) returns a
	// suitable implementation.
	Progress func(done, total int)
	// Nodes, when positive, overrides Config.Nodes for every replication
	// (the -nodes flag): the scaling knob for large-topology runs. It is
	// applied before each experiment's own configuration, so experiments
	// that derive node-count-dependent settings (e.g. abl-hot's per-node
	// rate multipliers) adapt; configurations that cannot (a scenario
	// pinned to specific node ids, hand-written multiplier vectors) fail
	// Config.Validate with a descriptive error.
	Nodes int
}

// applyTo writes the option overrides shared by every experiment into a
// replication's config. rep selects the replication's seed offset.
func (o Options) applyTo(cfg *system.Config, rep int) {
	cfg.Horizon = o.Horizon
	cfg.Seed = o.Seed + uint64(rep)
	if o.Nodes > 0 {
		cfg.Nodes = o.Nodes
	}
}

// DefaultOptions returns the default experiment scale.
func DefaultOptions() Options {
	return Options{Horizon: 50000, Reps: 2, Seed: 1, MaxReps: 10}
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.Horizon <= 0 {
		o.Horizon = def.Horizon
	}
	if o.Reps <= 0 {
		o.Reps = def.Reps
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 10
	}
	if o.MaxReps < o.Reps {
		o.MaxReps = o.Reps
	}
	return o
}

// Result is an experiment outcome: a figure (possibly empty for textual
// artifacts like Table 1) plus free-form notes shown above the rendering.
type Result struct {
	Figure *stats.Figure
	Notes  string
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	// ID is the registry id ("fig2b").
	ID string
	// Title describes the artifact ("Fig. 2b — SSP baseline, global").
	Title string
	// Paper summarizes what the paper reports; sdasim prints it under
	// each artifact.
	Paper string
	// run executes the experiment with defaults already filled in.
	run func(context.Context, *session.Session, Options) (*Result, error)
}

// Run executes the experiment on sess under ctx: sweep cells run on the
// session's warm workspaces, and once ctx is cancelled no new cell or
// replication starts and Run returns the context's error. Experiments
// report whole figures only — a cancelled sweep is an error, not a
// partial artifact (use the session API directly for seed-prefix
// partial results).
func (e Experiment) Run(ctx context.Context, sess *session.Session, o Options) (*Result, error) {
	return e.run(ctx, sess, o.withDefaults())
}

// metric selects which class's miss ratio a curve reports.
type metric func(*system.Metrics) float64

func mdLocal(m *system.Metrics) float64  { return m.MDLocal() }
func mdGlobal(m *system.Metrics) float64 { return m.MDGlobal() }

// curveOut is one curve extracted from a variant's runs.
type curveOut struct {
	label  string
	metric metric
}

// variant is one configuration mutation of a sweep. All of its curves
// share the same simulation runs, so reporting both class metrics costs
// no extra simulation time.
type variant struct {
	configure func(*system.Config)
	curves    []curveOut
}

// globalOnly builds a variant reporting only the global miss ratio.
func globalOnly(label string, configure func(*system.Config)) variant {
	return variant{configure: configure, curves: []curveOut{{label: label, metric: mdGlobal}}}
}

// localOnly builds a variant reporting only the local miss ratio.
func localOnly(label string, configure func(*system.Config)) variant {
	return variant{configure: configure, curves: []curveOut{{label: label, metric: mdLocal}}}
}

// bothClasses builds a variant reporting "<name> local" and
// "<name> global" curves.
func bothClasses(name string, configure func(*system.Config)) variant {
	return variant{configure: configure, curves: []curveOut{
		{label: name + " local", metric: mdLocal},
		{label: name + " global", metric: mdGlobal},
	}}
}

// each builds one variant per name with mk, configured by set(c, name):
// each(globalOnly, setSSP, "UD", "EQF") is a global-miss curve per SSP.
func each(mk func(string, func(*system.Config)) variant,
	set func(*system.Config, string), names ...string) []variant {
	vs := make([]variant, len(names))
	for i, name := range names {
		vs[i] = mk(name, func(c *system.Config) { set(c, name) })
	}
	return vs
}

func setSSP(c *system.Config, name string) { c.SSP = name }
func setPSP(c *system.Config, name string) { c.PSP = name }

// sweepSpec declares a sweep experiment: every x of xs crossed with every
// variant, each (x, variant) cell replicated on base() with setX(c, x)
// and the variant's configure applied in that order. Its figure has one
// curve per variant curve, in variant order, and one point per x.
type sweepSpec struct {
	id, title, paper         string
	figTitle, xLabel, yLabel string
	base                     func() system.Config
	xs                       []float64
	setX                     func(*system.Config, float64)
	variants                 []variant
}

// run sweeps the grid and assembles the figure's curves from the
// per-cell runs in sweep order.
func (s *sweepSpec) run(ctx context.Context, sess *session.Session, o Options) (*Result, error) {
	results, err := s.cells(ctx, sess, o)
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{ID: s.id, Title: s.figTitle, XLabel: s.xLabel, YLabel: s.yLabel}
	for _, v := range s.variants {
		for _, c := range v.curves {
			fig.Curves = append(fig.Curves, stats.Curve{Label: c.label})
		}
	}
	for ci, runs := range results {
		// Cells are x-major, so cells for one x are contiguous and in
		// variant order; recover the curve offset from the variant index.
		vi := ci % len(s.variants)
		curveIdx := 0
		for _, v := range s.variants[:vi] {
			curveIdx += len(v.curves)
		}
		for _, c := range s.variants[vi].curves {
			vals := make([]float64, len(runs))
			for i, m := range runs {
				vals[i] = c.metric(m)
			}
			est := stats.MeanCI(vals)
			fig.Curves[curveIdx].Points = append(fig.Curves[curveIdx].Points, stats.Point{
				X: s.xs[ci/len(s.variants)], Y: est.Mean, HalfCI: est.HalfCI,
			})
			curveIdx++
		}
	}
	return &Result{Figure: fig}, nil
}

// cells runs every (x, variant) cell of the grid with o.Reps replications
// and returns each cell's runs in x-major order. The cells are
// independent — each derives its own seed substreams and owns its run
// slice — so they fan out across o.Parallelism workers, and the result
// is bit-identical to the sequential path. Each cell's replications
// execute as session Jobs on sess; the fan-out is context-bounded:
// cancellation stops new cells and fails the sweep with the context's
// error. o.Progress, if set, fires once per finished cell.
func (s *sweepSpec) cells(ctx context.Context, sess *session.Session, o Options) ([][]*system.Metrics, error) {
	n := len(s.xs) * len(s.variants)
	results := make([][]*system.Metrics, n)
	var done atomic.Int64
	_, err := runner.New(o.Parallelism).RunWorkersContext(ctx, n, func(_, ci int) error {
		runs, err := s.runCell(ctx, sess, o, s.xs[ci/len(s.variants)], s.variants[ci%len(s.variants)])
		if err != nil {
			return err
		}
		results[ci] = runs
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), n)
		}
		return nil
	})
	if err == nil {
		err = ctx.Err() // a cancelled sweep is an error, not a partial figure
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCell executes one (x, variant) cell: the initial o.Reps replications
// plus the adaptive TargetCI loop, all as session Jobs (one job for the
// initial batch, one single-replication job per adaptive extension; a
// job's replication i runs with seed Config.Seed + i, which is exactly
// the pre-session per-rep seed derivation). It touches no state outside
// its own run slice, so distinct cells may execute concurrently; the
// session's workspace pool hands each a private warm workspace.
func (s *sweepSpec) runCell(ctx context.Context, sess *session.Session, o Options,
	x float64, v variant) ([]*system.Metrics, error) {
	job := func(firstRep, reps int) ([]*system.Metrics, error) {
		cfg := s.base()
		o.applyTo(&cfg, firstRep)
		s.setX(&cfg, x)
		if v.configure != nil {
			v.configure(&cfg)
		}
		res, err := sess.Run(ctx, session.Job{Config: cfg, Reps: reps}, session.WithParallelism(1))
		if err != nil {
			return nil, fmt.Errorf("experiment %s: x=%v: %w", s.id, x, err)
		}
		return res.Runs, nil
	}
	runs, err := job(0, o.Reps)
	if err != nil {
		return nil, err
	}
	// Adaptive replication: keep adding seeds until every curve of this
	// variant meets the target half-width (the paper reports ±0.35 pp
	// intervals). A cell of fewer than two runs has no t-interval, so
	// it has met no target yet.
	for o.TargetCI > 0 && len(runs) < o.MaxReps {
		worst := 0.0
		for _, c := range v.curves {
			if hw := halfCI(runs, c.metric); hw > worst {
				worst = hw
			}
		}
		if len(runs) >= 2 && worst <= o.TargetCI {
			break
		}
		more, err := job(len(runs), 1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, more...)
	}
	return runs, nil
}

// halfCI computes the 95% half-width of a metric across runs.
func halfCI(runs []*system.Metrics, m metric) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = m(r)
	}
	return stats.MeanCI(vals).HalfCI
}

// All returns every registered experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (try one of %v)", id, IDs())
}

// IDs lists registered experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Package experiment defines one runnable experiment per table and figure
// of the paper's evaluation (plus ablations and extensions), sweeps the
// relevant parameter with replications, and returns figures ready for the
// render functions. All and ByID expose the registry of experiment ids:
// table1, fig2a, fig2b, fig3, fig4, combined, abl-*, ext-*.
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
	// ProgressPrinter returns a suitable implementation.
	Progress func(done, total int)
	// Nodes, when positive, overrides Config.Nodes for every replication
	// (the -nodes flag): the scaling knob for large-topology runs. It is
	// applied before each experiment's own configuration, so experiments
	// that derive node-count-dependent settings (e.g. abl-hot's per-node
	// rate multipliers) adapt; configurations that cannot (a scenario
	// pinned to specific node ids, hand-written multiplier vectors) fail
	// Config.Validate with a descriptive error.
	Nodes int
	// Context, when non-nil, bounds the run: once it is cancelled no new
	// sweep cell or replication starts and the experiment returns the
	// context's error. Experiments report whole figures only — a
	// cancelled sweep is an error, not a partial artifact (use the
	// session API directly for seed-prefix partial results).
	Context context.Context
	// Session, when non-nil, supplies the warm-workspace run layer the
	// sweep's replication cells execute on, so consecutive experiments
	// issued through one session reuse engines, pools, queues and
	// workload sources. Nil uses a run-private session. Results are
	// bit-identical either way.
	Session *session.Session
}

// ctx returns the bounding context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// session returns the run session plus a release function for the
// private-session case.
func (o Options) session() (*session.Session, func()) {
	if o.Session != nil {
		return o.Session, func() {}
	}
	s := session.New()
	return s, func() { s.Close() }
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
	// Run executes the experiment.
	Run func(Options) (*Result, error)
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

// sweep runs every (x, variant) combination with o.Reps replications and
// assembles the figure's curves. The (x, variant) cells are independent —
// each derives its own seed substreams and owns its run slice — so they
// fan out across o.Parallelism workers; the figure is assembled from the
// per-cell results in sweep order afterwards, which keeps the output
// bit-identical to the sequential path. Each cell's replications execute
// as one session Job on the shared warm-workspace session, and the cell
// fan-out is context-bounded: cancellation stops new cells and fails the
// sweep with the context's error.
func sweep(o Options, fig *stats.Figure, base func() system.Config,
	xs []float64, setX func(*system.Config, float64), variants []variant) (*stats.Figure, error) {
	o = o.withDefaults()
	sess, release := o.session()
	defer release()

	for _, v := range variants {
		for _, c := range v.curves {
			fig.Curves = append(fig.Curves, stats.Curve{Label: c.label})
		}
	}

	// One cell per (x, variant) pair, in x-major sweep order.
	type cell struct {
		x float64
		v variant
	}
	cells := make([]cell, 0, len(xs)*len(variants))
	for _, x := range xs {
		for _, v := range variants {
			cells = append(cells, cell{x: x, v: v})
		}
	}
	results := make([][]*system.Metrics, len(cells))
	var done atomic.Int64
	_, err := runner.New(o.Parallelism).RunWorkersContext(o.ctx(), len(cells), func(_, ci int) error {
		runs, err := runCell(o.ctx(), sess, o, fig.ID, base, cells[ci].x, setX, cells[ci].v)
		if err != nil {
			return err
		}
		results[ci] = runs
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), len(cells))
		}
		return nil
	})
	if err == nil {
		err = o.ctx().Err() // a cancelled sweep is an error, not a partial figure
	}
	if err != nil {
		return nil, err
	}

	for ci := range cells {
		// Cells are x-major, so cells for one x are contiguous and in
		// variant order; recover the curve offset from the variant index.
		vi := ci % len(variants)
		curveIdx := 0
		for _, v := range variants[:vi] {
			curveIdx += len(v.curves)
		}
		runs := results[ci]
		for _, c := range cells[ci].v.curves {
			vals := make([]float64, len(runs))
			for i, m := range runs {
				vals[i] = c.metric(m)
			}
			est := stats.MeanCI(vals)
			fig.Curves[curveIdx].Points = append(fig.Curves[curveIdx].Points, stats.Point{
				X: cells[ci].x, Y: est.Mean, HalfCI: est.HalfCI,
			})
			curveIdx++
		}
	}
	return fig, nil
}

// runCell executes one (x, variant) cell: the initial o.Reps replications
// plus the adaptive TargetCI loop, all as session Jobs (one job for the
// initial batch, one single-replication job per adaptive extension; a
// job's replication i runs with seed Config.Seed + i, which is exactly
// the pre-session per-rep seed derivation). It touches no state outside
// its own run slice, so distinct cells may execute concurrently; the
// session's workspace pool hands each a private warm workspace.
func runCell(ctx context.Context, sess *session.Session, o Options, figID string,
	base func() system.Config, x float64, setX func(*system.Config, float64), v variant) ([]*system.Metrics, error) {
	job := func(firstRep, reps int) ([]*system.Metrics, error) {
		cfg := base()
		o.applyTo(&cfg, firstRep)
		setX(&cfg, x)
		if v.configure != nil {
			v.configure(&cfg)
		}
		res, err := sess.Run(ctx, session.Job{Config: cfg, Reps: reps}, session.WithParallelism(1))
		if err != nil {
			return nil, fmt.Errorf("experiment %s: x=%v: %w", figID, x, err)
		}
		return res.Runs, nil
	}
	runs, err := job(0, o.Reps)
	if err != nil {
		return nil, err
	}
	// Adaptive replication: keep adding seeds until every curve of this
	// variant meets the target half-width (the paper reports ±0.35 pp
	// intervals). Needs at least two runs for a t-interval, hence the
	// o.Reps floor above.
	for o.TargetCI > 0 && len(runs) < o.MaxReps {
		worst := 0.0
		for _, c := range v.curves {
			if hw := halfCI(runs, c.metric); hw > worst {
				worst = hw
			}
		}
		if worst <= o.TargetCI {
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

// loadGrid is the x-axis of the load sweeps (paper Figs. 2 and 4).
func loadGrid() []float64 { return []float64{0.1, 0.2, 0.3, 0.4, 0.5} }

// setLoad is the most common x setter.
func setLoad(c *system.Config, x float64) { c.Load = x }

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

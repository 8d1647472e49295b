// Package repro is the public API of this reproduction of Kao &
// Garcia-Molina, "Deadline Assignment in a Distributed Soft Real-Time
// System" (ICDCS 1993 / IEEE TPDS 1997).
//
// The library has three layers, all executing through one run API:
//
//   - Deadline assignment (the paper's contribution): serial-parallel
//     task graphs (Graph, ParseGraph) and the SDA strategies — SSP: UD,
//     ED, EQS, EQF; PSP: UD, DIV-x, GF — composed recursively by
//     Assigner. Use NewAssigner and Assigner.Plan for static planning,
//     or plug the strategies into the simulator for dynamic assignment
//     at release time.
//
//   - Simulation model: SimConfig describes the paper's discrete-event
//     system (Table 1 baseline via BaselineConfig / PSPBaselineConfig,
//     every section 4–7 variation as a field), optionally driven by a
//     declarative Scenario (ParseScenario, ScenarioPreset, ChurnScenario)
//     with time-varying load, node faults, alternative demand
//     distributions and windowed time-series metrics.
//
//   - Paper artifacts: Experiments lists, and Session.Experiment runs,
//     every table and figure of the evaluation (fig2a, fig2b, fig3,
//     fig4, combined, ablations, extensions) with confidence intervals;
//     RenderTable, RenderChart and RenderCSV format the results.
//
// # The Session run API
//
// Everything the simulator runs, it runs through a Session: a stateful
// entry point owning a worker pool whose per-worker warm workspaces
// (engine, task pools, ready queues, node group, and reconfigurable
// workload sources) are created once and reused across every call. A
// Job is the unit of work — a configuration, an optional scenario, and
// a replication count — and functional options (WithParallelism,
// WithProgress, WithTrace) tune the run:
//
//	sess := repro.NewSession(repro.WithParallelism(8))
//	defer sess.Close()
//	res, err := sess.Run(ctx, repro.Job{Config: repro.BaselineConfig(), Reps: 10})
//
// Every run method takes a context. Cancellation is deterministic-safe:
// replications are claimed in seed order and never interrupted mid-run,
// so a cancelled Run returns the finished seed prefix as a valid
// partial RunResult (marked Partial, listing exactly the seeds that
// finished) alongside the context's error. Session.Stream delivers
// per-replication results over a channel in seed order as workers
// finish; Session.Experiment and Session.RunScenario run the paper
// artifacts and scenario jobs on the same warm pool. The Backend
// interface (Run(ctx, Shard) (ShardResult, error)) is the seam a
// distributed runner plugs into via NewSessionWithBackend.
//
// Quick start (static planning, no simulation):
//
//	g := repro.MustParseGraph("[gather:1 [f1:1 || f2:1.5] decide:2]")
//	a := repro.NewAssigner(repro.EQF, repro.DIV(1))
//	plan, _ := a.Plan(g, 0, 12)
//	for _, p := range plan {
//	    fmt.Printf("%-8s release %.2f deadline %.2f\n", p.Leaf.Name, p.Release, p.Deadline)
//	}
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Task model -----------------------------------------------------------

// Graph is a node of a serial-parallel task graph (see task.Graph).
type Graph = task.Graph

// Task is the schedulable unit local schedulers see.
type Task = task.Task

// Class distinguishes local tasks from global subtasks.
type Class = task.Class

// Task classes.
const (
	Local  = task.Local
	Global = task.Global
)

// Simple returns a leaf subtask with a predicted execution time.
func Simple(name string, pex float64) *Graph { return task.Simple(name, pex) }

// Serial composes subtasks to execute in order: [T1 T2 ... Tn].
func Serial(children ...*Graph) *Graph { return task.Serial(children...) }

// Parallel composes subtasks to execute concurrently: [T1 || ... || Tn].
func Parallel(children ...*Graph) *Graph { return task.Parallel(children...) }

// ParseGraph parses the compact notation "[a:1 [b:2 || c:3] d:1]".
func ParseGraph(input string) (*Graph, error) { return task.Parse(input) }

// MustParseGraph is ParseGraph that panics on error, for statically
// known notation.
func MustParseGraph(input string) *Graph { return task.MustParse(input) }

// Strategies ------------------------------------------------------------

// SerialStrategy assigns virtual deadlines to serial stages (SSP).
type SerialStrategy = core.SerialStrategy

// ParallelStrategy assigns virtual deadlines to parallel branches (PSP).
type ParallelStrategy = core.ParallelStrategy

// Assigner composes an SSP and a PSP strategy over serial-parallel
// graphs (paper section 6).
type Assigner = core.Assigner

// Assignment is one leaf's planned (release, deadline) pair.
type Assignment = core.Assignment

// The paper's SSP strategies (section 4).
var (
	// UD is Ultimate Deadline: dl(Ti) = dl(T).
	UD core.UltimateDeadline
	// ED is Effective Deadline: dl(T) minus remaining predicted work.
	ED core.EffectiveDeadline
	// EQS is Equal Slack: remaining slack divided evenly.
	EQS core.EqualSlack
	// EQF is Equal Flexibility: remaining slack divided in proportion
	// to predicted execution times.
	EQF core.EqualFlexibility
)

// PSP strategy values (section 5).
var (
	// PUD is the parallel Ultimate Deadline strategy.
	PUD core.ParallelUltimate
	// GF is Globals First: subtasks keep dl(T) but are always scheduled
	// before local tasks.
	GF core.GlobalsFirst
)

// DIV returns the DIV-x strategy: dl(Ti) = ar + (dl−ar)/(n·x).
func DIV(x float64) ParallelStrategy { return core.Div{X: x} }

// ArtificialStages wraps a serial strategy with n phantom trailing
// stages (the paper's section 7 future-work proposal).
func ArtificialStages(base SerialStrategy, n int) SerialStrategy {
	return core.ArtificialStages{Base: base, Extra: n}
}

// AdaptiveDIV returns the DIV variant whose divisor shrinks toward 1 as
// the fan-out grows (reference [7] direction).
func AdaptiveDIV(boost float64) ParallelStrategy { return core.AdaptiveDiv{Boost: boost} }

// NewAssigner composes the strategies; nil arguments default to UD.
func NewAssigner(s SerialStrategy, p ParallelStrategy) Assigner {
	return core.NewAssigner(s, p)
}

// SerialStrategyByName resolves "UD", "ED", "EQS", "EQF", "EQF-AS<n>".
func SerialStrategyByName(name string) (SerialStrategy, error) {
	return core.SerialByName(name)
}

// ParallelStrategyByName resolves "UD", "DIV-<x>", "GF", "ADIV<boost>".
func ParallelStrategyByName(name string) (ParallelStrategy, error) {
	return core.ParallelByName(name)
}

// Simulation ------------------------------------------------------------

// SimConfig is the full parameter set of the simulation model (Table 1
// plus variations).
type SimConfig = system.Config

// SimMetrics is the outcome of one simulation run.
type SimMetrics = system.Metrics

// Shape describes the structure of generated global tasks.
type Shape = workload.Shape

// Workload shapes for SimConfig.Shape.
type (
	// SerialShape is the SSP workload [T1 ... Tm].
	SerialShape = workload.SerialShape
	// ParallelShape is the PSP workload [T1 || ... || Tm] at distinct
	// nodes.
	ParallelShape = workload.ParallelShape
	// MixedShape is a serial chain with parallel stages (section 6).
	MixedShape = workload.MixedShape
	// HeteroSerialShape draws the subtask count uniformly per task.
	HeteroSerialShape = workload.HeteroSerialShape
)

// BaselineConfig returns Table 1's baseline setting.
func BaselineConfig() SimConfig { return system.Baseline() }

// PSPBaselineConfig returns the section 5.2 parallel-subtask setting.
func PSPBaselineConfig() SimConfig { return system.PSPBaseline() }

// Scenarios --------------------------------------------------------------

// Scenario is a compiled declarative scenario: a timeline of workload
// phases (rate steps, ramps, bursts), node fault events (slowdowns,
// outages) and an optional demand-distribution override, plus the
// window width of its time-series metrics. See internal/scenario.
type Scenario = scenario.Scenario

// ScenarioSpec is the JSON-serializable scenario description.
type ScenarioSpec = scenario.Spec

// ScenarioPhase is one segment of a scenario's workload timeline.
type ScenarioPhase = scenario.PhaseSpec

// ScenarioEvent is one scheduled node fault (slowdown or outage).
type ScenarioEvent = scenario.EventSpec

// ScenarioSeries is the per-window time series a scenario run collects
// (miss ratios, lateness, queue lengths); it merges exactly across
// replications and renders as CSV via WriteCSV.
type ScenarioSeries = scenario.Series

// ScenarioResult is a replicated scenario outcome: the merged series
// plus per-replication metrics and miss-percentage estimates.
type ScenarioResult = experiment.ScenarioResult

// Demand distributions for ScenarioSpec / workload shapes. Nil means
// the paper's exponential demands.
type (
	// Demand is the pluggable execution-time distribution interface.
	Demand = workload.Demand
	// ParetoDemand draws mean-matched heavy-tailed demands (Alpha > 1).
	ParetoDemand = workload.ParetoDemand
	// LognormalDemand draws mean-matched lognormal demands.
	LognormalDemand = workload.LognormalDemand
	// DeterministicDemand makes every demand exactly the mean.
	DeterministicDemand = workload.DeterministicDemand
)

// ParseScenario parses and compiles a JSON scenario spec.
func ParseScenario(data []byte) (*Scenario, error) {
	sp, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return scenario.New(sp)
}

// NewScenario compiles a programmatically built spec.
func NewScenario(spec ScenarioSpec) (*Scenario, error) { return scenario.New(spec) }

// ScenarioPreset compiles a built-in scenario ("burst", "ramp",
// "outage", "heavytail", "storm") scaled to the given horizon.
func ScenarioPreset(name string, horizon float64) (*Scenario, error) {
	return scenario.Preset(name, horizon)
}

// ScenarioPresets lists the built-in scenarios with one-line
// descriptions.
func ScenarioPresets() []string { return scenario.Presets() }

// ChurnOptions tunes the node-churn scenario generator (fault
// durations, slowdown mix, seed).
type ChurnOptions = scenario.ChurnOptions

// ChurnScenario generates a node-churn scenario: per-node Poisson fault
// schedules (on average rate faults per node across the horizon) so
// large-topology churn runs don't hand-write per-node event entries.
// The schedule is a pure function of (nodes, rate, horizon, options).
func ChurnScenario(nodes int, rate, horizon float64, o ChurnOptions) (*Scenario, error) {
	return scenario.Churn(nodes, rate, horizon, o)
}

// Experiments -----------------------------------------------------------

// Experiment is a runnable paper artifact (table or figure).
type Experiment = experiment.Experiment

// ExperimentOptions scales an experiment (horizon, replications, seed)
// and bounds its parallelism (Parallelism: 0 = all cores, 1 =
// sequential; results are identical either way). Set Progress to observe
// sweep completion, e.g. with ProgressPrinter.
type ExperimentOptions = experiment.Options

// ProgressPrinter returns an ExperimentOptions.Progress callback that
// renders a one-line progress meter to w, prefixed with label. A
// printer tracks a single sweep; construct a fresh one per
// Session.Experiment call.
func ProgressPrinter(w io.Writer, label string) func(done, total int) {
	return experiment.ProgressPrinter(w, label)
}

// ExperimentResult is a figure plus notes.
type ExperimentResult = experiment.Result

// Figure is a set of measured curves (see stats.Figure).
type Figure = stats.Figure

// Experiments lists every registered experiment sorted by id.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID looks up one experiment ("fig2b", "combined", ...).
func ExperimentByID(id string) (Experiment, error) { return experiment.ByID(id) }

// RenderTable formats a figure as a fixed-width text table.
func RenderTable(f *Figure) string { return experiment.RenderTable(f) }

// RenderChart draws a figure as an ASCII chart.
func RenderChart(f *Figure, width, height int) string {
	return experiment.RenderChart(f, width, height)
}

// RenderCSV formats a figure as CSV.
func RenderCSV(f *Figure) string { return experiment.RenderCSV(f) }

// Tracing ----------------------------------------------------------------

// TraceRecorder captures per-task lifecycle events (submit, dispatch,
// preempt, complete, abort) from a simulation run. Attach one via
// SimConfig.Trace and export with WriteCSV, or inspect TaskHistory.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded lifecycle step.
type TraceEvent = trace.Event

// TraceKind is a lifecycle event type.
type TraceKind = trace.Kind

// Trace lifecycle kinds.
const (
	TraceSubmit   = trace.Submit
	TraceDispatch = trace.Dispatch
	TracePreempt  = trace.Preempt
	TraceComplete = trace.Complete
	TraceAbort    = trace.Abort
)

// NewTraceRecorder returns a recorder retaining up to capacity events
// (<= 0 means unbounded).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

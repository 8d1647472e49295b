// Package system assembles the full simulation of the paper: k nodes with
// independent schedulers, a process manager running an SDA strategy, and
// the local/global workload streams, all driven by the discrete-event
// engine. One Run is a pure function of (Config, seed) and yields the
// per-class miss ratios and supporting metrics the evaluation section
// reports.
package system

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config holds every model parameter of Table 1 plus the section 4.3/5.2
// variations. The zero value is not runnable; start from Baseline() and
// override.
type Config struct {
	// Nodes is k, the number of homogeneous nodes (Table 1: 6).
	Nodes int
	// MuSubtask is µ_subtask, the service *rate* of global subtasks
	// (mean demand = 1/µ_subtask; Table 1: 1.0).
	MuSubtask float64
	// MuLocal is µ_local, the service rate of local tasks (Table 1: 1.0;
	// all times in the model are relative to 1/µ_local).
	MuLocal float64
	// M is the number of subtasks per global task (Table 1: 4); used by
	// the default shapes. Ignored when Shape is set explicitly.
	M int
	// Load is the normalized system load (Table 1: 0.5); must satisfy
	// 0 < Load < 1 for stability.
	Load float64
	// FracLocal is the fraction of load contributed by local tasks
	// (Table 1: 0.75).
	FracLocal float64
	// SlackMin, SlackMax bound the uniform slack distribution
	// (Table 1: [0.25, 2.5]; the PSP baseline uses [1.25, 5.0]).
	SlackMin, SlackMax float64
	// RelFlex is the relative flexibility of globals vs locals
	// (Table 1: 1.0).
	RelFlex float64
	// PexRelErr is the relative error bound of execution-time
	// predictions (Table 1: 0 — pex(X)/ex(X) = 1).
	PexRelErr float64
	// Scheduler is the local scheduling policy (Table 1: EDF).
	Scheduler sched.Policy
	// TardyAbort selects the abort-at-dispatch overload policy keyed to
	// the task's (virtual) deadline (Table 1: no abort).
	TardyAbort bool
	// FirmAbort selects abort-at-dispatch keyed to the end-to-end
	// deadline instead: the component knows which deadline makes the
	// work worthless. Mutually exclusive with TardyAbort.
	FirmAbort bool
	// Preemptive enables deadline-based preemption at every node. The
	// paper's model is non-preemptive; this drives the ext-preempt
	// ablation.
	Preemptive bool
	// SSP and PSP name the deadline-assignment strategies, resolved via
	// core.SerialByName / core.ParallelByName.
	SSP, PSP string
	// Shape overrides the global-task structure. Nil defaults to
	// SerialShape{M}. The PSP experiments set ParallelShape{M}; the
	// section-6 experiments set MixedShape.
	Shape workload.Shape
	// LocalRateMultipliers optionally skews per-node local load (the
	// section 4.3 unbalanced scenario). Values are normalized so total
	// local work is unchanged; nil means uniform.
	LocalRateMultipliers []float64
	// Horizon is the simulated duration of one run (the paper uses
	// 1,000,000 time units).
	Horizon float64
	// Warmup is the initial window excluded from statistics. Zero
	// defaults to 5% of Horizon.
	Warmup float64
	// Scenario optionally makes the run time-varying: phase-modulated
	// arrival rates, node fault events, an alternative demand
	// distribution, and per-window time-series metrics (reported in
	// Metrics.Series). Nil reproduces the paper's stationary model
	// bit-for-bit. A Scenario is read-only and safe to share across
	// parallel replications.
	Scenario *scenario.Scenario
	// Seed seeds every random stream of the run: one stream per
	// workload source, carrying its gap and body draws interleaved in
	// arrival order. The golden digests in testdata/golden_digests.txt
	// freeze the resulting sample paths.
	Seed uint64
	// Trace optionally records per-task lifecycle events (submit,
	// dispatch, preempt, complete, abort) for debugging and analysis.
	// Attach a trace.NewRecorder; nil disables tracing with zero
	// overhead.
	Trace *trace.Recorder
}

// Baseline returns Table 1's parameter setting with a test-friendly
// horizon (override Horizon for paper-scale runs).
func Baseline() Config {
	return Config{
		Nodes:     6,
		MuSubtask: 1.0,
		MuLocal:   1.0,
		M:         4,
		Load:      0.5,
		FracLocal: 0.75,
		SlackMin:  0.25,
		SlackMax:  2.5,
		RelFlex:   1.0,
		Scheduler: sched.EDF,
		SSP:       "UD",
		PSP:       "UD",
		Horizon:   50000,
		Seed:      1,
	}
}

// PSPBaseline returns the section 5.2 setting: parallel global tasks at
// distinct nodes and the widened slack range [1.25, 5.0].
func PSPBaseline() Config {
	cfg := Baseline()
	cfg.SlackMin, cfg.SlackMax = 1.25, 5.0
	cfg.Shape = workload.ParallelShape{M: cfg.M, MeanExec: 1 / cfg.MuSubtask}
	return cfg
}

// MaxNodes is the largest topology one engine can simulate. Every node
// keeps one arrival pending from the start and up to one completion
// while it serves, so a run holds up to two pending events per node on
// top of the global stream's and the scenario's. Validate rejects
// topologies at or above half the engine's pending capacity, which
// would exhaust it mid-run — a panic that no caller recovers from.
const MaxNodes = sim.PendingCapacity/2 - 1

// Validate checks the configuration and returns a descriptive error for
// the first problem found.
func (c *Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MuSubtask", c.MuSubtask}, {"MuLocal", c.MuLocal}, {"Load", c.Load},
		{"FracLocal", c.FracLocal}, {"SlackMin", c.SlackMin}, {"SlackMax", c.SlackMax},
		{"RelFlex", c.RelFlex}, {"PexRelErr", c.PexRelErr}, {"Horizon", c.Horizon},
		{"Warmup", c.Warmup},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("system: %s = %v, want finite", f.name, f.v)
		}
	}
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("system: Nodes = %d, want > 0", c.Nodes)
	case c.Nodes > MaxNodes:
		return fmt.Errorf("system: Nodes = %d exceeds the limit of %d (two pending events per node within the engine's capacity of %d)",
			c.Nodes, MaxNodes, sim.PendingCapacity)
	case c.MuSubtask <= 0 || c.MuLocal <= 0:
		return fmt.Errorf("system: service rates must be positive (µ_subtask=%v, µ_local=%v)", c.MuSubtask, c.MuLocal)
	case c.Load <= 0 || c.Load >= 1:
		return fmt.Errorf("system: Load = %v, want 0 < load < 1 for a stable system", c.Load)
	case c.FracLocal < 0 || c.FracLocal > 1:
		return fmt.Errorf("system: FracLocal = %v, want within [0, 1]", c.FracLocal)
	case c.SlackMax < c.SlackMin:
		return fmt.Errorf("system: slack range [%v, %v] inverted", c.SlackMin, c.SlackMax)
	case c.RelFlex < 0:
		return fmt.Errorf("system: RelFlex = %v, want >= 0", c.RelFlex)
	case c.PexRelErr < 0:
		return fmt.Errorf("system: PexRelErr = %v, want >= 0", c.PexRelErr)
	case c.Horizon <= 0:
		return fmt.Errorf("system: Horizon = %v, want > 0", c.Horizon)
	case c.Warmup < 0 || c.Warmup >= c.Horizon:
		return fmt.Errorf("system: Warmup = %v, want within [0, Horizon)", c.Warmup)
	case c.TardyAbort && c.FirmAbort:
		return fmt.Errorf("system: TardyAbort and FirmAbort are mutually exclusive")
	}
	if c.Shape == nil && c.M <= 0 && c.FracLocal < 1 {
		return fmt.Errorf("system: M = %d, want > 0 for the default serial shape", c.M)
	}
	if c.LocalRateMultipliers != nil {
		if len(c.LocalRateMultipliers) != c.Nodes {
			return fmt.Errorf("system: %d rate multipliers for %d nodes", len(c.LocalRateMultipliers), c.Nodes)
		}
		sum := 0.0
		for _, m := range c.LocalRateMultipliers {
			if m < 0 {
				return fmt.Errorf("system: negative rate multiplier %v", m)
			}
			sum += m
		}
		if sum == 0 {
			return fmt.Errorf("system: rate multipliers sum to zero")
		}
	}
	if _, err := core.SerialByName(c.SSP); err != nil {
		return err
	}
	if _, err := core.ParallelByName(c.PSP); err != nil {
		return err
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if c.Scenario != nil {
		if err := c.Scenario.CheckNodes(c.Nodes); err != nil {
			return err
		}
		if err := c.Scenario.CheckHorizon(c.Horizon); err != nil {
			return err
		}
	}
	return nil
}

// shape returns the configured shape or the default serial one. The
// scenario's demand override applies only to the default shape; an
// explicitly set Shape carries its own Demand field.
func (c *Config) shape() workload.Shape {
	if c.Shape != nil {
		return c.Shape
	}
	return workload.SerialShape{
		M:        c.M,
		MeanExec: 1 / c.MuSubtask,
		Pex:      workload.PexModel{RelErr: c.PexRelErr},
		Demand:   c.scenarioDemand(),
	}
}

// scenarioDemand returns the scenario's demand override, or nil.
func (c *Config) scenarioDemand() workload.Demand {
	if c.Scenario == nil {
		return nil
	}
	return c.Scenario.Demand()
}

// scenarioMod returns the scenario as a rate modulator, or nil. The
// explicit nil matters: a nil *scenario.Scenario stuffed into the
// interface would be non-nil.
func (c *Config) scenarioMod() workload.RateModulator {
	if c.Scenario == nil {
		return nil
	}
	return c.Scenario
}

// Rates holds the arrival rates derived from load and frac_local
// (section 4.1):
//
//	load       = (λ_global·m̄/µ_subtask + k·λ_local/µ_local) / k
//	frac_local = (k·λ_local/µ_local) / (k·load)
type Rates struct {
	// LocalPerNode is λ_local, the local arrival rate at each node.
	LocalPerNode float64
	// Global is λ_global, the arrival rate of whole global tasks.
	Global float64
	// MeanSubtasks is m̄, the expected subtasks per global task.
	MeanSubtasks float64
}

// DeriveRates inverts the load equations.
func (c *Config) DeriveRates() (Rates, error) {
	mean, err := workload.MeanSubtasks(c.shape())
	if err != nil {
		return Rates{}, err
	}
	r := Rates{
		LocalPerNode: c.FracLocal * c.Load * c.MuLocal,
		MeanSubtasks: mean,
	}
	if c.FracLocal < 1 {
		r.Global = (1 - c.FracLocal) * c.Load * float64(c.Nodes) * c.MuSubtask / mean
	}
	return r, nil
}

// warmup returns the effective warmup window.
func (c *Config) warmup() float64 {
	if c.Warmup > 0 {
		return c.Warmup
	}
	return 0.05 * c.Horizon
}

// tardyPolicy maps the flags to the node policy.
func (c *Config) tardyPolicy() node.TardyPolicy {
	switch {
	case c.TardyAbort:
		return node.AbortAtDispatch
	case c.FirmAbort:
		return node.AbortFirm
	default:
		return node.NoAbort
	}
}

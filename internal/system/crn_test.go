package system

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// localArrival is one local task as its source emitted it.
type localArrival struct {
	node                int
	at, exec, deadline  float64
	traceAt, traceDline float64 // the same arrival as the trace's submit event saw it
}

// globalArrival is one global instance as the global source emitted it:
// arrival, end-to-end deadline, and each subtask's placement and demand
// in leaf order.
type globalArrival struct {
	at, deadline float64
	leaves       []leafDraw
}

type leafDraw struct {
	node int
	exec float64
}

// arrivalLog is everything one replication's workload sources drew.
type arrivalLog struct {
	localGenerated, globalGenerated int64
	locals                          []localArrival
	globals                         []globalArrival
}

// recordArrivals runs cfg on a warm workspace whose source hooks log
// every arrival, and returns the log. The hooks exist once the
// workspace has run, so the first run only warms it. Local arrivals are
// read twice: at the local-submit hook, which sees the whole task, and
// through a trace.Recorder filtered to local submit events, whose
// records carry no demand.
func recordArrivals(t *testing.T, cfg Config) arrivalLog {
	t.Helper()
	ws := NewWorkspace()
	if _, err := RunWith(cfg, ws); err != nil {
		t.Fatal(err)
	}
	var log arrivalLog
	submit, onGlobal := ws.submit, ws.onGlobal
	ws.submit = func(tk *task.Task) {
		log.locals = append(log.locals, localArrival{node: int(tk.NodeID), at: tk.Arrival, exec: tk.Exec, deadline: tk.Deadline})
		submit(tk)
	}
	ws.onGlobal = func(sp workload.Spec) {
		g := globalArrival{at: sp.Arrival, deadline: sp.Deadline}
		sp.Graph.Walk(func(leaf *task.Graph) {
			g.leaves = append(g.leaves, leafDraw{node: int(leaf.NodeID), exec: leaf.Exec})
		})
		log.globals = append(log.globals, g)
		onGlobal(sp)
	}
	cfg.Trace = trace.NewRecorder(0)
	m, err := RunWith(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	log.localGenerated, log.globalGenerated = m.LocalGenerated, m.GlobalGenerated
	var submits []trace.Event
	for _, ev := range cfg.Trace.Events() {
		if ev.Class == task.Local && ev.Kind == trace.Submit {
			submits = append(submits, ev)
		}
	}
	if len(submits) != len(log.locals) {
		t.Fatalf("trace saw %d local submissions, the source emitted %d", len(submits), len(log.locals))
	}
	for i, ev := range submits {
		if ev.Node != log.locals[i].node {
			t.Fatalf("local arrival %d: trace node %d, source node %d", i, ev.Node, log.locals[i].node)
		}
		log.locals[i].traceAt, log.locals[i].traceDline = ev.T, ev.Deadline
	}
	return log
}

// TestCommonRandomNumbers pins common random numbers across deadline
// strategies: for one seed, every SSP sees exactly the same local
// arrivals and global instances, and so does every PSP, because each
// workload source draws from its own stream and no strategy decision
// feeds back into a draw. Paired differences between strategies rest on
// this property.
func TestCommonRandomNumbers(t *testing.T) {
	families := []struct {
		name  string
		base  Config
		names []string
		set   func(*Config, string)
	}{
		{"SSP", Baseline(), core.SerialNames(), func(c *Config, s string) { c.SSP = s }},
		{"PSP", PSPBaseline(), core.ParallelNames(), func(c *Config, s string) { c.PSP = s }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var ref arrivalLog
			for i, name := range fam.names {
				cfg := fam.base
				cfg.Nodes, cfg.Horizon, cfg.Seed = 6, 400, 7
				fam.set(&cfg, name)
				log := recordArrivals(t, cfg)
				if log.globalGenerated == 0 || len(log.locals) == 0 {
					t.Fatalf("%s: %d local and %d global arrivals; the test needs both", name, len(log.locals), log.globalGenerated)
				}
				if i == 0 {
					ref = log
					continue
				}
				if log.localGenerated != ref.localGenerated || log.globalGenerated != ref.globalGenerated {
					t.Fatalf("%s generated %d local and %d global tasks, %s %d and %d", name,
						log.localGenerated, log.globalGenerated, fam.names[0], ref.localGenerated, ref.globalGenerated)
				}
				if !reflect.DeepEqual(log.locals, ref.locals) {
					t.Fatalf("%s saw different local arrivals than %s", name, fam.names[0])
				}
				if !reflect.DeepEqual(log.globals, ref.globals) {
					t.Fatalf("%s saw different global instances than %s", name, fam.names[0])
				}
			}
		})
	}
}

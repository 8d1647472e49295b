package system

import (
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// TestWorkspaceWarmReplicationAllocs64 extends the PR-3 allocation
// guards to a large topology: on a warm workspace, a 64-node
// replication re-creates no per-node setup objects at all — workload
// sources, their RNG streams and submit closures are reconfigured in
// place (PR 5), and queues, the node group, the engine's event queue,
// and the task pools were already reused. The remaining budget covers
// run-constant setup (manager, metrics, per-run slices) plus the
// process manager's waiting map, whose growth tracks the generated task
// population; the PR-4 budget was Nodes*14+256 (~800 observed at 64
// nodes), the warm-source path measures ~350. If any reuse path is
// lost this fails long before a throughput benchmark notices.
func TestWorkspaceWarmReplicationAllocs64(t *testing.T) {
	cfg := Baseline()
	cfg.Nodes = 64
	cfg.Horizon = 200
	ws := NewWorkspace()
	if _, err := RunWith(cfg, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
	})
	budget := float64(cfg.Nodes*6 + 128)
	if allocs > budget {
		t.Fatalf("warm 64-node replication allocated %v times, budget %v (warm sources lost?)", allocs, budget)
	}
}

// TestWorkspaceWarmReplicationAllocs65536 pins the extreme-scale
// memory-layout contract: at 65536 nodes a warm workspace re-runs a
// replication without recreating any per-node object — the fleet's
// stream table, the ready-queue bank arena, the node group's hot array,
// and the engine's event queue are all reused in place. Measured warm
// cost is ~380 allocations (run-constant setup: manager, metrics,
// per-run bookkeeping), independent of the node count. The budget is
// deliberately far below one allocation per node, so any change that
// reintroduces a per-node-per-run object (65536+ allocations) fails by
// 30x, while run-constant drift has ~5x headroom.
func TestWorkspaceWarmReplicationAllocs65536(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-node replication in -short mode")
	}
	cfg := Baseline()
	cfg.Nodes = 65536
	cfg.Horizon = 5
	ws := NewWorkspace()
	if _, err := RunWith(cfg, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
	})
	budget := float64(cfg.Nodes/32 + 512)
	if allocs > budget {
		t.Fatalf("warm 65536-node replication allocated %v times, budget %v (per-node reuse lost?)", allocs, budget)
	}
}

// TestWorkspaceWarmReplicationScalesWithNodes pins the per-node setup
// coefficient: doubling the node count must not much more than double a
// warm replication's allocations (anything superlinear means a buffer
// is being regrown per run).
func TestWorkspaceWarmReplicationScalesWithNodes(t *testing.T) {
	measure := func(nodes int) float64 {
		cfg := Baseline()
		cfg.Nodes = nodes
		cfg.Horizon = 200
		ws := NewWorkspace()
		if _, err := RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := RunWith(cfg, ws); err != nil {
				t.Fatal(err)
			}
		})
	}
	a32, a64 := measure(32), measure(64)
	if a64 > 2.5*a32+64 {
		t.Fatalf("allocations grew superlinearly with nodes: 32 -> %v, 64 -> %v", a32, a64)
	}
}

// TestWorkspaceWarmHeapFlat pins the per-replication arena rewind: a
// warm workspace carves each replication's tasks, graph nodes and
// manager shells from the same slabs, so its live heap stops growing
// once it has reached the working set. Without the rewind, tasks left
// in flight at every horizon were never reclaimed and the free lists
// pinned their slabs: this 1024-node burst workload crept from about
// 5 MB after 5 replications to about 17 MB after 60.
func TestWorkspaceWarmHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("60 warm 1024-node replications in -short mode")
	}
	cfg := Baseline()
	cfg.Nodes, cfg.Horizon, cfg.Load = 1024, 40, 0.55
	sc, err := scenario.Preset("burst", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	ws := NewWorkspace()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var after5 uint64
	for rep := 1; rep <= 60; rep++ {
		cfg.Seed = uint64(rep)
		if _, err := RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
		if rep == 5 {
			after5 = live()
		}
	}
	after60 := live()
	runtime.KeepAlive(ws)
	if float64(after60) > 1.2*float64(after5) {
		t.Fatalf("warm workspace heap grew from %.2f MB after 5 replications to %.2f MB after 60",
			float64(after5)/1e6, float64(after60)/1e6)
	}
	t.Logf("live heap %.2f MB after 5 warm replications, %.2f MB after 60", float64(after5)/1e6, float64(after60)/1e6)
}

// TestWorkspaceWarmHeapBudget65536 pins the memory of a warm
// 65536-node workspace to its pending work. The event queue's rung
// buckets draw their storage from one block pool and the ready-queue
// bank carves two heap entries per lane, so the live heap after a warm
// Table 1 replication stays near the topology's own state instead of
// accumulating bucket capacity: the layout that kept per-bucket slices
// and an eight-entry carve held about 76 MB here. A replication three
// times as long must not grow it by more than 10% — the retained
// storage tracks the pending set, not the run's length (the old
// layout grew 15%).
func TestWorkspaceWarmHeapBudget65536(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-node replications in -short mode")
	}
	cfg := Baseline()
	cfg.Nodes, cfg.Horizon = 65536, 20
	ws := NewWorkspace()
	live := func() float64 {
		if _, err := RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	live() // warm-up replication
	h20 := live()
	cfg.Horizon = 60
	h60 := live()
	runtime.KeepAlive(ws)
	t.Logf("live heap %.2f MB after a warm horizon-20 replication, %.2f MB after horizon 60", h20, h60)
	if h20 > 56 {
		t.Errorf("warm 65536-node workspace holds %.2f MB of live heap, want <= 56 MB", h20)
	}
	if h60 >= 1.1*h20 {
		t.Errorf("live heap grew from %.2f MB at horizon 20 to %.2f MB at horizon 60, want < 10%% growth", h20, h60)
	}
}

// TestWorkspaceWarmPreemptiveStormAllocs pins the allocation count of a
// warm replication that exercises the engine's cold paths: preemption
// and the outage's speed changes cancel completion events, so tombstones
// come and go all run, and the outage's fault events fire with
// RegisterArg arguments indexing the workspace's reused fault table.
// storm is the burst preset plus a node-0 outage; burst alone schedules
// no fault events. The tombstone set and the fault table must have
// reached their working size in the first run:
// the second and third runs of the same replication allocate the same
// count, within the 64-node warm budget, which the run's cancels exceed
// several times over.
func TestWorkspaceWarmPreemptiveStormAllocs(t *testing.T) {
	cfg := Baseline()
	cfg.Nodes, cfg.Horizon, cfg.Preemptive = 64, 400, true
	sc, err := scenario.Preset("storm", cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	ws := NewWorkspace()
	var m *Metrics
	run := func() {
		var err error
		if m, err = RunWith(cfg, ws); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// AllocsPerRun runs once unmeasured, then measures one run.
	second := testing.AllocsPerRun(1, run)
	third := testing.AllocsPerRun(1, run)
	if m.Engine.EventsCancelled == 0 || m.Engine.Preemptions == 0 {
		t.Fatalf("replication cancelled %d events and preempted %d tasks; the test needs both",
			m.Engine.EventsCancelled, m.Engine.Preemptions)
	}
	if second != third {
		t.Fatalf("warm runs allocated %v then %v times; a cold path grows per run", second, third)
	}
	if budget := float64(cfg.Nodes*6 + 128); second > budget {
		t.Fatalf("warm run allocated %v times for %d cancels, budget %v", second, m.Engine.EventsCancelled, budget)
	}
	t.Logf("%d cancels, %v allocations per warm run", m.Engine.EventsCancelled, second)
}

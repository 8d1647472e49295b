// Package procmgr implements the process manager of the system model
// (paper section 3.2). The process manager receives newly created global
// tasks together with their control information (the serial-parallel
// precedence graph and the end-to-end deadline), assigns virtual
// deadlines to simple subtasks using an SDA strategy, submits them to
// their execution nodes, and enforces the precedence constraints: a
// serial stage is released only when its predecessor finishes, a parallel
// group completes only when all branches finish.
//
// Deadline assignment is dynamic: the deadline of serial stage i is
// computed at the instant stage i is released, so ar(Ti) reflects the
// actual completion time of stage i−1. This is what makes slack
// inheritance ("the rich get richer") and slack robbery ("the poor get
// poorer", section 4.2.2) observable.
package procmgr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/task"
)

// Instance is one in-flight (or finished) global task.
type Instance struct {
	// ID is the global task's unique id.
	ID uint64
	// Graph is the instance's serial-parallel structure with sampled
	// execution times and placements on the leaves.
	Graph *task.Graph
	// Arrival and Deadline are the end-to-end attributes ar(T), dl(T).
	Arrival  float64
	Deadline float64
	// Finish is the completion time of the last subtask, or the abort
	// time for aborted instances; zero while in flight.
	Finish float64
	// Aborted reports that a subtask was discarded by a node's tardy
	// policy, killing the whole instance.
	Aborted bool
	// StageMisses counts subtasks that finished after their assigned
	// virtual deadline.
	StageMisses int
	// StageCount counts subtasks that completed service.
	StageCount int
	// InheritedSlack accumulates, over serial releases, the amount by
	// which each stage finished before its virtual deadline (leftover
	// slack passed to the successor). Diagnostic for section 4.2.2.
	InheritedSlack float64

	// leafRefs counts subtasks submitted but not yet retired by the
	// manager, plus a release walk in progress. An instance can only be
	// recycled once it is finished AND nothing holds it — an aborted
	// instance's already-queued siblings keep referencing it until they
	// drain.
	leafRefs int
	// finished marks that OnDone has been delivered.
	finished bool
}

// Missed reports whether the completed instance missed its end-to-end
// deadline. Aborted instances count as missed.
func (in *Instance) Missed() bool {
	return in.Aborted || in.Finish > in.Deadline
}

// Manager routes global tasks through the system.
type Manager struct {
	eng      *sim.Engine
	group    *node.Group
	assigner core.Assigner

	// onDone is called exactly once per instance, when it completes or
	// when it is killed by an abort.
	onDone func(*Instance)
	// nextSeq allocates scheduler FIFO sequence numbers shared with the
	// local-task generators.
	nextSeq func() uint64
	// nextTaskID allocates task ids.
	nextTaskID func() uint64

	// The pending tables map an in-flight subtask to the activation
	// frame its completion resumes. They are dense parallel slices
	// indexed by the subtask's Ref — a freelist-recycled handle stamped
	// on the task at submission — replacing the map the manager used to
	// key by task ID: lookup is two loads instead of a hash probe, and
	// the tables stop allocating once they reach the run's in-flight
	// high-water mark. pendID guards against stale or foreign tasks
	// (the entry is only valid while it carries the task's own ID).
	pendInst  []*Instance
	pendFrame []*frame
	pendID    []uint64
	pendFree  []int32

	// pool recycles retired subtasks: the configured pool, or ownPool
	// when the caller brings none.
	pool    *task.Pool
	ownPool task.Pool
	// instFree recycles Instance shells once fully drained.
	instFree []*Instance
	// frameFree recycles activation frames.
	frameFree []*frame
	// instSlab and frameSlab are bump-allocation chunks fresh shells are
	// carved from when the free lists run dry: O(peak/mgrSlab)
	// allocations instead of one per shell. instSlabs and frameSlabs
	// hold every chunk, for Reconfigure to reclaim.
	instSlab   []Instance
	frameSlab  []frame
	instSlabs  task.Arena[Instance]
	frameSlabs task.Arena[frame]
	// graphPool receives retired instance graphs; nil leaves them to the
	// caller.
	graphPool *task.GraphPool
	// pexBuf is the scratch buffer for the assigner's aggregate pex
	// values, reused across every stage release of the run.
	pexBuf []float64

	inflight int
}

// frame is one live activation record: a serial group waiting to release
// its next stage, or a parallel group counting branches still running.
// Frames replace the per-stage continuation closures the manager used to
// allocate — precedence state lives in a pooled struct and completion
// walks the parent chain instead of invoking captured functions.
type frame struct {
	inst      *Instance
	g         *task.Graph
	parent    *frame // nil at the graph root
	dl        float64
	next      int // serial: index of the next child to release
	remaining int // parallel: branches still running
}

// Config carries the manager's construction parameters.
type Config struct {
	Engine *sim.Engine
	// Group holds the system's nodes; subtasks are submitted to it by
	// their leaf's node index. Required.
	Group    *node.Group
	Assigner core.Assigner
	// OnDone receives every instance exactly once, after completion or
	// abort. Required.
	OnDone func(*Instance)
	// NextSeq and NextTaskID are shared allocators (required) so that
	// subtasks and local tasks draw from one deterministic sequence.
	NextSeq    func() uint64
	NextTaskID func() uint64
	// Pool recycles subtasks within a replication, shared with the
	// local-task generators. Nil gives the manager a pool of its own.
	Pool *task.Pool
	// GraphPool receives retired instance graphs for reuse by the
	// workload generator. Nil leaves every graph with the caller, which
	// may reuse it.
	GraphPool *task.GraphPool
}

func (cfg *Config) validate() error {
	if cfg.Engine == nil {
		return fmt.Errorf("procmgr: nil engine")
	}
	if cfg.Group == nil || cfg.Group.Len() == 0 {
		return fmt.Errorf("procmgr: no nodes")
	}
	if cfg.OnDone == nil {
		return fmt.Errorf("procmgr: nil OnDone")
	}
	if cfg.NextSeq == nil || cfg.NextTaskID == nil {
		return fmt.Errorf("procmgr: nil allocators")
	}
	return nil
}

// New returns a manager.
func New(cfg Config) (*Manager, error) {
	m := &Manager{}
	if err := m.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reconfigure rebinds the manager for a fresh replication in place,
// keeping the pending tables, shell slabs and scratch buffers at their
// working capacity. Any in-flight state of a previous run (instances
// cut off by the horizon) is dropped and its shells reclaimed. A
// reconfigured manager behaves exactly like a freshly constructed one.
func (m *Manager) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	m.eng, m.group = cfg.Engine, cfg.Group
	m.assigner = cfg.Assigner
	m.onDone, m.nextSeq, m.nextTaskID = cfg.OnDone, cfg.NextSeq, cfg.NextTaskID
	m.pool, m.graphPool = cfg.Pool, cfg.GraphPool
	if m.pool == nil {
		m.ownPool.Rewind()
		m.pool = &m.ownPool
	}
	m.inflight = 0
	// Drop leftover pending entries (and their references) so the
	// tables restart empty at retained capacity.
	for i := range m.pendInst {
		m.pendInst[i] = nil
		m.pendFrame[i] = nil
		m.pendID[i] = 0
	}
	m.pendInst = m.pendInst[:0]
	m.pendFrame = m.pendFrame[:0]
	m.pendID = m.pendID[:0]
	m.pendFree = m.pendFree[:0]
	m.instFree, m.frameFree = m.instFree[:0], m.frameFree[:0]
	m.instSlab, m.frameSlab = nil, nil
	m.instSlabs.Rewind()
	m.frameSlabs.Rewind()
	return nil
}

// NewInstance returns a zeroed Instance, recycled from the manager's free
// list or carved from its slab. The caller fills it and hands it to
// Start; after OnDone the manager reclaims it once the last of its
// subtasks has drained, so callers must not retain instances beyond the
// OnDone callback.
func (m *Manager) NewInstance() *Instance {
	if n := len(m.instFree); n > 0 {
		inst := m.instFree[n-1]
		m.instFree[n-1] = nil
		m.instFree = m.instFree[:n-1]
		return inst
	}
	if len(m.instSlab) == 0 {
		m.instSlab = m.instSlabs.Slab(mgrSlab)
	}
	inst := &m.instSlab[0]
	m.instSlab = m.instSlab[1:]
	return inst
}

// mgrSlab is the number of Instance or frame shells carved per slab
// allocation.
const mgrSlab = 256

// maybeRecycle parks a fully drained, finished instance on the free list.
func (m *Manager) maybeRecycle(inst *Instance) {
	if !inst.finished || inst.leafRefs != 0 {
		return
	}
	// The instance is fully drained: no node, frame, or pending entry
	// references its graph, so its nodes can go back to the generator.
	if m.graphPool != nil {
		m.graphPool.Release(inst.Graph)
	}
	*inst = Instance{} // drop the graph reference and reset counters
	m.instFree = append(m.instFree, inst)
}

// newFrame returns an initialized activation frame, recycled from the
// free list or carved from the frame slab.
func (m *Manager) newFrame(inst *Instance, g *task.Graph, parent *frame, dl float64) *frame {
	var f *frame
	if n := len(m.frameFree); n > 0 {
		f = m.frameFree[n-1]
		m.frameFree[n-1] = nil
		m.frameFree = m.frameFree[:n-1]
	} else {
		if len(m.frameSlab) == 0 {
			m.frameSlab = m.frameSlabs.Slab(mgrSlab)
		}
		f = &m.frameSlab[0]
		m.frameSlab = m.frameSlab[1:]
	}
	*f = frame{inst: inst, g: g, parent: parent, dl: dl}
	return f
}

// releaseFrame recycles a finished frame. Frames of aborted instances
// are never released (their completions are swallowed); the next
// Reconfigure reclaims their slabs.
func (m *Manager) releaseFrame(f *frame) {
	*f = frame{}
	m.frameFree = append(m.frameFree, f)
}

// InFlight returns the number of instances started but not yet finished
// or aborted.
func (m *Manager) InFlight() int { return m.inflight }

// Start admits a global task at the current simulation time. The
// instance's Graph must be validated, flattened, and carry sampled Exec,
// Pex and NodeID values on every leaf.
func (m *Manager) Start(inst *Instance) {
	m.inflight++
	// The release walk holds the instance like a queued subtask: a
	// subtask aborted on submission must not recycle it mid-walk.
	inst.leafRefs++
	m.activate(inst, inst.Graph, inst.Deadline, nil)
	inst.leafRefs--
	m.maybeRecycle(inst)
}

// activate submits graph node g with virtual deadline dl inside the
// enclosing frame (nil when g is the whole graph). Completion propagates
// through childDone; aborted instances never reach it because their
// subtask completions are swallowed.
func (m *Manager) activate(inst *Instance, g *task.Graph, dl float64, parent *frame) {
	switch g.Kind {
	case task.KindSimple:
		m.submitLeaf(inst, g, dl, parent)

	case task.KindSerial:
		m.stepSerial(m.newFrame(inst, g, parent, dl))

	case task.KindParallel:
		f := m.newFrame(inst, g, parent, dl)
		f.remaining = len(g.Children)
		arrival := m.eng.Now()
		for i, child := range g.Children {
			var branchDL float64
			branchDL, m.pexBuf = m.assigner.ParallelBranchBuf(m.pexBuf, arrival, dl, g.Children, i)
			m.activate(inst, child, branchDL, f)
		}

	default:
		// Graphs are validated before Start; this cannot happen in a
		// correct program.
		panic(fmt.Sprintf("procmgr: unknown graph kind %v", g.Kind))
	}
}

// stepSerial releases the next stage of a serial frame, computing its
// virtual deadline at the instant of release (the paper's dynamic
// assignment), or finishes the group when no stages remain.
func (m *Manager) stepSerial(f *frame) {
	if f.next < len(f.g.Children) {
		i := f.next
		f.next++
		var stageDL float64
		stageDL, m.pexBuf = m.assigner.SerialStageBuf(m.pexBuf, m.eng.Now(), f.dl, f.g.Children[i:])
		m.activate(f.inst, f.g.Children[i], stageDL, f)
		return
	}
	m.groupDone(f)
}

// groupDone retires a finished frame and propagates completion upward.
func (m *Manager) groupDone(f *frame) {
	inst, parent := f.inst, f.parent
	m.releaseFrame(f)
	m.childDone(inst, parent)
}

// childDone records that one direct child of frame f finished. A nil
// frame means the whole graph finished: the instance completes.
func (m *Manager) childDone(inst *Instance, f *frame) {
	if f == nil {
		inst.Finish = m.eng.Now()
		m.inflight--
		inst.finished = true
		m.onDone(inst)
		return
	}
	switch f.g.Kind {
	case task.KindSerial:
		m.stepSerial(f)
	case task.KindParallel:
		f.remaining--
		if f.remaining == 0 {
			m.groupDone(f)
		}
	}
}

// takeRef pops a free pending slot or grows the tables by one.
func (m *Manager) takeRef() int32 {
	if n := len(m.pendFree); n > 0 {
		ref := m.pendFree[n-1]
		m.pendFree = m.pendFree[:n-1]
		return ref
	}
	m.pendInst = append(m.pendInst, nil)
	m.pendFrame = append(m.pendFrame, nil)
	m.pendID = append(m.pendID, 0)
	return int32(len(m.pendID) - 1)
}

// lookupRef resolves a subtask's pending slot, verifying the slot still
// belongs to this task.
func (m *Manager) lookupRef(t *task.Task) (int32, bool) {
	ref := t.Ref
	if ref < 0 || int(ref) >= len(m.pendID) || m.pendID[ref] != t.ID || m.pendInst[ref] == nil {
		return 0, false
	}
	return ref, true
}

// releaseRef clears a resolved pending slot and returns it to the free
// list.
func (m *Manager) releaseRef(ref int32) {
	m.pendInst[ref] = nil
	m.pendFrame[ref] = nil
	m.pendID[ref] = 0
	m.pendFree = append(m.pendFree, ref)
}

// submitLeaf creates the schedulable subtask for a leaf and sends it to
// its node.
func (m *Manager) submitLeaf(inst *Instance, leaf *task.Graph, dl float64, parent *frame) {
	t := m.pool.Get()
	t.ID = m.nextTaskID()
	t.Class = task.Global
	t.GlobalID = inst.ID
	t.Stage = leaf.LeafIndex
	t.Arrival = m.eng.Now()
	t.Deadline = dl
	t.FirmDeadline = inst.Deadline
	t.Exec = leaf.Exec
	t.Pex = leaf.Pex
	t.Seq = m.nextSeq()
	inst.leafRefs++
	ref := m.takeRef()
	m.pendInst[ref] = inst
	m.pendFrame[ref] = parent
	m.pendID[ref] = t.ID
	t.Ref = ref
	m.group.Submit(leaf.NodeID, t)
}

// Complete must be called by the system when a node finishes a Global
// subtask. Completions for aborted instances are swallowed (their
// already-queued siblings still occupy servers, which is realistic — the
// manager cannot retract work from an independent component). The subtask
// is recycled after its continuation runs; callers must not hold on to it.
func (m *Manager) Complete(t *task.Task) error {
	ref, ok := m.lookupRef(t)
	if !ok {
		return fmt.Errorf("procmgr: completion for unknown subtask %d", t.ID)
	}
	inst, f := m.pendInst[ref], m.pendFrame[ref]
	m.releaseRef(ref)
	if !inst.Aborted {
		inst.StageCount++
		if t.Missed() {
			inst.StageMisses++
		} else {
			inst.InheritedSlack += t.Deadline - t.Finish
		}
		m.childDone(inst, f) // t's reference holds inst through the releases
	}
	inst.leafRefs--
	m.pool.Put(t)
	m.maybeRecycle(inst)
	return nil
}

// Abort must be called by the system when a node's tardy policy discards
// a Global subtask. The first abort kills the whole instance: a global
// task whose subtask was dropped can never meet its end-to-end deadline.
// The subtask is recycled on return; callers must not hold on to it.
func (m *Manager) Abort(t *task.Task) error {
	ref, ok := m.lookupRef(t)
	if !ok {
		return fmt.Errorf("procmgr: abort for unknown subtask %d", t.ID)
	}
	inst := m.pendInst[ref]
	m.releaseRef(ref)
	inst.leafRefs--
	if !inst.Aborted {
		inst.Aborted = true
		inst.Finish = m.eng.Now()
		m.inflight--
		inst.finished = true
		m.onDone(inst)
	}
	m.pool.Put(t)
	m.maybeRecycle(inst)
	return nil
}

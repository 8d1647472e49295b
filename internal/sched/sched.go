// Package sched implements the per-node ready queues of the system model
// (paper section 3.2): every node services tasks with its own real-time
// scheduling policy, non-preemptively and independently of all other
// nodes. The default policy is earliest-deadline-first; the paper's
// variations (minimum-laxity-first, and the globals-first class priority
// required by the GF strategy) are provided as well, plus FCFS as a
// non-real-time baseline.
//
// Every node's queue lives in one Bank (bank.go). Ties break
// deterministically by submission sequence number, so simulation runs
// are reproducible bit-for-bit. A Bank is not safe for concurrent use:
// the discrete-event simulator that drives it is single-threaded.
package sched

import "fmt"

// Policy names a ready-queue ordering.
type Policy string

// Supported scheduling policies.
const (
	// EDF is non-preemptive earliest-deadline-first (the paper's
	// default local scheduling algorithm, Table 1).
	EDF Policy = "EDF"
	// MLF is non-preemptive minimum-laxity-first (a section 4.3
	// variation): priority by dl − now − pex at dispatch.
	MLF Policy = "MLF"
	// FCFS is first-come-first-served, a non-real-time baseline.
	FCFS Policy = "FCFS"
)

// Validate reports whether p is a supported policy.
func (p Policy) Validate() error {
	switch p {
	case EDF, MLF, FCFS:
		return nil
	default:
		return fmt.Errorf("sched: unknown policy %q", p)
	}
}

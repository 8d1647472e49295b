package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleAssigner_Plan statically decomposes an end-to-end deadline over
// a serial-parallel task the way the paper's process manager does
// dynamically.
func ExampleAssigner_Plan() {
	g := repro.MustParseGraph("[gather:1 [f1:1 || f2:1.5] decide:2]")
	a := repro.NewAssigner(repro.EQF, repro.DIV(1))
	plan, err := a.Plan(g, 0, 12)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range plan {
		fmt.Printf("%-7s release %.2f deadline %.2f\n", p.Leaf.Name, p.Release, p.Deadline)
	}
	// Output:
	// gather  release 0.00 deadline 2.67
	// f1      release 1.00 deadline 3.36
	// f2      release 1.00 deadline 3.36
	// decide  release 2.50 deadline 12.00
}

// ExampleSerialStrategyByName shows how the four SSP strategies split
// the same remaining budget differently for the first of three stages.
func ExampleSerialStrategyByName() {
	remaining := []float64{2, 3, 5} // pex of this stage and the two after it
	for _, name := range []string{"UD", "ED", "EQS", "EQF"} {
		s, err := repro.SerialStrategyByName(name)
		if err != nil {
			fmt.Println(err)
			return
		}
		// Stage released at t=10, global deadline 30 (slack 10).
		fmt.Printf("%-4s dl(T1) = %.2f\n", name, s.StageDeadline(10, 30, remaining))
	}
	// Output:
	// UD   dl(T1) = 30.00
	// ED   dl(T1) = 22.00
	// EQS  dl(T1) = 15.33
	// EQF  dl(T1) = 14.00
}

// ExampleParseGraph parses the compact serial-parallel notation.
func ExampleParseGraph() {
	g, err := repro.ParseGraph("[a:1 [b:2 || c:4] d:1]")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("leaves:", g.LeafCount())
	fmt.Println("critical-path pex:", g.AggregatePex())
	fmt.Println("depth:", g.Depth())
	// Output:
	// leaves: 4
	// critical-path pex: 6
	// depth: 3
}

// ExampleSession_Run runs one deterministic replication of the paper's
// baseline model.
func ExampleSession_Run() {
	cfg := repro.BaselineConfig()
	cfg.SSP = "EQF"
	cfg.Horizon = 10000
	cfg.Seed = 1
	sess := repro.NewSession()
	defer sess.Close()
	res, err := sess.Run(context.Background(), repro.Job{Config: cfg})
	if err != nil {
		fmt.Println(err)
		return
	}
	m := res.Runs[0]
	fmt.Printf("globals generated: %d\n", m.GlobalGenerated)
	fmt.Printf("missed (global) within a plausible band: %v\n", m.MDGlobal() > 20 && m.MDGlobal() < 40)
	// Output:
	// globals generated: 1964
	// missed (global) within a plausible band: true
}

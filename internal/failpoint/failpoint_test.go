package failpoint

import (
	"testing"
	"time"
)

// TestDisarmedZeroCost pins the seam's contract: with nothing armed,
// Inject is a single atomic load and performs zero allocations.
func TestDisarmedZeroCost(t *testing.T) {
	Disarm()
	if armed.Load() {
		t.Fatal("armed after Disarm")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if Inject("distrib/frame-write") {
			t.Fatal("disarmed site triggered")
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Inject allocates %v per call, want 0", allocs)
	}
}

// TestCorruptHitBudget: an armed site respects its hit budget and
// leaves other sites alone.
func TestCorruptHitBudget(t *testing.T) {
	defer Disarm()
	if err := Arm("distrib/frame-write=corrupt:max=2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !Inject("distrib/frame-write") {
			t.Fatalf("hit %d did not trigger", i)
		}
	}
	if Inject("distrib/frame-write") {
		t.Fatal("budget exhausted but still triggering")
	}
	if Inject("distrib/frame-read") {
		t.Fatal("unarmed site triggered")
	}
}

// TestCorruptAndDelay: corrupt reports to the caller; delay sleeps and
// reports no corruption.
func TestCorruptAndDelay(t *testing.T) {
	defer Disarm()
	if err := Arm("distrib/frame-write=corrupt;distrib/frame-read=delay(30)"); err != nil {
		t.Fatal(err)
	}
	if !Inject("distrib/frame-write") {
		t.Fatal("corrupt site did not report corruption")
	}
	start := time.Now()
	if Inject("distrib/frame-read") {
		t.Fatal("delay site reported corruption")
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("delay(30) slept only %v", el)
	}
}

// TestSeededProbabilityDeterministic: the same seed yields the same
// trigger sequence; a different seed (almost surely) differs.
func TestSeededProbabilityDeterministic(t *testing.T) {
	defer Disarm()
	sequence := func(seed string) []bool {
		Disarm()
		if err := Arm("seed=" + seed + ";distrib/frame-write=corrupt:p=0.5"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = Inject("distrib/frame-write")
		}
		return out
	}
	a, b, c := sequence("7"), sequence("7"), sequence("8")
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different trigger sequences")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical 64-long trigger sequences")
	}
	var hits int
	for _, h := range a {
		if h {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("p=0.5 triggered %d/%d times", hits, len(a))
	}
}

// TestHangReleasedByDisarm: a hanging site blocks until Disarm.
func TestHangReleasedByDisarm(t *testing.T) {
	if err := Arm("distrib/worker-loop=hang"); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		Inject("distrib/worker-loop")
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("hang site returned before Disarm")
	case <-time.After(50 * time.Millisecond):
	}
	Disarm()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("hang site not released by Disarm")
	}
}

// TestSpecErrors: malformed specs are rejected with diagnostics, and a
// rejected spec arms nothing — not even its valid entries. Every
// compiled-in site accepts every action it applies.
func TestSpecErrors(t *testing.T) {
	Disarm()
	defer Disarm()
	for _, spec := range []string{
		"justasite",
		"distrib/worker-loop=explode",
		"distrib/frame-read=delay(x)",
		"distrib/worker-loop=kill:p=1.5",
		"distrib/worker-loop=kill:max=-1",
		"distrib/worker-loop=kill:banana",
		"distrib/worker-loop=error",
		"distrib/worker-loop=hang:after=3",
		"seed=notanumber",
		"distrib/worker-lop=kill",
		"distrib/decode=hang",
		"distrib/frame-read=corrupt",
		"session/pool-acquire=corrupt",
		"distrib/frame-write=corrupt;distrib/worker-loop=corrupt",
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
		if armed.Load() {
			t.Fatalf("rejected spec %q armed a site", spec)
		}
	}
	if err := Arm(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
	if err := Arm(" ; "); err != nil {
		t.Errorf("blank entries rejected: %v", err)
	}
	for site, corruptible := range sites {
		actions := []string{"hang", "kill", "delay(1):p=0.5:max=3"}
		if corruptible {
			actions = append(actions, "corrupt")
		}
		for _, act := range actions {
			if err := Arm(site + "=" + act); err != nil {
				t.Errorf("Arm(%s=%s): %v", site, act, err)
			}
			Disarm()
		}
	}
}

package queueing

import (
	"math"
	"testing"
)

func TestMM1KnownValues(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := q.Rho(); got != 0.5 {
		t.Errorf("Rho = %v, want 0.5", got)
	}
	if got := q.MeanSojourn(); got != 2 {
		t.Errorf("W = %v, want 2", got)
	}
	if got := q.MeanWait(); got != 1 {
		t.Errorf("Wq = %v, want 1", got)
	}
	if got := q.MeanQueueLength(); got != 1 {
		t.Errorf("L = %v, want 1", got)
	}
}

func TestMM1Tails(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	// P(Wq > 0) = rho; P(W > 0) = 1.
	if got := q.WaitExceeds(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("WaitExceeds(0) = %v, want 0.5", got)
	}
	if got := q.SojournExceeds(0); got != 1 {
		t.Errorf("SojournExceeds(0) = %v, want 1", got)
	}
	if got := q.WaitExceeds(-1); got != 1 {
		t.Errorf("WaitExceeds(-1) = %v, want 1", got)
	}
	// Monotone decreasing tails.
	prev := 1.0
	for _, tt := range []float64{0, 0.5, 1, 2, 4, 8} {
		cur := q.WaitExceeds(tt)
		if cur > prev+1e-15 {
			t.Fatalf("tail not monotone at t=%v", tt)
		}
		prev = cur
	}
}

func TestMissProbUniformSlack(t *testing.T) {
	q := MM1{Lambda: 0.5, Mu: 1}
	// Degenerate range: same as the point tail.
	got, err := q.MissProbUniformSlack(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := q.WaitExceeds(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("point slack: %v, want %v", got, want)
	}
	// Closed form vs numerical integration over U[0.25, 2.5].
	const (
		a, b = 0.25, 2.5
		n    = 200000
	)
	sum := 0.0
	for i := 0; i < n; i++ {
		s := a + (b-a)*(float64(i)+0.5)/n
		sum += q.WaitExceeds(s)
	}
	numeric := sum / n
	got, err = q.MissProbUniformSlack(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-numeric) > 1e-6 {
		t.Errorf("closed form %v vs numeric %v", got, numeric)
	}
}

func TestValidation(t *testing.T) {
	if err := (MM1{Lambda: 1, Mu: 1}).Validate(); err == nil {
		t.Error("rho=1 accepted")
	}
	if err := (MM1{Lambda: -1, Mu: 1}).Validate(); err == nil {
		t.Error("negative lambda accepted")
	}
	if err := (MM1{Lambda: 0.1, Mu: 0}).Validate(); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := (MM1{Lambda: 0.5, Mu: 1}).MissProbUniformSlack(2, 1); err == nil {
		t.Error("inverted slack range accepted")
	}
	if _, err := (MM1{Lambda: 2, Mu: 1}).MissProbUniformSlack(0, 1); err == nil {
		t.Error("unstable queue accepted")
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// Exponential service has E[S²] = 2/µ², where Pollaczek–Khinchine
	// gives the M/M/1 sojourn 1/(µ−λ).
	mm := MM1{Lambda: 0.6, Mu: 1.5}
	mg := MG1{Lambda: 0.6, MeanService: 1 / 1.5, SecondMoment: 2 / (1.5 * 1.5)}
	if err := mg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := mg.MeanSojourn(), mm.MeanSojourn(); math.Abs(got-want) > 1e-12 {
		t.Errorf("M/G/1 sojourn with exponential service = %v, M/M/1 = %v", got, want)
	}
	// Deterministic service halves the M/M/1 queueing delay.
	md := MG1{Lambda: 0.5, MeanService: 1, SecondMoment: 1}
	if got := md.MeanSojourn(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("M/D/1 sojourn = %v, want 1.5", got)
	}
	for _, bad := range []MG1{{Lambda: 1, MeanService: 1, SecondMoment: 1}, {Lambda: 0.5, MeanService: 1, SecondMoment: 0.5}} {
		if bad.Validate() == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

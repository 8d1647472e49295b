package core

// SerialStrategy assigns a virtual deadline to the current stage of a
// serial group at the moment the stage is submitted.
//
// now is the submission time of the stage (ar(Ti) — the completion time
// of the previous stage, or the group's arrival for the first stage);
// groupDeadline is dl(T), the deadline of the enclosing (sub)task; and
// pexRemaining holds the predicted execution times of the current stage
// and every stage after it: pexRemaining[0] = pex(Ti), pexRemaining[1] =
// pex(Ti+1), ... pexRemaining[m-i] = pex(Tm). It is never empty.
//
// Strategies are pure functions of their arguments, so one value can be
// shared by any number of concurrent assignments.
type SerialStrategy interface {
	// StageDeadline returns dl(Ti).
	StageDeadline(now, groupDeadline float64, pexRemaining []float64) float64
	// Name returns the short name used in reports ("UD", "EQF", ...).
	Name() string
}

// sumPex adds up a pex slice.
func sumPex(pexs []float64) float64 {
	sum := 0.0
	for _, p := range pexs {
		sum += p
	}
	return sum
}

// UltimateDeadline is strategy (1), UD: every subtask inherits the global
// deadline, dl(Ti) = dl(T). The execution time of later stages is
// implicitly treated as slack of the current stage, so early stages look
// far less urgent than they are.
type UltimateDeadline struct{}

// StageDeadline implements SerialStrategy.
func (UltimateDeadline) StageDeadline(_, groupDeadline float64, _ []float64) float64 {
	return groupDeadline
}

// Name implements SerialStrategy.
func (UltimateDeadline) Name() string { return "UD" }

// EffectiveDeadline is strategy (2), ED: the global deadline minus the
// predicted execution time of all following stages,
// dl(Ti) = dl(T) − Σ_{j>i} pex(Tj). All remaining slack still goes to the
// current stage.
type EffectiveDeadline struct{}

// StageDeadline implements SerialStrategy.
func (EffectiveDeadline) StageDeadline(_, groupDeadline float64, pexRemaining []float64) float64 {
	return groupDeadline - sumPex(pexRemaining[1:])
}

// Name implements SerialStrategy.
func (EffectiveDeadline) Name() string { return "ED" }

// EqualSlack is strategy (3), EQS: the remaining slack
// dl(T) − ar(Ti) − Σ_{j≥i} pex(Tj) is divided evenly among the remaining
// stages:
//
//	dl(Ti) = ar(Ti) + pex(Ti) + slack/(m−i+1).
type EqualSlack struct{}

// StageDeadline implements SerialStrategy.
func (EqualSlack) StageDeadline(now, groupDeadline float64, pexRemaining []float64) float64 {
	slack := groupDeadline - now - sumPex(pexRemaining)
	return now + pexRemaining[0] + slack/float64(len(pexRemaining))
}

// Name implements SerialStrategy.
func (EqualSlack) Name() string { return "EQS" }

// EqualFlexibility is strategy (4), EQF: the remaining slack is divided
// among remaining stages in proportion to their predicted execution
// times, giving every remaining stage the same flexibility sl/pex:
//
//	dl(Ti) = ar(Ti) + pex(Ti) + slack·pex(Ti)/Σ_{j≥i} pex(Tj).
type EqualFlexibility struct{}

// StageDeadline implements SerialStrategy.
func (EqualFlexibility) StageDeadline(now, groupDeadline float64, pexRemaining []float64) float64 {
	return eqf(now, groupDeadline, pexRemaining[0], sumPex(pexRemaining), len(pexRemaining))
}

// eqf is EQF for a current stage of predicted time first among n
// remaining stages whose predicted times sum to total.
func eqf(now, groupDeadline, first, total float64, n int) float64 {
	slack := groupDeadline - now - total
	if total <= 0 {
		// Degenerate prediction: fall back to equal division (EQS) to
		// stay well-defined.
		return now + first + slack/float64(n)
	}
	return now + first + slack*first/total
}

// Name implements SerialStrategy.
func (EqualFlexibility) Name() string { return "EQF" }

// ArtificialStages wraps a base strategy and pretends the serial group
// has extra trailing stages of the group's average predicted length. The
// paper's section 7 proposes this trick to damp slack variability: tight
// tasks get less of the remaining slack up front, loose tasks keep a
// reserve. Extra = 0 behaves exactly like the base strategy.
type ArtificialStages struct {
	// Base is the wrapped strategy (typically EqualFlexibility).
	Base SerialStrategy
	// Extra is the number of phantom stages appended to the remaining
	// pex vector.
	Extra int
}

// StageDeadline implements SerialStrategy.
func (a ArtificialStages) StageDeadline(now, groupDeadline float64, pexRemaining []float64) float64 {
	if a.Extra <= 0 {
		return a.Base.StageDeadline(now, groupDeadline, pexRemaining)
	}
	sum := sumPex(pexRemaining)
	avg := sum / float64(len(pexRemaining))
	if _, ok := a.Base.(EqualFlexibility); ok {
		// The registry's only base: pad the sum, not a copied vector, so
		// a stage release allocates nothing. Adding avg Extra times in
		// order is exactly sumPex over the padded vector below.
		total := sum
		for i := 0; i < a.Extra; i++ {
			total += avg
		}
		return eqf(now, groupDeadline, pexRemaining[0], total, len(pexRemaining)+a.Extra)
	}
	padded := make([]float64, len(pexRemaining), len(pexRemaining)+a.Extra)
	copy(padded, pexRemaining)
	for i := 0; i < a.Extra; i++ {
		padded = append(padded, avg)
	}
	// The phantom stages claim part of the slack but their "deadline
	// budget" stays inside dl(T): we only use the padded vector for the
	// division, not for the budget itself.
	return a.Base.StageDeadline(now, groupDeadline, padded)
}

// Name implements SerialStrategy.
func (a ArtificialStages) Name() string { return a.Base.Name() + "-AS" }

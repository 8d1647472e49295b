package system

// Shape tests assert the paper's qualitative results (the "shape" of
// every figure) at a reduced horizon. Thresholds are deliberately
// generous: they must fail if a strategy or the queueing model is broken,
// not if the sampling noise moves a point by a percentage point.
// The experiment registry (internal/experiment, sdasim -exp) reproduces
// the precise measured values.

import (
	"math"
	"testing"

	"repro/internal/workload"
)

const shapeHorizon = 60000

func runShape(t *testing.T, cfg Config) *Metrics {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sspConfig(ssp string, load float64) Config {
	cfg := Baseline()
	cfg.Horizon = shapeHorizon
	cfg.SSP = ssp
	cfg.Load = load
	return cfg
}

// TestShapeFig2Baseline reproduces Fig. 2 at load 0.5: global tasks under
// UD miss about 40% vs 24% for locals; ED lies between UD and EQF;
// EQS ≈ EQF; the SSP strategy barely affects local tasks.
func TestShapeFig2Baseline(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	results := make(map[string]*Metrics, 4)
	for _, ssp := range []string{"UD", "ED", "EQS", "EQF"} {
		results[ssp] = runShape(t, sspConfig(ssp, 0.5))
	}

	// Paper points A and B: MDglobal(UD) ~ 40%, MDlocal(UD) ~ 24%.
	if got := results["UD"].MDGlobal(); got < 30 || got > 50 {
		t.Errorf("MDglobal(UD) = %.1f%%, paper reports about 40%%", got)
	}
	if got := results["UD"].MDLocal(); got < 17 || got > 31 {
		t.Errorf("MDlocal(UD) = %.1f%%, paper reports about 24%%", got)
	}
	// Global tasks are "second-class citizens" under UD.
	if results["UD"].MDGlobal() < 1.4*results["UD"].MDLocal() {
		t.Errorf("MDglobal(UD)=%.1f%% not clearly above MDlocal(UD)=%.1f%%",
			results["UD"].MDGlobal(), results["UD"].MDLocal())
	}
	// Ordering on global tasks: UD > ED > EQF, and EQS close to EQF.
	ud, ed := results["UD"].MDGlobal(), results["ED"].MDGlobal()
	eqs, eqf := results["EQS"].MDGlobal(), results["EQF"].MDGlobal()
	if !(ud > ed && ed > eqf) {
		t.Errorf("global ordering broken: UD=%.1f ED=%.1f EQF=%.1f (want UD > ED > EQF)", ud, ed, eqf)
	}
	if math.Abs(eqs-eqf) > 5 {
		t.Errorf("EQS=%.1f%% and EQF=%.1f%% should be close", eqs, eqf)
	}
	// Local tasks barely react to the SSP strategy (75% of their
	// contention is local-local).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range results {
		lo = math.Min(lo, m.MDLocal())
		hi = math.Max(hi, m.MDLocal())
	}
	if hi-lo > 4 {
		t.Errorf("MDlocal spread %.1f pp across SSP strategies, want < 4", hi-lo)
	}
}

// TestShapeFig2LowLoad reproduces the light-load end of Fig. 2: hardly
// any deadline is missed and strategies are indistinguishable.
func TestShapeFig2LowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	ud := runShape(t, sspConfig("UD", 0.1))
	eqf := runShape(t, sspConfig("EQF", 0.1))
	if got := ud.MDGlobal(); got > 5 {
		t.Errorf("MDglobal(UD) at load 0.1 = %.1f%%, want < 5%%", got)
	}
	if diff := math.Abs(ud.MDGlobal() - eqf.MDGlobal()); diff > 2.5 {
		t.Errorf("strategy gap at light load = %.1f pp, want negligible", diff)
	}
}

// TestShapeFig3 reproduces Fig. 3: as frac_local grows, MDglobal(UD)
// rises (globals face ever more discrimination), MDlocal(UD) rises
// mildly, and both EQF curves stay nearly flat.
func TestShapeFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	at := func(ssp string, frac float64) *Metrics {
		cfg := sspConfig(ssp, 0.5)
		cfg.FracLocal = frac
		return runShape(t, cfg)
	}
	udLo, udHi := at("UD", 0.25), at("UD", 0.95)
	eqfLo, eqfHi := at("EQF", 0.25), at("EQF", 0.95)

	rise := udHi.MDGlobal() - udLo.MDGlobal()
	if rise < 4 {
		t.Errorf("MDglobal(UD) rose only %.1f pp from frac_local 0.25 to 0.95, want a clear rise", rise)
	}
	if udHi.MDLocal() < udLo.MDLocal()-1 {
		t.Errorf("MDlocal(UD) fell from %.1f%% to %.1f%%, paper reports a mild rise",
			udLo.MDLocal(), udHi.MDLocal())
	}
	eqfMove := math.Abs(eqfHi.MDGlobal() - eqfLo.MDGlobal())
	if eqfMove > rise/2 || eqfMove > 6 {
		t.Errorf("MDglobal(EQF) moved %.1f pp, want nearly flat (UD moved %.1f)", eqfMove, rise)
	}
}

func pspConfig(psp string, load float64) Config {
	cfg := PSPBaseline()
	cfg.Horizon = shapeHorizon
	cfg.PSP = psp
	cfg.Load = load
	return cfg
}

// TestShapeFig4 reproduces Fig. 4 and the section 5.3 text: UD lets
// global tasks miss about three times as often as locals; DIV-1 pulls
// the two classes together at a small cost to locals; DIV-2 is barely
// different from DIV-1; GF reduces MDglobal further.
func TestShapeFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	results := make(map[string]*Metrics, 4)
	for _, psp := range []string{"UD", "DIV-1", "DIV-2", "GF"} {
		results[psp] = runShape(t, pspConfig(psp, 0.5))
	}

	ud := results["UD"]
	ratio := ud.MDGlobal() / math.Max(ud.MDLocal(), 1e-9)
	if ratio < 1.8 || ratio > 4.5 {
		t.Errorf("MDglobal/MDlocal under PSP UD = %.2f, paper reports about 3", ratio)
	}
	div1 := results["DIV-1"]
	if gap := math.Abs(div1.MDGlobal() - div1.MDLocal()); gap > 5 {
		t.Errorf("DIV-1 class gap = %.1f pp, want the two curves close", gap)
	}
	if div1.MDGlobal() >= ud.MDGlobal() {
		t.Errorf("DIV-1 MDglobal %.1f%% not below UD's %.1f%%", div1.MDGlobal(), ud.MDGlobal())
	}
	if div1.MDLocal() < ud.MDLocal() {
		t.Errorf("DIV-1 MDlocal %.1f%% below UD's %.1f%%, locals should pay a little",
			div1.MDLocal(), ud.MDLocal())
	}
	div2 := results["DIV-2"]
	if math.Abs(div2.MDGlobal()-div1.MDGlobal()) > 4 {
		t.Errorf("DIV-2 (%.1f%%) and DIV-1 (%.1f%%) global miss should be close at baseline load",
			div2.MDGlobal(), div1.MDGlobal())
	}
	gf := results["GF"]
	if gf.MDGlobal() >= div1.MDGlobal() {
		t.Errorf("GF MDglobal %.1f%% not below DIV-1's %.1f%% (paper: GF reduces it further)",
			gf.MDGlobal(), div1.MDGlobal())
	}
}

// TestShapeCombined reproduces the section 6 experiment: on mixed
// serial-parallel tasks UD-UD misses vastly more global deadlines than
// local ones; EQF or DIV-1 alone help; combined they help most — the
// benefits are additive.
func TestShapeCombined(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	at := func(ssp, psp string) *Metrics {
		cfg := Baseline()
		cfg.Horizon = shapeHorizon
		cfg.Shape = workload.MixedShape{Stages: []int{1, 3, 1}, MeanExec: 1}
		cfg.SSP, cfg.PSP = ssp, psp
		return runShape(t, cfg)
	}
	udud := at("UD", "UD")
	uddiv := at("UD", "DIV-1")
	equd := at("EQF", "UD")
	eqdiv := at("EQF", "DIV-1")

	if udud.MDGlobal() < 1.4*udud.MDLocal() {
		t.Errorf("UD-UD: MDglobal %.1f%% not clearly above MDlocal %.1f%%",
			udud.MDGlobal(), udud.MDLocal())
	}
	if uddiv.MDGlobal() >= udud.MDGlobal() {
		t.Errorf("adding DIV-1 did not help: %.1f%% vs %.1f%%", uddiv.MDGlobal(), udud.MDGlobal())
	}
	if equd.MDGlobal() >= udud.MDGlobal() {
		t.Errorf("adding EQF did not help: %.1f%% vs %.1f%%", equd.MDGlobal(), udud.MDGlobal())
	}
	if !(eqdiv.MDGlobal() < uddiv.MDGlobal() && eqdiv.MDGlobal() < equd.MDGlobal()) {
		t.Errorf("EQF-DIV1 (%.1f%%) should beat either fix alone (%.1f%%, %.1f%%) — additive benefits",
			eqdiv.MDGlobal(), uddiv.MDGlobal(), equd.MDGlobal())
	}
	// With both fixes the classes end up in the same neighborhood.
	if eqdiv.MDGlobal() > 1.6*eqdiv.MDLocal()+2 {
		t.Errorf("EQF-DIV1 leaves MDglobal %.1f%% far above MDlocal %.1f%%",
			eqdiv.MDGlobal(), eqdiv.MDLocal())
	}
}

// TestShapeStageSlackDistribution checks the section 4.2.2 mechanism
// directly: under UD the first stage is released holding the entire
// remaining budget (slack at release far above later stages' residue),
// while EQF hands every stage a comparable share — with later stages
// slightly richer through inheritance ("the rich get richer").
func TestShapeStageSlackDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	ud := runShape(t, sspConfig("UD", 0.5))
	eqf := runShape(t, sspConfig("EQF", 0.5))
	if len(ud.StageSlackByIndex) != 4 || len(eqf.StageSlackByIndex) != 4 {
		t.Fatalf("expected 4 stages, got %d/%d", len(ud.StageSlackByIndex), len(eqf.StageSlackByIndex))
	}
	// UD: stage 1 sees dl(T) − ar − pex(T1): on average 5.5 slack + 3
	// later-stage service times ~ 8.5; the last stage sees only what is
	// left after queueing. The first stage must dwarf the last.
	udFirst := ud.StageSlackByIndex[0].Mean()
	udLast := ud.StageSlackByIndex[3].Mean()
	if udFirst < 1.5*udLast {
		t.Errorf("UD slack at release: stage1 %.2f vs stage4 %.2f, want stage1 to hoard", udFirst, udLast)
	}
	// EQF: stages get comparable shares; no stage sees more than ~3x
	// another's mean.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range eqf.StageSlackByIndex {
		lo = math.Min(lo, w.Mean())
		hi = math.Max(hi, w.Mean())
	}
	if hi > 3*lo {
		t.Errorf("EQF slack spread [%.2f, %.2f] too wide for equal flexibility", lo, hi)
	}
	// And the per-stage virtual misses exist for UD's later stages.
	if ud.StageMissByIndex[3].Value() <= ud.StageMissByIndex[0].Value() {
		t.Errorf("UD stage4 virtual miss %.3f not above stage1 %.3f (later stages should starve)",
			ud.StageMissByIndex[3].Value(), ud.StageMissByIndex[0].Value())
	}
}

// TestShapeModerateSlackSweetSpot checks section 4.3's observation that
// EQF's gains over UD are largest at moderate slack/load: at a very
// light load the strategies tie; at baseline EQF wins by several points.
func TestShapeModerateSlackSweetSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	gain := func(load float64) float64 {
		ud := runShape(t, sspConfig("UD", load))
		eqf := runShape(t, sspConfig("EQF", load))
		return ud.MDGlobal() - eqf.MDGlobal()
	}
	light := gain(0.1)
	moderate := gain(0.5)
	if moderate < 4 {
		t.Errorf("EQF gain at load 0.5 = %.1f pp, want several points", moderate)
	}
	if light > moderate/2 {
		t.Errorf("EQF gain at light load (%.1f pp) should be small next to moderate load (%.1f pp)",
			light, moderate)
	}
}

// TestShapePexErrorRobustness checks section 4.3's claim that random
// error in execution-time predictions does not change the basic
// conclusions: even with a full-magnitude error bound, EQF still beats
// UD clearly.
func TestShapePexErrorRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	ud := runShape(t, sspConfig("UD", 0.5))
	noisy := sspConfig("EQF", 0.5)
	noisy.PexRelErr = 1.0
	eqf := runShape(t, noisy)
	if eqf.MDGlobal() >= ud.MDGlobal()-3 {
		t.Errorf("EQF with 100%% pex error (%.1f%%) no longer clearly beats UD (%.1f%%)",
			eqf.MDGlobal(), ud.MDGlobal())
	}
}

// TestShapeRelFlexSweetSpot checks the slack dimension of the same
// section 4.3 claim: the UD−EQF gap peaks at moderate rel_flex and
// shrinks when slack is very tight (everyone misses) or very loose
// (nobody does).
func TestShapeRelFlexSweetSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	t.Parallel()
	gain := func(relFlex float64) float64 {
		udCfg := sspConfig("UD", 0.5)
		udCfg.RelFlex = relFlex
		eqfCfg := sspConfig("EQF", 0.5)
		eqfCfg.RelFlex = relFlex
		return runShape(t, udCfg).MDGlobal() - runShape(t, eqfCfg).MDGlobal()
	}
	tight := gain(0.25)
	moderate := gain(1)
	loose := gain(4)
	if moderate < 5 {
		t.Errorf("EQF gain at rel_flex 1 = %.1f pp, want several points", moderate)
	}
	if tight > moderate+1 {
		t.Errorf("EQF gain with tight slack (%.1f pp) should not exceed moderate (%.1f pp)", tight, moderate)
	}
	if loose > moderate/2 {
		t.Errorf("EQF gain with loose slack (%.1f pp) should be small next to moderate (%.1f pp)",
			loose, moderate)
	}
}

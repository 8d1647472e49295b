package core

import (
	"fmt"
	"strconv"
	"strings"
)

// SerialByName returns the SSP strategy with the given name. Recognized
// names (case-insensitive): "UD", "ED", "EQS", "EQF", and "EQF-AS<n>"
// for EqualFlexibility wrapped in n artificial stages (e.g. "EQF-AS2").
func SerialByName(name string) (SerialStrategy, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	switch upper {
	case "UD":
		return UltimateDeadline{}, nil
	case "ED":
		return EffectiveDeadline{}, nil
	case "EQS":
		return EqualSlack{}, nil
	case "EQF":
		return EqualFlexibility{}, nil
	}
	if rest, ok := strings.CutPrefix(upper, "EQF-AS"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("core: bad artificial stage count in %q", name)
		}
		if n < len(artificialStages) {
			return artificialStages[n], nil
		}
		return ArtificialStages{Base: EqualFlexibility{}, Extra: n}, nil
	}
	return nil, fmt.Errorf("core: unknown serial (SSP) strategy %q", name)
}

// artificialStages holds EQF-AS0 .. EQF-AS8 already boxed, so the
// per-replication name lookup of an ext-as strategy allocates nothing.
var artificialStages = func() (s [9]SerialStrategy) {
	for n := range s {
		s[n] = ArtificialStages{Base: EqualFlexibility{}, Extra: n}
	}
	return s
}()

// ParallelByName returns the PSP strategy with the given name.
// Recognized names (case-insensitive): "UD", "GF", "DIV-<x>" (also
// "DIV<x>"), and "ADIV<boost>" (e.g. "ADIV4") for AdaptiveDiv.
func ParallelByName(name string) (ParallelStrategy, error) {
	upper := strings.ToUpper(strings.TrimSpace(name))
	switch upper {
	case "UD":
		return ParallelUltimate{}, nil
	case "GF":
		return GlobalsFirst{}, nil
	case "ADIV":
		return AdaptiveDiv{Boost: 1}, nil
	}
	if rest, ok := strings.CutPrefix(upper, "ADIV"); ok {
		boost, err := strconv.ParseFloat(rest, 64)
		if err != nil || boost < 0 {
			return nil, fmt.Errorf("core: bad adaptive boost in %q", name)
		}
		return AdaptiveDiv{Boost: boost}, nil
	}
	if rest, ok := strings.CutPrefix(upper, "DIV"); ok {
		rest = strings.TrimPrefix(rest, "-")
		x, err := strconv.ParseFloat(rest, 64)
		if err != nil || x <= 0 {
			return nil, fmt.Errorf("core: bad divisor in %q", name)
		}
		return Div{X: x}, nil
	}
	return nil, fmt.Errorf("core: unknown parallel (PSP) strategy %q", name)
}

// SerialNames lists the built-in SSP strategy names in the order the
// paper introduces them.
func SerialNames() []string { return []string{"UD", "ED", "EQS", "EQF"} }

// ParallelNames lists the built-in PSP strategy names in the order the
// paper introduces them.
func ParallelNames() []string { return []string{"UD", "DIV-1", "DIV-2", "GF"} }

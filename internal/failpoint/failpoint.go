// Package failpoint is the deterministic fault-injection seam of the
// runtime: named sites compiled permanently into cold paths (the shard
// worker's frame loop, frame I/O, pool acquire) that cost one atomic
// load when nothing is armed, and become delays, hangs, process kills,
// or frame corruption when a chaos run arms them.
//
// Sites are armed by spec — from code (Arm), from the environment
// (REPRO_FAILPOINTS, read at init so re-executed worker processes
// inherit the coordinator's chaos), or from the CLIs' -failpoints
// flag. A spec is a semicolon-separated list:
//
//	seed=42;distrib/worker-loop=kill:p=0.05:max=1;distrib/frame-write=corrupt:p=0.02
//
// Each entry is site=action with optional suffixes:
//
//	hang         the site blocks until Disarm or process exit
//	kill         the process exits immediately (code 7)
//	corrupt      the frame writer scribbles the frame kind, so the
//	             receiver must reject it (distrib/frame-write only)
//	delay(ms)    the site sleeps for the given milliseconds
//	:p=F         trigger probability per evaluation (default 1)
//	:max=N       stop triggering after N hits (default unlimited)
//
// The sites are distrib/worker-loop (a shard worker, before it handles
// each frame), distrib/frame-write and distrib/frame-read (every frame
// sent or read), and session/pool-acquire (each workspace lease). Arm
// rejects any other site name, so a misspelled spec fails instead of
// arming nothing.
//
// Hang, kill and corrupt each print one stderr line when they fire
// ("failpoint: <site>: hanging", "... killing process", "... corrupting
// frame"), so a chaos run can show that its faults were injected.
//
// Probabilistic triggers draw from one process-wide splitmix64 stream
// seeded by seed= (default 1), so a chaos run is reproducible: the
// same spec in the same process produces the same trigger sequence.
// Worker processes inherit the spec through the environment and each
// seed their own identical stream; they diverge only through the
// differing frame traffic each one sees.
//
// The injected failures are inputs the runtime must already tolerate —
// every recovery path (retry, respawn, hedging, in-process fallback)
// preserves bit-identical merged results — so arming failpoints never
// changes what a run computes, only how it gets there.
package failpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar names the environment variable read at init; setting it in a
// coordinator process arms the same spec in every worker process it
// spawns (workers inherit the environment).
const EnvVar = "REPRO_FAILPOINTS"

// sites names every site compiled into the runtime; the value reports
// whether the site applies the corrupt action.
var sites = map[string]bool{
	"distrib/worker-loop":  false,
	"distrib/frame-write":  true,
	"distrib/frame-read":   false,
	"session/pool-acquire": false,
}

// action is what an armed site does when it triggers.
type action uint8

const (
	actNone action = iota // unarmed, or did not trigger
	actHang
	actDelay
	actKill
	actCorrupt
)

// rule is one armed site.
type rule struct {
	action action
	delay  time.Duration
	p      float64 // trigger probability per evaluation
	max    uint64  // hit budget; 0 = unlimited
	hits   uint64
}

var (
	// armed is the zero-overhead gate: every Inject loads it first and
	// returns immediately when false.
	armed atomic.Bool

	mu     sync.Mutex
	rules  map[string]*rule
	rng    uint64 // splitmix64 state, advanced under mu
	hangCh chan struct{}
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Arm(spec); err != nil {
			fmt.Fprintf(os.Stderr, "failpoint: ignoring %s: %v\n", EnvVar, err)
		}
	}
}

// splitmix64 advances the package RNG; mu must be held.
func splitmix64() uint64 {
	rng += 0x9e3779b97f4a7c15
	z := rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Arm parses spec and arms its sites, merging over whatever is already
// armed (seed= resets the RNG stream). An empty spec is a no-op. An
// unknown site, or corrupt on a site that does not apply it, is an
// error, and a spec with any error arms nothing.
func Arm(spec string) error {
	parsed := map[string]*rule{}
	var seed uint64
	var seedSet bool
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("failpoint: entry %q is not site=action", entry)
		}
		site = strings.TrimSpace(site)
		if site == "seed" {
			s, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return fmt.Errorf("failpoint: bad seed %q", rest)
			}
			seed, seedSet = s, true
			continue
		}
		corruptible, known := sites[site]
		if !known {
			return fmt.Errorf("failpoint: unknown site %q", site)
		}
		r, err := parseRule(rest)
		if err != nil {
			return fmt.Errorf("failpoint: site %s: %w", site, err)
		}
		if r.action == actCorrupt && !corruptible {
			return fmt.Errorf("failpoint: site %s does not apply corrupt", site)
		}
		parsed[site] = r
	}
	mu.Lock()
	defer mu.Unlock()
	if rules == nil {
		rules = map[string]*rule{}
	}
	if hangCh == nil {
		hangCh = make(chan struct{})
	}
	for site, r := range parsed {
		rules[site] = r
	}
	if seedSet {
		rng = seed
	} else if rng == 0 {
		rng = 1
	}
	if len(rules) > 0 {
		armed.Store(true)
	}
	return nil
}

// parseRule parses "action[:p=F][:max=N]".
func parseRule(s string) (*rule, error) {
	parts := strings.Split(s, ":")
	r := &rule{p: 1}
	act := strings.TrimSpace(parts[0])
	switch {
	case act == "hang":
		r.action = actHang
	case act == "kill":
		r.action = actKill
	case act == "corrupt":
		r.action = actCorrupt
	case strings.HasPrefix(act, "delay(") && strings.HasSuffix(act, ")"):
		ms, err := strconv.ParseFloat(act[len("delay("):len(act)-1], 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("bad delay %q", act)
		}
		r.action = actDelay
		r.delay = time.Duration(ms * float64(time.Millisecond))
	default:
		return nil, fmt.Errorf("unknown action %q", act)
	}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok {
			return nil, fmt.Errorf("bad option %q", opt)
		}
		switch key {
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("bad probability %q", val)
			}
			r.p = p
		case "max":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad max %q", val)
			}
			r.max = n
		default:
			return nil, fmt.Errorf("unknown option %q", key)
		}
	}
	return r, nil
}

// Disarm clears every armed site, releases hanging sites, and resets
// the RNG stream. It restores the zero-overhead disarmed state.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	rules = nil
	rng = 0
	if hangCh != nil {
		close(hangCh)
		hangCh = nil
	}
}

// eval rolls the site's rule; it returns the action to perform (with
// the rule's delay) or actNone.
func eval(site string) (action, time.Duration, chan struct{}) {
	mu.Lock()
	defer mu.Unlock()
	r := rules[site]
	if r == nil {
		return actNone, 0, nil
	}
	if r.max > 0 && r.hits >= r.max {
		return actNone, 0, nil
	}
	if r.p < 1 {
		// Uniform in [0,1) from the top 53 bits of the stream.
		u := float64(splitmix64()>>11) / (1 << 53)
		if u >= r.p {
			return actNone, 0, nil
		}
	}
	r.hits++
	return r.action, r.delay, hangCh
}

// Inject evaluates site and performs blocking actions itself: delay
// sleeps, hang blocks until Disarm (or process exit), kill exits the
// process with code 7. A corrupt action returns true and the caller
// applies its own site-specific corruption. Disarmed cost: one atomic
// load, zero allocations.
func Inject(site string) (corrupt bool) {
	if !armed.Load() {
		return false
	}
	act, delay, hang := eval(site)
	switch act {
	case actHang:
		fmt.Fprintf(os.Stderr, "failpoint: %s: hanging\n", site)
		if hang != nil {
			<-hang
		}
	case actDelay:
		time.Sleep(delay)
	case actKill:
		fmt.Fprintf(os.Stderr, "failpoint: %s: killing process\n", site)
		os.Exit(7)
	case actCorrupt:
		fmt.Fprintf(os.Stderr, "failpoint: %s: corrupting frame\n", site)
		return true
	}
	return false
}

package netdist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/distrib"
	"repro/internal/system"
)

// FuzzJobSpec feeds arbitrary request bodies through the service's
// decode and buildJob path. It never panics, and every spec it accepts
// validates, stays within the topology limit, and encodes for the wire
// and the cache key.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		burstSpec,
		`{"preset":"burst","horizon":100,"nodes":0,"load":0,"reps":1,"parallelism":0}`,
		`{"preset":"burst","horizon":-3}`,
		`{"preset":"burst","nodes":-3}`,
		`{"preset":"burst","load":-3}`,
		`{"preset":"burst","reps":-3}`,
		`{"preset":"burst","parallelism":-3}`,
		fmt.Sprintf(`{"horizon":10,"nodes":%d,"reps":1}`, system.MaxNodes+1),
		`{"preset":"burst","spec":{"name":"x"},"horizon":100}`,
		`{"preset":"nope","horizon":100}`,
		`{"presett":"burst"}`,
		`{"preset":`,
	} {
		f.Add([]byte(body))
	}
	decode := func(body []byte) (spec JobSpec, err error) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return spec, dec.Decode(&spec)
	}
	// Specs naming the removed "queue" field must stay rejected.
	for _, body := range []string{
		`{"preset":"burst","horizon":100,"queue":"treap"}`,
		`{"spec":{"name":"s","phases":[{"duration":10,"rate":2},{"duration":0,"rate":1}]},"horizon":50,"queue":"ladder"}`,
	} {
		if _, err := decode([]byte(body)); err == nil {
			f.Fatalf("spec with a queue field decoded: %s", body)
		}
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decode(body)
		if err != nil {
			return
		}
		cfg, job, err := buildJob(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec %+v fails Validate: %v", spec, err)
		}
		if cfg.Nodes > system.MaxNodes {
			t.Fatalf("accepted spec has %d nodes, limit %d", cfg.Nodes, system.MaxNodes)
		}
		if job.Reps < 0 {
			t.Fatalf("accepted spec has %d reps", job.Reps)
		}
		if _, err := distrib.ToWire(cfg); err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		if _, err := distrib.ConfigFingerprint(cfg); err != nil {
			t.Fatalf("accepted spec %+v has no fingerprint: %v", spec, err)
		}
	})
}

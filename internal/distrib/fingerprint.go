package distrib

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"

	"repro/internal/system"
)

// fingerprintEnvelope pins the fingerprint's hash layout. Rev is bumped
// whenever the encoding (or the meaning of any encoded field) changes,
// so entries cached under an older layout can never alias a newer one.
type fingerprintEnvelope struct {
	Rev    uint32
	Config WireConfig
}

// ConfigFingerprint returns a stable content hash identifying every
// result-relevant knob of cfg — the identity under which warm sessions
// and cached shard results are keyed. Two configurations that are
// semantically identical (including ones differing only in Seed or in
// an attached progress hook: seeds are the cache key's other dimension)
// hash identically; changing any knob yields a different fingerprint.
// That includes knobs like EventQueue and DisablePooling whose
// alternatives are provably (or by-test) byte-identical: the
// cache trades a few redundant misses for zero risk of serving results
// across a semantic boundary.
//
// The hash is computed over the gob encoding of the wire configuration
// (scenarios travel as their declarative Spec — slices and scalars
// only, so the encoding is deterministic) inside a versioned envelope.
// Configurations that cannot cross a process boundary (ErrNotWirable:
// attached trace recorder, unregistered Shape/Demand) cannot be
// fingerprinted either — callers bypass caching for those.
func ConfigFingerprint(cfg system.Config) (string, error) {
	wc, err := ToWire(cfg)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(fingerprintEnvelope{Rev: 2, Config: wc}); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

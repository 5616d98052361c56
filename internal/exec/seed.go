package exec

import (
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// hashSeed is the process-wide group-hash seed, mixed into every group-table
// hash (hashRow for wide keys, mixKey for packed ones). Randomizing it per process means an adversarial or pathological
// key set tuned against the hash function cannot reproduce its collisions
// across runs, so groupHash probing cannot be degraded to O(n) chains by
// construction. Operators snapshot the seed when they build their rowReader,
// so a scan never pays an atomic load per row.
var hashSeed atomic.Uint64

func init() {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err == nil {
		hashSeed.Store(binary.LittleEndian.Uint64(buf[:]))
	}
	// On entropy failure the seed stays 0 — the historical fixed-seed
	// behavior — rather than aborting process start.
}

// SetHashSeed overrides the process group-hash seed and returns the previous
// value. It exists for tests that need reproducible hash layouts (seed 0
// reproduces the historical fixed-constant behavior); production code should
// leave the randomized seed alone.
func SetHashSeed(seed uint64) (prev uint64) {
	return hashSeed.Swap(seed)
}

// HashSeed returns the current process group-hash seed.
func HashSeed() uint64 { return hashSeed.Load() }

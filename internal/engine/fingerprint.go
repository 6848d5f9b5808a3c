package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"

	"repro/internal/cg"
)

// Fingerprint is a canonical content hash of a constraint graph: two
// graphs share a fingerprint exactly when they have the same vertex list
// (names and delays, in ID order) and the same edge list (endpoints,
// kinds, weights, and unboundedness, in insertion order). Everything the
// scheduling pipeline reads — feasibility (Theorem 1), well-posedness
// (Theorem 2), anchor sets (Definitions 4/9/11), longest paths, and the
// minimum relative schedule itself — is a pure function of exactly this
// content, so the fingerprint is a sound memoization key for all of them.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex for logs and JSON artifacts.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fpHasher is a reusable fingerprinting state: the SHA-256 state plus
// the staging buffers that keep every Write on stack-owned memory. The
// pool amortizes the hash-state allocation across jobs, so sustained
// intake (serve's workers, batch streams) hashes thousands of graphs
// without per-graph allocation.
type fpHasher struct {
	h       hash.Hash
	buf     [8]byte
	scratch [64]byte // chunk buffer for string writes, see writeStr
}

var fpHasherPool = sync.Pool{
	New: func() any { return &fpHasher{h: sha256.New()} },
}

func (fh *fpHasher) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(fh.buf[:], v)
	fh.h.Write(fh.buf[:])
}

// writeStr hashes a length-prefixed string by copying it through the
// fixed scratch buffer: a direct h.Write([]byte(s)) conversion escapes
// through the hash.Hash interface and allocates per call; the copy stays
// on the hasher.
func (fh *fpHasher) writeStr(s string) {
	fh.writeU64(uint64(len(s)))
	for len(s) > 0 {
		n := copy(fh.scratch[:], s)
		fh.h.Write(fh.scratch[:n])
		s = s[n:]
	}
}

// FingerprintOf computes the canonical fingerprint of a graph by hashing
// its full structural content. Cost is O(|V|+|E|) — far below the
// O(|A|·|V|·|E|) Bellman–Ford work it lets the engine skip — but callers
// that schedule the same *cg.Graph value repeatedly should prefer
// Engine-internal lookups, which memoize the hash per (graph, generation)
// pair and make the steady-state cost O(1). Allocation-free: the hash
// state is pooled and the digest lands in the returned value (pinned by
// TestFingerprintOfZeroAlloc).
func FingerprintOf(g *cg.Graph) Fingerprint {
	fh := fpHasherPool.Get().(*fpHasher)
	fh.h.Reset()
	fh.writeU64(uint64(g.N()))
	for _, v := range g.Vertices() {
		fh.writeStr(v.Name)
		if v.Delay.Bounded() {
			fh.writeU64(1)
			fh.writeU64(uint64(v.Delay.Value()))
		} else {
			fh.writeU64(0)
		}
	}
	fh.writeU64(uint64(g.M()))
	for _, e := range g.Edges() {
		fh.writeU64(uint64(e.From))
		fh.writeU64(uint64(e.To))
		fh.writeU64(uint64(e.Kind))
		fh.writeU64(uint64(int64(e.Weight)))
		if e.Unbounded {
			fh.writeU64(1)
		} else {
			fh.writeU64(0)
		}
	}
	// Sum into the hasher's scratch, not the local f: a local slice
	// passed through the hash.Hash interface escapes and costs the one
	// allocation the pool exists to avoid.
	var f Fingerprint
	copy(f[:], fh.h.Sum(fh.scratch[:0]))
	fpHasherPool.Put(fh)
	return f
}

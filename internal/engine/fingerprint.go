package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// fpBufPool holds the buffers FingerprintOf lays a graph's content out
// in, so sustained intake (serve's workers, batch streams) hashes
// thousands of graphs without per-graph allocation. A new buffer starts
// at 4 KiB, a graph of about 60 vertices.
var fpBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// FingerprintOf computes the canonical fingerprint of a graph by hashing
// its full structural content. Cost is O(|V|+|E|) — far below the
// O(|A|·|V|·|E|) Bellman–Ford work it lets the engine skip — but callers
// that schedule the same *cg.Graph value repeatedly should prefer
// Engine-internal lookups, which keep the digest on the graph until its
// next mutation and make the steady-state cost O(1).
//
// The hashed stream is little-endian 64-bit words: |V|; per vertex its
// name's length, the name's bytes, then 1 and the delay for a bounded
// vertex or 0 for an unbounded one; |E|; per edge From, To, Kind, Weight
// and 1 or 0 for Unbounded. It is laid out in one pooled buffer and
// hashed in one sha256.Sum256 call, so the function allocates nothing in
// steady state (pinned by TestFingerprintOfZeroAlloc).
func FingerprintOf(g *cg.Graph) Fingerprint {
	bp := fpBufPool.Get().(*[]byte)
	le := binary.LittleEndian
	b := le.AppendUint64((*bp)[:0], uint64(g.N()))
	for _, v := range g.Vertices() {
		b = le.AppendUint64(b, uint64(len(v.Name)))
		b = append(b, v.Name...)
		if v.Delay.Bounded() {
			b = le.AppendUint64(b, 1)
			b = le.AppendUint64(b, uint64(v.Delay.Value()))
		} else {
			b = le.AppendUint64(b, 0)
		}
	}
	b = le.AppendUint64(b, uint64(g.M()))
	for _, e := range g.Edges() {
		b = le.AppendUint64(b, uint64(e.From))
		b = le.AppendUint64(b, uint64(e.To))
		b = le.AppendUint64(b, uint64(e.Kind))
		b = le.AppendUint64(b, uint64(int64(e.Weight)))
		if e.Unbounded {
			b = le.AppendUint64(b, 1)
		} else {
			b = le.AppendUint64(b, 0)
		}
	}
	f := Fingerprint(sha256.Sum256(b))
	*bp = b
	fpBufPool.Put(bp)
	return f
}

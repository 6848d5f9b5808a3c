package relsched

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cg"
)

// NoOffset is the sentinel stored where a vertex has no offset with
// respect to an anchor (the anchor is not in the vertex's anchor set).
const NoOffset = cg.Unreachable

// AnchorMode selects which anchor set defines the offsets a consumer reads
// from a Schedule: the full anchor set A(v), the relevant set R(v), or the
// irredundant set IR(v). Theorems 4 and 6 guarantee identical start times
// under all three; the smaller sets yield cheaper control.
type AnchorMode int

const (
	// FullAnchors uses A(v) (Definition 4).
	FullAnchors AnchorMode = iota
	// RelevantAnchors uses R(v) (Definition 9).
	RelevantAnchors
	// IrredundantAnchors uses IR(v) (Definition 11) — the minimum set.
	IrredundantAnchors
)

// String names the mode.
func (m AnchorMode) String() string {
	switch m {
	case FullAnchors:
		return "full"
	case RelevantAnchors:
		return "relevant"
	case IrredundantAnchors:
		return "irredundant"
	}
	return fmt.Sprintf("AnchorMode(%d)", int(m))
}

// Schedule is a minimum relative schedule: for every vertex, the minimum
// offset from each anchor in its anchor set (Definition 5). Offsets are
// stored against the full anchor sets; the Relevant/Irredundant modes are
// projections.
type Schedule struct {
	// G is the scheduled (well-posed) constraint graph.
	G *cg.Graph
	// Info is the anchor-set analysis of G.
	Info *AnchorInfo
	// Iterations is the number of IncrementalOffset invocations the
	// scheduler used; Theorem 8 bounds it by L+1 ≤ |E_b|+1.
	Iterations int

	// cols is the σ table, stored by vertex as packed columns of the
	// defined offsets (see sigmaTable). A cold compute iterates in a pooled
	// dense arena and then carves every column out of one exactly-sized
	// flat arena of pairs — see docs/PERFORMANCE.md. Apply shares the base
	// schedule's columns, replaces only those of the vertices whose offsets
	// an edit moves, and grows the table by one column for an inserted
	// vertex (column-granular copy-on-write — see docs/INCREMENTAL.md), so a
	// delta's cost is proportional to its cone, not to the table size.
	// cols.n is the schedule's own vertex count; once a newer schedule in
	// the delta chain inserts a vertex, the live graph has more.
	cols sigmaTable

	// hooks are the trace hooks the schedule was computed with. Derived
	// schedules (Apply, the WithMax/WithMinConstraint probes) inherit
	// them, so incremental re-schedules are traced like the cold path
	// that produced the base — see docs/INCREMENTAL.md.
	hooks *Hooks

	// room reports that the schedule holds its chain's claim on the room
	// past the ends of its per-vertex analysis tables (Info.Full, Relevant
	// and Irredundant) and of its last chunk of σ headers, so an insert
	// appends there in place instead of copying them. An insert that copies them allocates the room and
	// takes the claim, derive passes it to the derived schedule, and nothing
	// else holds it — not a cold schedule, whose tables an analysis may
	// share, and not a Fork — so the room is written by one chain only, and
	// no schedule reads past its own length.
	room bool

	// gen is the graph generation this schedule describes. Apply demands
	// gen == G.Generation(): in a chain of deltas only the newest
	// schedule matches the live graph, and applying to a stale one would
	// silently drop the edits that came after it (ErrStaleSchedule).
	gen uint64
}

// sigmaChunkBits sets how many σ columns share one chunk of headers in a
// sigmaTable: 1<<8.
const sigmaChunkBits = 8

// sigmaEntry is one defined offset of a σ column: σ_a(v) = off for the
// anchor a of index ai.
type sigmaEntry struct {
	ai  int
	off int
}

// sigmaTable is the σ table stored by vertex: col(v) holds v's defined
// offsets as (anchor index, offset) pairs in strictly ascending anchor
// order, and NoOffset is never stored, so a column costs what v's offsets
// are, not |A| — anchor sets are small (Table III). The column headers
// sit in chunks of 1<<sigmaChunkBits, so the copy-on-write of one column
// copies the column, its chunk of headers and the chunk index —
// O(|col| + 256 + |V|/256) — instead of one header per vertex of the graph.
type sigmaTable struct {
	chunks [][][]sigmaEntry
	n      int
}

// col returns vertex v's column.
func (t sigmaTable) col(v int) []sigmaEntry {
	return t.chunks[v>>sigmaChunkBits][v&(1<<sigmaChunkBits-1)]
}

// at returns σ for anchor index ai at vertex v, or NoOffset when v's
// column holds no pair for ai.
func (t sigmaTable) at(v, ai int) int {
	c := t.col(v)
	if k := search(c, ai); k < len(c) && c[k].ai == ai {
		return c[k].off
	}
	return NoOffset
}

// search returns the position in column c of anchor index ai: the index of
// its pair, or where that pair would be inserted.
func search(c []sigmaEntry, ai int) int {
	lo, hi := 0, len(c)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c[m].ai < ai {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// packCols packs a vertex-major arena of nV·nA offsets into σ columns.
// active has v's bit ai set exactly where off holds a defined offset — the
// active-anchor bitset the sweeps keep — so the pairs are found by walking
// set bits, never by scanning all nV·nA cells. The columns are carved from
// one exactly-sized arena; each one's capacity ends at its own length, so
// no append through one column can write into the next.
func packCols(off []int, active []uint64, nA, nV int) sigmaTable {
	wpa := (nA + 63) / 64
	total := 0
	for _, word := range active[:nV*wpa] {
		total += bits.OnesCount64(word)
	}
	pairs := make([]sigmaEntry, total)
	hdr := make([][]sigmaEntry, nV)
	k := 0
	for v := range hdr {
		lo, row := k, off[v*nA:(v+1)*nA]
		for wi, word := range active[v*wpa : (v+1)*wpa] {
			for word != 0 {
				ai := wi<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				pairs[k] = sigmaEntry{ai, row[ai]}
				k++
			}
		}
		hdr[v] = pairs[lo:k:k]
	}
	t := sigmaTable{chunks: make([][][]sigmaEntry, (nV+1<<sigmaChunkBits-1)>>sigmaChunkBits), n: nV}
	for c := range t.chunks {
		lo, hi := c<<sigmaChunkBits, min((c+1)<<sigmaChunkBits, nV)
		t.chunks[c] = hdr[lo:hi:hi]
	}
	return t
}

// definedBits returns the defined-offset bitset of a vertex-major arena of
// nV·nA offsets, for the arenas that do not come with the sweeps' own (the
// decomposition baseline and the reference oracle).
func definedBits(off []int, nA, nV int) []uint64 {
	wpa := (nA + 63) / 64
	active := make([]uint64, nV*wpa)
	for i, o := range off {
		if o != NoOffset {
			v, ai := i/nA, i%nA
			active[v*wpa+ai>>6] |= uint64(1) << uint(ai&63)
		}
	}
	return active
}

// newSchedule packs the converged arena off, whose defined cells active
// marks, into a Schedule of info's graph, and completes the analysis with
// the irredundant sets, read from off by direct indexing.
func newSchedule(info *AnchorInfo, iters int, off []int, active []uint64, h *Hooks) *Schedule {
	g := info.G
	s := &Schedule{G: g, Iterations: iters, cols: packCols(off, active, len(info.List), g.N()), hooks: h, gen: g.Generation()}
	s.Info = info.withIrredundant(off, g.N())
	return s
}

// Offset returns the minimum offset σ_a(v) of vertex v with respect to
// anchor a (Definition 5) under the given mode. ok is false when a is not in v's anchor
// set for that mode, a is not an anchor at all, or v is a vertex a newer
// schedule of the delta chain inserted.
func (s *Schedule) Offset(a, v cg.VertexID, mode AnchorMode) (offset int, ok bool) {
	ai, isAnchor := s.Info.Index[a]
	if !isAnchor {
		return 0, false
	}
	return s.OffsetAt(ai, v, mode)
}

// OffsetAt is Offset with the anchor given by its index in Info.List,
// which spares a per-call map lookup to readers that walk the anchors in
// order. ai must index Info.List.
func (s *Schedule) OffsetAt(ai int, v cg.VertexID, mode AnchorMode) (offset int, ok bool) {
	if int(v) >= s.cols.n || !s.inMode(ai, v, mode) {
		return 0, false
	}
	return s.cols.at(int(v), ai), true
}

// NumVertices returns the number of vertices the schedule covers. It
// equals G.N() until a newer schedule of the delta chain inserts a vertex
// into the shared graph; readers that walk vertices stop here.
func (s *Schedule) NumVertices() int { return s.cols.n }

func (s *Schedule) inMode(ai int, v cg.VertexID, mode AnchorMode) bool {
	return s.Info.Sets(mode)[v].Has(ai)
}

// MaxOffset returns σ_a^max — the maximum offset of any vertex with
// respect to anchor a under the given mode (Section VI). The second result
// is false when no vertex references a under that mode.
func (s *Schedule) MaxOffset(a cg.VertexID, mode AnchorMode) (int, bool) {
	ai, isAnchor := s.Info.Index[a]
	if !isAnchor {
		return 0, false
	}
	maxOff, any := 0, false
	for v := 0; v < s.cols.n; v++ {
		if !s.inMode(ai, cg.VertexID(v), mode) {
			continue
		}
		any = true
		if o := s.cols.at(v, ai); o > maxOff {
			maxOff = o
		}
	}
	return maxOff, any
}

// SumOfMaxOffsets returns Σ_a σ_a^max over all anchors under the given
// mode — the Table IV cost figure that tracks control complexity.
func (s *Schedule) SumOfMaxOffsets(mode AnchorMode) int {
	sum := 0
	for _, a := range s.Info.List {
		if m, ok := s.MaxOffset(a, mode); ok {
			sum += m
		}
	}
	return sum
}

// GlobalMaxOffset returns max_a σ_a^max — the largest per-anchor maximum
// offset of Definition 5 — under the given mode.
func (s *Schedule) GlobalMaxOffset(mode AnchorMode) int {
	gm := 0
	for _, a := range s.Info.List {
		if m, ok := s.MaxOffset(a, mode); ok && m > gm {
			gm = m
		}
	}
	return gm
}

// Compute runs the full relative-scheduling pipeline of Section IV on g:
// feasibility check (Theorem 1), well-posedness check (Theorem 2),
// anchor-set analysis including redundancy removal (Theorems 4–6), and
// iterative incremental scheduling (Theorem 8). It returns ErrUnfeasible,
// an *IllPosedError, or ErrInconsistent when no minimum relative schedule
// exists. The input graph must be well-posed; use MakeWellPosed first to
// repair ill-posed graphs.
func Compute(g *cg.Graph) (*Schedule, error) {
	if err := CheckWellPosed(g); err != nil {
		return nil, err
	}
	info, err := Analyze(g)
	if err != nil {
		return nil, err
	}
	return schedule(info, nil)
}

// ComputeFromAnalysis runs the iterative incremental scheduling of
// Theorem 8 against an existing anchor-set analysis, skipping the
// well-posedness re-check. The graph behind info must be well-posed; use
// Compute when in doubt. h, when non-nil, observes the relaxation loop
// (see Hooks). This entry point exists for callers that already hold
// the analysis (the engine, benchmarks, conflict-resolution search).
func ComputeFromAnalysis(info *AnchorInfo, h *Hooks) (*Schedule, error) {
	return schedule(info, h)
}

// sigma returns the current offset of v relative to anchor index ai. ok is
// false while no path from the anchor has valued v yet (or none exists).
// σ_a(a) is normalized to 0.
func (s *Schedule) sigma(ai int, v cg.VertexID) (int, bool) {
	if o := s.cols.at(int(v), ai); o != NoOffset {
		return o, true
	}
	return 0, false
}

// scratch is the reusable cold-path working set: the flat offset arena the
// scheduler iterates in and the per-vertex active-anchor bitset of the
// sweeps. Both recycle through schedulePool whether the schedule succeeds
// or fails — a schedule keeps only the packed columns — which keeps the
// per-job steady-state allocation count flat (pinned by the AllocsPerRun
// test in differential_test.go).
type scratch struct {
	off    []int
	active []uint64
}

// schedulePool recycles scratch structs across schedule invocations on all
// goroutines; see docs/PERFORMANCE.md for the lifecycle.
var schedulePool = sync.Pool{New: func() any { return new(scratch) }}

// offsets returns a length-n arena, reusing the pooled allocation when its
// capacity suffices. Contents are undefined; seedOffsets overwrites every
// entry.
func (sc *scratch) offsets(n int) []int {
	if cap(sc.off) < n {
		sc.off = make([]int, n)
	}
	return sc.off[:n]
}

// bitset returns a zeroed length-n word slice, reusing the pooled
// allocation when possible.
func (sc *scratch) bitset(n int) []uint64 {
	if cap(sc.active) < n {
		sc.active = make([]uint64, n)
		return sc.active
	}
	w := sc.active[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

// schedule runs iterative incremental scheduling (§IV-E) against the full
// anchor sets in info, then completes the analysis with the irredundant
// sets the converged offsets define. The graph must already be known
// well-posed. The hook (nilable) observes each relaxation sweep and
// readjustment pass.
func schedule(info *AnchorInfo, h *Hooks) (*Schedule, error) {
	g := info.G
	if g.CSR() == nil {
		// Defensive: every analysis path freezes first, but a
		// hand-constructed AnchorInfo might not have.
		if err := g.Freeze(); err != nil {
			return nil, err
		}
	}
	c := g.CSR()
	nA, nV := len(info.List), g.N()
	wpa := (nA + 63) / 64 // active-bitset words per vertex
	sc := schedulePool.Get().(*scratch)
	off := sc.offsets(nA * nV)
	active := sc.bitset(nV * wpa)
	seedOffsets(off, active, info)
	iters, err := solve(c, off, nA, active, h)
	if err != nil {
		schedulePool.Put(sc)
		return nil, err
	}
	s := newSchedule(info, iters, off, active, h)
	schedulePool.Put(sc)
	return s, nil
}

// seedOffsets fills a zeroed-bitset arena for a cold solve: σ_a(a) = 0
// for every anchor, with its active bit, and NoOffset everywhere else.
// The first forward sweep then values every forward successor of a
// (Definition 3's V_a) in topological order, at or above the offset-0
// floor the paper states for V_a, since forward weights are never
// negative; entries reachable only through backward edges acquire values
// during readjustment, and entries unreachable from the anchor are never
// written.
func seedOffsets(off []int, active []uint64, info *AnchorInfo) {
	nA := len(info.List)
	wpa := (nA + 63) / 64
	for i := range off {
		off[i] = NoOffset
	}
	for ai, a := range info.List {
		off[int(a)*nA+ai] = 0
		active[int(a)*wpa+(ai>>6)] |= uint64(1) << uint(ai&63)
	}
}

// solve iterates IncrementalOffset relaxation sweeps and ReadjustOffset
// passes over the vertex-major arena off until convergence or the
// |E_b|+1 bound of Theorem 8, returning the iterations used. Offsets only
// ever increase, so warm starts are sound (Lemma 8).
//
// Each sweep is one pass over the topo-ordered forward edge arrays,
// visiting at each edge only the anchors with a defined offset at the
// tail, via a per-vertex active-anchor bitset — sparse anchor sets skip
// the |A|-wide inner loop.
func solve(c *cg.CSR, off []int, nA int, active []uint64, h *Hooks) (int, error) {
	maxIter := len(c.BwdFrom) + 1
	for iter := 1; iter <= maxIter; iter++ {
		sweepForward(c, off, nA, active)
		h.relaxationSweep(iter)
		raised := readjust(c, off, nA, active)
		h.readjustment(raised)
		if raised == 0 {
			return iter, nil
		}
	}
	return maxIter, ErrInconsistent
}

// sweepForward is one IncrementalOffset relaxation sweep: the
// topo-ordered forward edges are scanned once, and at each edge only the
// anchors active at the tail are relaxed, from the tail's σ column into
// the head's. A head entry leaving NoOffset activates its bit so later
// edges in the same sweep observe it (the forward edge list is sorted by
// tail rank, so the head's out-edges always come later).
func sweepForward(c *cg.CSR, off []int, nA int, active []uint64) {
	wpa := (nA + 63) / 64
	for k := range c.TopoFrom {
		p := int(c.TopoFrom[k])
		to := int(c.TopoTo[k])
		w := c.TopoW[k]
		pc := off[p*nA : (p+1)*nA]
		tc := off[to*nA : (to+1)*nA]
		base := p * wpa
		toBase := to * wpa
		for wi := 0; wi < wpa; wi++ {
			word := active[base+wi]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				ai := wi<<6 | b
				cur := tc[ai]
				if d := pc[ai] + w; d > cur {
					tc[ai] = d
					if cur == NoOffset {
						active[toBase+wi] |= uint64(1) << uint(b)
					}
				}
			}
		}
	}
}

// readjust is one ReadjustOffset pass over the backward edges,
// raising violated offsets to the minimum satisfying value and returning
// the number of raises (0 = converged). A head at the NoOffset sentinel is
// reachable only through backward edges and acquires its first value (and
// active bit) here.
func readjust(c *cg.CSR, off []int, nA int, active []uint64) int {
	wpa := (nA + 63) / 64
	raised := 0
	for k := range c.BwdFrom {
		tail := int(c.BwdFrom[k])
		head := int(c.BwdTo[k])
		w := c.BwdW[k] // -u ≤ 0
		tc := off[tail*nA : (tail+1)*nA]
		hc := off[head*nA : (head+1)*nA]
		base := tail * wpa
		headBase := head * wpa
		for wi := 0; wi < wpa; wi++ {
			word := active[base+wi]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				ai := wi<<6 | b
				cur := hc[ai]
				if d := tc[ai] + w; d > cur {
					hc[ai] = d
					if cur == NoOffset {
						active[headBase+wi] |= uint64(1) << uint(b)
					}
					raised++
				}
			}
		}
	}
	return raised
}

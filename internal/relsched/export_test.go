package relsched

import (
	"fmt"
	"unsafe"
)

// SharedColumns reports how many of a's σ columns b shares storage with:
// the columns an edit that derived b from a left untouched.
func SharedColumns(a, b *Schedule) int {
	n := 0
	for v := 0; v < a.cols.n && v < b.cols.n; v++ {
		if ca, cb := a.cols.col(v), b.cols.col(v); len(ca) > 0 && len(cb) > 0 && &ca[0] == &cb[0] {
			n++
		}
	}
	return n
}

// SigmaBytes returns the bytes the schedule's σ table holds: the capacity
// of every column, every chunk of column headers and the chunk index.
func SigmaBytes(s *Schedule) int {
	hdr := int(unsafe.Sizeof([]sigmaEntry(nil)))
	n := cap(s.cols.chunks) * hdr
	for _, chunk := range s.cols.chunks {
		n += cap(chunk) * hdr
		for _, c := range chunk {
			n += cap(c) * int(unsafe.Sizeof(sigmaEntry{}))
		}
	}
	return n
}

// CheckColumns reports the first way the schedule's σ table is not in its
// packed form: one column per vertex of the schedule, each strictly
// ascending by anchor index, with no NoOffset stored.
func CheckColumns(s *Schedule) error {
	cols := 0
	for _, chunk := range s.cols.chunks {
		cols += len(chunk)
	}
	if cols != s.NumVertices() {
		return fmt.Errorf("%d σ columns for %d vertices", cols, s.NumVertices())
	}
	for v := 0; v < s.cols.n; v++ {
		for k, e := range s.cols.col(v) {
			if e.off == NoOffset {
				return fmt.Errorf("column %d stores NoOffset for anchor index %d", v, e.ai)
			}
			if k > 0 && e.ai <= s.cols.col(v)[k-1].ai {
				return fmt.Errorf("column %d is not strictly ascending at pair %d (anchor index %d after %d)", v, k, e.ai, s.cols.col(v)[k-1].ai)
			}
		}
	}
	return nil
}

package relsched

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

package core

// rowSpan identifies a contiguous run of one row's stored entries:
// indices kLo..kHi into the factor's ColIdx/Val arrays.
type rowSpan struct {
	row      int
	kLo, kHi int
}

// tileRange is a tile: a slice [lo, hi) of a span list whose total
// nonzero count is about Options.TileSize. Tiles are the scheduling
// granule of the SR method (paper Fig. 5: tiles "can span multiple
// rows").
type tileRange struct {
	lo, hi int
}

// srLevel groups the lower-stage entries whose columns belong to one
// upper level — the subblock L_{k,i} of paper Fig. 5. Each lower row
// contributes at most one span per level, so spans are row-disjoint
// within a level and UPDATE tiles never race. DIVIDE and UPDATE run
// over the same tiles.
type srLevel struct {
	spans []rowSpan
	tiles []tileRange
}

// lowerPlan holds the second-stage structures shared by factorization
// and the triangular solves.
type lowerPlan struct {
	// comp accumulates per-lower-row MILU compensation across phases.
	comp []float64
	// srLevels: one subblock per upper level (SR method only).
	srLevels []srLevel
	// solveSpans cover, per lower row, all its sub-diagonal entries
	// with columns in the upper stage; used by SolveLower's staged
	// spmv-like sweep (the stri structure of paper Section VI).
	solveSpans []rowSpan
}

// buildLowerPlan constructs the lower-stage structures. It is cheap
// for ER (one span per row) and O(nnz of the lower block) for SR.
func (e *Engine) buildLowerPlan() error {
	nUp, n := e.split.NUpper, e.n
	e.lower = &lowerPlan{}
	if n == nUp {
		return nil
	}
	lp := e.lower
	lp.comp = make([]float64, n-nUp)
	lu := e.factor.LU

	// Solve spans: per lower row, the run of entries with col < nUp.
	for r := nUp; r < n; r++ {
		lo, hi := lu.RowPtr[r], lu.RowPtr[r+1]
		k := lo
		for k < hi && lu.ColIdx[k] < nUp {
			k++
		}
		if k > lo {
			lp.solveSpans = append(lp.solveSpans, rowSpan{row: r, kLo: lo, kHi: k})
		}
	}

	if e.method != LowerSR {
		return nil
	}

	// SR subblocks: split each lower row's upper-column entries by the
	// level of the column. Upper levels occupy contiguous new-index
	// column ranges, so a sorted row splits into consecutive spans.
	lp.srLevels = make([]srLevel, e.split.CutLevel)
	ptr := e.split.UpperLvlPtr
	for r := nUp; r < n; r++ {
		lo, hi := lu.RowPtr[r], lu.RowPtr[r+1]
		k := lo
		for l := 0; l < e.split.CutLevel && k < hi; l++ {
			colHi := ptr[l+1]
			if lu.ColIdx[k] >= colHi {
				continue
			}
			start := k
			for k < hi && lu.ColIdx[k] < colHi {
				k++
			}
			lp.srLevels[l].spans = append(lp.srLevels[l].spans,
				rowSpan{row: r, kLo: start, kHi: k})
		}
	}
	for li := range lp.srLevels {
		lvl := &lp.srLevels[li]
		lvl.tiles = makeTiles(lvl.spans, e.opt.TileSize)
	}
	return nil
}

// makeTiles chunks a span list into tiles of roughly tileSize
// nonzeros (at least one span per tile).
func makeTiles(spans []rowSpan, tileSize int) []tileRange {
	if len(spans) == 0 {
		return nil
	}
	if tileSize < 1 {
		tileSize = 1
	}
	var tiles []tileRange
	lo, acc := 0, 0
	for i, sp := range spans {
		acc += sp.kHi - sp.kLo
		if acc >= tileSize {
			tiles = append(tiles, tileRange{lo: lo, hi: i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(spans) {
		tiles = append(tiles, tileRange{lo: lo, hi: len(spans)})
	}
	return tiles
}

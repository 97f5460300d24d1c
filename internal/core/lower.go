package core

// rowSpan identifies a contiguous run of one row's stored entries:
// indices kLo..kHi into the factor's ColIdx/Val arrays.
type rowSpan struct {
	row      int
	kLo, kHi int
}

// tileRange is a tile: a slice [lo, hi) of a level's span list, the
// scheduling granule of the lower stage (paper Fig. 5: tiles "can
// span multiple rows"). A tile always holds whole spans.
type tileRange struct {
	lo, hi int
}

// lowerLevel is one step of the lower stage's plan: spans whose pivot
// rows are all final before the step starts, cut into tiles. Each
// lower row has at most one span per level, so tiles are row-disjoint
// and run concurrently.
type lowerLevel struct {
	spans []rowSpan
	tiles []tileRange
}

// lowerPlan holds the second-stage structures shared by factorization
// and the triangular solves.
type lowerPlan struct {
	// comp accumulates each lower row's MILU compensation from its
	// spans for the row's corner phase.
	comp []float64
	// levels eliminate the lower rows' upper-stage pivots. ER is one
	// level of solveSpans, one span per tile. SR is one level per
	// upper level (the subblock L_{k,i} of paper Fig. 5), in tiles of
	// about Options.tileNnz nonzeros.
	levels []lowerLevel
	// solveSpans cover, per lower row, all its sub-diagonal entries
	// with columns in the upper stage; used by SolveLower's staged
	// spmv-like sweep (the stri structure of paper Section VI).
	solveSpans []rowSpan
}

// buildLowerPlan constructs the lower-stage structures. It is cheap
// for ER (one span per row) and O(nnz of the lower block) for SR.
func (e *Engine) buildLowerPlan() {
	nUp, n := e.split.NUpper, e.n
	e.lower = &lowerPlan{}
	if n == nUp {
		return
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

	if e.method == LowerER {
		lp.levels = []lowerLevel{{spans: lp.solveSpans, tiles: makeTiles(lp.solveSpans, 1)}}
		return
	}

	// SR subblocks: split each lower row's upper-column entries by the
	// level of the column. Upper levels occupy contiguous new-index
	// column ranges, so a sorted row splits into consecutive spans.
	lp.levels = make([]lowerLevel, e.split.CutLevel)
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
			lp.levels[l].spans = append(lp.levels[l].spans,
				rowSpan{row: r, kLo: start, kHi: k})
		}
	}
	for li := range lp.levels {
		lvl := &lp.levels[li]
		lvl.tiles = makeTiles(lvl.spans, e.opt.tileNnz)
	}
}

// makeTiles chunks a span list into tiles of roughly tileNnz nonzeros
// (at least one span per tile).
func makeTiles(spans []rowSpan, tileNnz int) []tileRange {
	var tiles []tileRange
	lo, acc := 0, 0
	for i, sp := range spans {
		acc += sp.kHi - sp.kLo
		if acc >= tileNnz {
			tiles = append(tiles, tileRange{lo: lo, hi: i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(spans) {
		tiles = append(tiles, tileRange{lo: lo, hi: len(spans)})
	}
	return tiles
}

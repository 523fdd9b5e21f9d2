package lp

import "sync"

// workspace is a reusable solve arena: it owns the sparse constraint matrix,
// basis factorization, pricing buffers, and every other piece of scratch
// storage the revised simplex needs, so repeated solves through one
// workspace allocate nothing once the buffers have grown to the model's
// size. A workspace is not safe for concurrent use; Solve draws one per
// call from wsPool. The zero value is ready: buffers grow on first use.
type workspace struct {
	sf   standardForm // CSC matrix, rhs/beta/c, basis — all reused
	fact basisFactor  // LU factors + eta file

	rels     []Rel // per-row relation scratch
	slackCol []int // per-row slack column (or -1) scratch
	artRows  []int // rows needing an artificial
	ubV      []int // model vars with a finite upper bound
	ubW      []float64
	sign     []float64 // per-row ±1 normalization signs
	cursor   []int     // per-column CSC fill cursor
	phase1   []float64 // phase-1 cost vector
	y        []float64 // BTRAN buffer (duals / inverse rows)
	d        []float64 // FTRAN buffer (entering-column spike)
	val      []float64 // column values during extraction
	inBasis  []bool    // column basic-membership flags
}

// wsPool recycles workspaces across solves. Nothing a solve returns aliases
// workspace storage (Solution and its X are fresh), so a workspace goes back
// as soon as the solve ends.
var wsPool = sync.Pool{New: func() any { return &workspace{} }}

func (ws *workspace) growRels(n int) []Rel {
	if cap(ws.rels) < n {
		ws.rels = make([]Rel, n)
	}
	ws.rels = ws.rels[:n]
	return ws.rels
}

func (ws *workspace) growSlack(n int) []int {
	ws.slackCol = grow(ws.slackCol, n)
	return ws.slackCol
}

// growSign returns a length-n row-sign buffer (contents overwritten by the
// standard-form conversion before any read).
func (ws *workspace) growSign(n int) []float64 {
	ws.sign = growF(ws.sign, n)
	return ws.sign
}

// growCursor returns a length-n CSC fill-cursor buffer.
func (ws *workspace) growCursor(n int) []int {
	ws.cursor = grow(ws.cursor, n)
	return ws.cursor
}

// growBool returns a cleared length-n basic-membership buffer.
func (ws *workspace) growBool(n int) []bool {
	if cap(ws.inBasis) < n {
		ws.inBasis = make([]bool, n)
	}
	ws.inBasis = ws.inBasis[:n]
	for i := range ws.inBasis {
		ws.inBasis[i] = false
	}
	return ws.inBasis
}

// costs returns a zeroed length-n cost vector.
func (ws *workspace) costs(n int) []float64 {
	ws.phase1 = growF(ws.phase1, n)
	clearF(ws.phase1)
	return ws.phase1
}

// duals returns a length-n BTRAN buffer (contents undefined; callers
// overwrite every entry before the solve reads it).
func (ws *workspace) duals(n int) []float64 {
	ws.y = growF(ws.y, n)
	return ws.y
}

// spike returns a length-n FTRAN buffer for the entering column.
func (ws *workspace) spike(n int) []float64 {
	ws.d = growF(ws.d, n)
	return ws.d
}

// values returns a zeroed length-n value buffer for solution extraction.
func (ws *workspace) values(n int) []float64 {
	ws.val = growF(ws.val, n)
	clearF(ws.val)
	return ws.val
}

// grow resizes an int scratch slice to length n, reusing capacity.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growF resizes a float64 scratch slice to length n, reusing capacity.
// Contents are unspecified; callers that need zeros clear explicitly.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func clearF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

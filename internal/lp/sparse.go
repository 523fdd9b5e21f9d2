package lp

import "math"

// standardForm is the internal min c'y, Ay = b, y >= 0 representation built
// from a Model. Each model variable maps to either one shifted column
// (finite lb) or a pair of split columns (free variable); finite upper
// bounds become extra LE rows.
//
// The constraint matrix is stored sparse, column-major (CSC): column j's
// entries are rowIdx/vals[colPtr[j]:colPtr[j+1]], built once per conversion
// and never modified afterwards — the revised simplex touches only the
// basis factorization, not the matrix. All backing slices live in the
// owning workspace and are reused across solves.
type standardForm struct {
	colPtr []int
	rowIdx []int
	vals   []float64

	rhs  []float64 // normalized right-hand side (b >= 0), immutable per solve
	beta []float64 // current basic values x_B, maintained by the simplex
	c    []float64 // phase-2 costs per column (length n)
	n    int       // columns excluding artificials
	nArt int       // artificial columns (appended at the end)
	rows int

	basis   []int  // basic column per row
	inBasis []bool // column -> currently basic

	objShift float64 // constant from lb shifting
	// mapping back to model variables:
	posCol []int // column of the positive part of each model var
	negCol []int // column of the negative part, or -1
	lbs    []float64
	flip   bool // true if the model was Maximize (costs were negated)
}

// colDot returns column j of the constraint matrix dotted with y.
func (sf *standardForm) colDot(j int, y []float64) float64 {
	s := 0.0
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		s += sf.vals[k] * y[sf.rowIdx[k]]
	}
	return s
}

// scatterCol expands column j into the dense buffer d (zeroed first).
func (sf *standardForm) scatterCol(j int, d []float64) {
	clearF(d)
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		d[sf.rowIdx[k]] = sf.vals[k]
	}
}

// toStandardForm converts the model into ws's arena. The bool result reports
// trivial infeasibility detected during conversion (e.g., empty constraint
// with an unsatisfiable rhs).
func (m *Model) toStandardForm(ws *workspace) (*standardForm, bool) {
	nv := len(m.vars)
	sf := &ws.sf
	sf.posCol = grow(sf.posCol, nv)
	sf.negCol = grow(sf.negCol, nv)
	sf.lbs = growF(sf.lbs, nv)
	sf.flip = m.sense == Maximize
	sf.objShift = 0

	// Assign structural columns.
	col := 0
	ubV := ws.ubV[:0]
	ubW := ws.ubW[:0]
	for j := range m.vars {
		v := &m.vars[j]
		lb, ub := v.lb, v.ub
		switch {
		case math.IsInf(lb, -1):
			sf.posCol[j] = col
			sf.negCol[j] = col + 1
			sf.lbs[j] = 0
			col += 2
			if !math.IsInf(ub, 1) {
				ubV = append(ubV, j)
				ubW = append(ubW, ub)
			}
		default:
			sf.posCol[j] = col
			sf.negCol[j] = -1
			sf.lbs[j] = lb
			col++
			if !math.IsInf(ub, 1) {
				w := ub - lb
				if w < 0 {
					w = 0
				}
				ubV = append(ubV, j)
				ubW = append(ubW, w)
			}
		}
	}
	ws.ubV, ws.ubW = ubV, ubW
	nStruct := col

	// Count rows: model constraints + finite upper-bound rows.
	rows := len(m.cons) + len(ubV)
	sf.rows = rows
	rhs := growF(sf.rhs, rows)
	rels := ws.growRels(rows)

	// First pass: adjusted right-hand sides, relations, and trivial
	// infeasibility — everything needed to size the matrix (slack and
	// artificial counts) before a single coefficient is written.
	for i := range m.cons {
		con := &m.cons[i]
		b := con.rhs
		for _, t := range con.terms {
			b -= t.Coeff * sf.lbs[t.Var]
		}
		rhs[i] = b
		rels[i] = con.rel
		if len(con.terms) == 0 {
			switch con.rel {
			case LE:
				if b < -eps {
					return nil, true
				}
			case GE:
				if b > eps {
					return nil, true
				}
			case EQ:
				if math.Abs(b) > eps {
					return nil, true
				}
			}
		}
	}
	for k := range ubV {
		i := len(m.cons) + k
		rhs[i] = ubW[k]
		rels[i] = LE
	}

	// Slack/surplus layout and, when requested, the artificial count: a row
	// keeps a slack basis iff its slack coefficient is +1 after the b >= 0
	// normalization, i.e. (LE, b >= 0) or (GE, b < 0). EQ rows and the rest
	// need an artificial.
	slackCol := ws.growSlack(rows)
	nSlack := 0
	for i := 0; i < rows; i++ {
		if rels[i] == EQ {
			slackCol[i] = -1
			continue
		}
		slackCol[i] = nStruct + nSlack
		nSlack++
	}
	total := nStruct + nSlack
	artRows := ws.artRows[:0]
	for i := 0; i < rows; i++ {
		slackPlus := (rels[i] == LE) == (rhs[i] >= 0)
		if slackCol[i] < 0 || !slackPlus {
			artRows = append(artRows, i)
		}
	}
	nArt := len(artRows)
	ws.artRows = artRows
	sf.n = total
	sf.nArt = nArt
	nCols := total + nArt

	// Row signs implement the b >= 0 normalization: structural and slack
	// coefficients of a negative-rhs row are negated at fill time (the
	// artificial block is written un-negated, exactly like the seed solver,
	// which normalized before appending artificials).
	sign := ws.growSign(rows)
	for i := 0; i < rows; i++ {
		if rhs[i] < 0 {
			sign[i] = -1
			rhs[i] = -rhs[i]
		} else {
			sign[i] = 1
		}
	}
	sf.rhs = rhs

	// Costs.
	c := growF(sf.c, total)
	clearF(c)
	objShift := 0.0
	for j := range m.vars {
		coef := m.vars[j].obj
		if sf.flip {
			coef = -coef
		}
		c[sf.posCol[j]] += coef
		if sf.negCol[j] >= 0 {
			c[sf.negCol[j]] -= coef
		}
		objShift += coef * sf.lbs[j]
	}
	sf.c = c
	sf.objShift = objShift

	// CSC assembly, pass 1: entries per column. colPtr doubles as the count
	// buffer (shifted by one so the prefix sum lands in place).
	colPtr := grow(sf.colPtr, nCols+1)
	for i := range colPtr {
		colPtr[i] = 0
	}
	for i := range m.cons {
		for _, t := range m.cons[i].terms {
			colPtr[sf.posCol[t.Var]+1]++
			if nc := sf.negCol[t.Var]; nc >= 0 {
				colPtr[nc+1]++
			}
		}
	}
	for _, vj := range ubV {
		colPtr[sf.posCol[vj]+1]++
		if nc := sf.negCol[vj]; nc >= 0 {
			colPtr[nc+1]++
		}
	}
	for i := 0; i < rows; i++ {
		if slackCol[i] >= 0 {
			colPtr[slackCol[i]+1]++
		}
	}
	for k := range artRows {
		colPtr[total+k+1]++
	}
	for j := 1; j <= nCols; j++ {
		colPtr[j] += colPtr[j-1]
	}
	sf.colPtr = colPtr
	nnz := colPtr[nCols]
	rowIdx := grow(sf.rowIdx, nnz)
	vals := growF(sf.vals, nnz)
	sf.rowIdx, sf.vals = rowIdx, vals

	// Pass 2: fill. Rows are visited in ascending order, so each column's
	// entries come out row-sorted. cursor[j] is the next free slot.
	cursor := ws.growCursor(nCols)
	copy(cursor, colPtr[:nCols])
	put := func(i, j int, v float64) {
		k := cursor[j]
		rowIdx[k] = i
		vals[k] = v
		cursor[j] = k + 1
	}
	for i := range m.cons {
		s := sign[i]
		for _, t := range m.cons[i].terms {
			put(i, sf.posCol[t.Var], t.Coeff*s)
			if nc := sf.negCol[t.Var]; nc >= 0 {
				put(i, nc, -t.Coeff*s)
			}
		}
	}
	for k, vj := range ubV {
		i := len(m.cons) + k
		put(i, sf.posCol[vj], sign[i])
		if nc := sf.negCol[vj]; nc >= 0 {
			put(i, nc, -sign[i])
		}
	}
	for i := 0; i < rows; i++ {
		if sc := slackCol[i]; sc >= 0 {
			v := sign[i]
			if rels[i] == GE {
				v = -v
			}
			put(i, sc, v)
		}
	}
	for k, i := range artRows {
		put(i, total+k, 1)
	}

	// Initial basis: slack where its coefficient is +1, fresh artificials
	// elsewhere (together an identity matrix, so the first factorization is
	// trivial).
	basis := grow(sf.basis, rows)
	inBasis := ws.growBool(nCols)
	sf.inBasis = inBasis
	for i := 0; i < rows; i++ {
		basis[i] = -1
		if sc := slackCol[i]; sc >= 0 {
			v := sign[i]
			if rels[i] == GE {
				v = -v
			}
			if v > 0 {
				basis[i] = sc
				inBasis[sc] = true
			}
		}
	}
	for k, i := range artRows {
		basis[i] = total + k
		inBasis[total+k] = true
	}
	sf.basis = basis
	sf.beta = growF(sf.beta, rows)
	return sf, false
}

package core

import "repro/internal/lp"

// Objective selects the ILP/LP objective formulation (see DESIGN.md §2).
type Objective int

const (
	// ObjectiveLogGain maximizes Σ w(i,k)·z — exactly equivalent to
	// maximizing the achieved chain reliability (gains telescope to
	// log Π R_i). This is the default; the paper's figures report achieved
	// reliability, and under this objective "ILP" is its true optimum.
	ObjectiveLogGain Objective = iota
	// ObjectivePaperCost implements the paper's Eq. (5)–(13) BMCGAP
	// semantics literally: lexicographically maximize the number of packed
	// items, then minimize Σ c(f_i,k)·z, via a dominating per-item reward.
	ObjectivePaperCost
)

// String names the objective for flags and logs.
func (o Objective) String() string {
	switch o {
	case ObjectiveLogGain:
		return "log-gain"
	case ObjectivePaperCost:
		return "paper-cost"
	}
	return "unknown"
}

// builtModel carries the LP/ILP encoding of an instance plus the variable
// maps needed to decode solutions.
type builtModel struct {
	m *lp.Model
	// y[i][b] is the count variable for position i, bin index b.
	y [][]int
	// intVars lists every y variable (the only ones that must be integral).
	intVars []int
}

// buildModel encodes the instance as a linear program:
//
//	max  Σ_i Σ_k w(i,k)·z_{i,k}            (or the paper-cost reward)
//	s.t. Σ_k z_{i,k} = Σ_b y_{i,b}          ∀i   (link: items ↔ placements)
//	     Σ_b y_{i,b} ≤ K_i                  ∀i   (item-schedule length)
//	     Σ_i c_i · y_{i,b(u)} ≤ C'_u        ∀u   (cloudlet capacity, Eq. 9)
//	     0 ≤ z_{i,k} ≤ 1,  0 ≤ y_{i,b} ≤ slots_{i,b}
//
// The per-item/per-bin binary x_{i,k,u} of the paper's formulation is
// aggregated into counts: items of one function are interchangeable (equal
// size, costs depending on k only), so Lemma 4.2's prefix structure lets the
// z-chain price exactly what the x variables would, at a fraction of the
// size. The l-hop constraint (Eq. 12) and capacity-infeasibility constraints
// (Eq. 11/13) are enforced structurally: variables simply do not exist for
// forbidden (position, cloudlet) pairs. Variables and rows are named by
// kind only ("y", "z", "link", "cap"): lp reads names in its panic messages
// alone, so none is formatted per variable.
func buildModel(inst *Instance, obj Objective) *builtModel {
	m := lp.NewModel(lp.Maximize)
	bm := &builtModel{m: m}

	var w float64
	if obj == ObjectivePaperCost {
		w = paperCostDominator(inst)
	}

	bm.y = make([][]int, len(inst.Positions))
	for i, p := range inst.Positions {
		bm.y[i] = make([]int, len(p.Bins))
		var linkTerms []lp.Term
		for b := range p.Bins {
			ub := p.Slots[b]
			if ub > p.K {
				ub = p.K
			}
			v := m.AddVar(0, float64(ub), 0, "y")
			bm.y[i][b] = v
			bm.intVars = append(bm.intVars, v)
			linkTerms = append(linkTerms, lp.Term{Var: v, Coeff: -1})
		}
		for k := 1; k <= p.K; k++ {
			reward := p.Gains[k-1]
			if obj == ObjectivePaperCost {
				reward = w - p.Costs[k-1]
			}
			v := m.AddVar(0, 1, reward, "z")
			linkTerms = append(linkTerms, lp.Term{Var: v, Coeff: 1})
		}
		// The link row both ties placements to priced items and enforces
		// Σ_b y ≤ K_i (there are only K_i unit-capped z variables).
		if len(linkTerms) > 0 {
			m.AddConstr(linkTerms, lp.EQ, 0, "link")
		}
	}

	// Cloudlet capacity rows over the union bin set.
	for _, u := range inst.BinSet {
		var terms []lp.Term
		for i, p := range inst.Positions {
			for b, bu := range p.Bins {
				if bu == u {
					terms = append(terms, lp.Term{Var: bm.y[i][b], Coeff: p.Func.Demand})
				}
			}
		}
		if len(terms) > 0 {
			m.AddConstr(terms, lp.LE, inst.Residual[u], "cap")
		}
	}
	return bm
}

// paperCostDominator is the per-item base reward of the paper-cost
// lexicographic objective: it exceeds the total of every cost schedule, so
// packing one more item (reward w − c(f_i,k) > 0) always beats any saving in
// cost. The model and the count branch-and-bound both price items off this
// one sum, so their objectives agree bit for bit.
func paperCostDominator(inst *Instance) float64 {
	w := 1.0
	for _, p := range inst.Positions {
		for _, c := range p.Costs {
			w += c
		}
	}
	return w
}

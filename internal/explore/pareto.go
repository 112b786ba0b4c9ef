package explore

import (
	"math"
	"sort"
)

// frontier returns the indices of the exact Pareto frontier under
// minimization of (cost, cycles): point p is dominated when some q has
// cost_q <= cost_p and cycles_q <= cycles_p with at least one strict.
// Duplicate optima (equal cost and cycles) are all kept. The result is
// sorted by cost ascending.
func frontier(cost, cycles []float64) []int {
	order := byCostThenCycles(cost, cycles)
	var out []int
	i := 0
	bestCycles := 0.0
	haveBest := false
	for i < len(order) {
		// One equal-cost group at a time: within a group only the
		// minimum-cycles points can be non-dominated, and they are
		// dominated iff a strictly cheaper point already matched them.
		j := i
		groupMin := cycles[order[i]]
		for j < len(order) && cost[order[j]] == cost[order[i]] {
			if cycles[order[j]] < groupMin {
				groupMin = cycles[order[j]]
			}
			j++
		}
		if !haveBest || groupMin < bestCycles {
			for k := i; k < j; k++ {
				if cycles[order[k]] == groupMin {
					out = append(out, order[k])
				}
			}
			bestCycles, haveBest = groupMin, true
		}
		i = j
	}
	return out
}

// confirmWalk is the exploration's one pruning rule. It visits the
// points by (cost, lower) ascending and measures each one that no
// measurement so far proves dominated. A confirmed q proves p
// dominated when
//
//	cost_q <  cost_p  and  exact_q <= lower_p   (q is strictly cheaper
//	    and never slower, so q dominates p even on a cycle tie), or
//	cost_q == cost_p  and  exact_q <  lower_p   (same cost needs a
//	    strictly faster q).
//
// So as long as every lower[p] is at most p's exact value, only
// dominated points are skipped, and the frontier of the measured
// points is the frontier of the whole grid. The tie-aware first rule
// is what collapses saturated plateaus — a stretch of configs whose
// execution is pinned at the same compute floor while cost keeps
// rising. confirmWalk returns the measured indices ascending.
func confirmWalk(cost, lower []float64, measure func(p int) (exact float64, err error)) ([]int, error) {
	order := byCostThenCycles(cost, lower)
	var confirmed []int
	bestCheaper := math.Inf(1) // min exact value at strictly lower cost
	for i := 0; i < len(order); {
		// One equal-cost group at a time.
		j := i
		for j < len(order) && cost[order[j]] == cost[order[i]] {
			j++
		}
		groupBest := math.Inf(1) // min exact value at this cost
		for _, p := range order[i:j] {
			if bestCheaper <= lower[p] || groupBest < lower[p] {
				continue // a confirmed point already proves p dominated
			}
			exact, err := measure(p)
			if err != nil {
				return nil, err
			}
			confirmed = append(confirmed, p)
			groupBest = math.Min(groupBest, exact)
		}
		bestCheaper = math.Min(bestCheaper, groupBest)
		i = j
	}
	sort.Ints(confirmed)
	return confirmed, nil
}

// byCostThenCycles returns point indices sorted by (cost, cycles)
// ascending, with the index itself as the final tie-break so the order
// is a deterministic function of the inputs.
func byCostThenCycles(cost, cycles []float64) []int {
	order := make([]int, len(cost))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		if cost[pa] != cost[pb] {
			return cost[pa] < cost[pb]
		}
		if cycles[pa] != cycles[pb] {
			return cycles[pa] < cycles[pb]
		}
		return pa < pb
	})
	return order
}

package protocol

import (
	"context"
	"fmt"

	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// CheckResult summarizes an exhaustive worst-case sweep of an algorithm over
// a model fragment.
type CheckResult struct {
	// WorstDistinct is the maximum number of distinct decided values across
	// all executions; the algorithm solves WorstDistinct-set agreement on
	// the swept space.
	WorstDistinct int
	// Witness is an execution achieving WorstDistinct.
	Witness Execution
	// Executions is the number of runs performed.
	Executions int
}

// WorstCase runs algo on every combination of initial-value assignment
// (numValues^n) and per-round graph choice from roundGraphs
// (len(roundGraphs)^rounds) and reports the worst number of distinct
// decisions. It errors if any execution violates termination (a process
// cannot decide) or validity (a decision that is no process's initial
// value), or if the sweep would exceed limit executions.
//
// Passing the model's generators as roundGraphs checks the worst
// adversary-of-generators; passing the full closure (model.EnumerateGraphs)
// makes the sweep exhaustive over the model. The sweep polls ctx every 4096
// executions; a cancelled one returns the context's cause.
func WorstCase(ctx context.Context, roundGraphs []graph.Digraph, numValues, rounds int, algo Algorithm, limit int) (CheckResult, error) {
	if len(roundGraphs) == 0 {
		return CheckResult{}, fmt.Errorf("protocol: no graphs to sweep")
	}
	if numValues < 1 {
		return CheckResult{}, fmt.Errorf("protocol: numValues %d must be ≥ 1", numValues)
	}
	if rounds != algo.Rounds() {
		return CheckResult{}, fmt.Errorf("protocol: algorithm %s runs %d rounds, sweep asked %d",
			algo.Name(), algo.Rounds(), rounds)
	}
	n := roundGraphs[0].N()
	total := 1
	for i := 0; i < n; i++ {
		total *= numValues
		if total > limit {
			return CheckResult{}, fmt.Errorf("protocol: %d^%d assignments exceed limit %d", numValues, n, limit)
		}
	}
	seqs := 1
	for i := 0; i < rounds; i++ {
		seqs *= len(roundGraphs)
		if total*seqs > limit {
			return CheckResult{}, fmt.Errorf("protocol: sweep of %d executions exceeds limit %d", total*seqs, limit)
		}
	}

	res := CheckResult{}
	assignment := make([]Value, n)
	seq := make([]int, rounds)
	graphs := make([]graph.Digraph, rounds)
	for {
		// Sweep all graph sequences for this assignment.
		for i := range seq {
			seq[i] = 0
		}
		for {
			for i, gi := range seq {
				graphs[i] = roundGraphs[gi]
			}
			e := Execution{Graphs: graphs, Initial: assignment}
			r, err := Run(e, algo)
			if err != nil {
				return CheckResult{}, fmt.Errorf("termination/run failure: %w", err)
			}
			if err := checkValidity(assignment, r.Decisions); err != nil {
				return CheckResult{}, err
			}
			res.Executions++
			if res.Executions&par.PollMask == 0 && ctx.Err() != nil {
				return CheckResult{}, fmt.Errorf("protocol: worst-case sweep aborted: %w", context.Cause(ctx))
			}
			if d := r.DistinctCount(); d > res.WorstDistinct {
				res.WorstDistinct = d
				res.Witness = Execution{
					Graphs:  append([]graph.Digraph(nil), graphs...),
					Initial: append([]Value(nil), assignment...),
				}
			}
			if !incCounter(seq, len(roundGraphs)) {
				break
			}
		}
		if !incCounter(assignment, numValues) {
			break
		}
	}
	return res, nil
}

func checkValidity(initial, decisions []Value) error {
	valid := make(map[Value]bool, len(initial))
	for _, v := range initial {
		valid[v] = true
	}
	for p, d := range decisions {
		if !valid[d] {
			return fmt.Errorf("validity violation: process %d decided %d, not an initial value of %v",
				p, d, initial)
		}
	}
	return nil
}

// incCounter advances a base-`base` counter; it reports false on overflow.
func incCounter(digits []int, base int) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i]++
		if digits[i] < base {
			return true
		}
		digits[i] = 0
	}
	return false
}

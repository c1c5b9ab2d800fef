package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ksettop/internal/core"
	"ksettop/internal/experiments"
	"ksettop/internal/graph"
	"ksettop/internal/homology"
	"ksettop/internal/model"
	"ksettop/internal/par"
	"ksettop/internal/protocol"
	"ksettop/internal/topology"
)

// The traced run times calls into each layer's public functions from here,
// in this process, around the same inputs the workload's binaries compute.

// layerReps is how many times each engine call is timed; its median is kept.
const layerReps = 3

// timeMedian runs fn layerReps times and returns the median wall time.
func timeMedian(fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < layerReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(start)))
	}
	return median(ts), nil
}

// atParallelism runs fn with the worker pool pinned to p workers.
func atParallelism(p int, fn func() (float64, error)) (float64, error) {
	par.SetParallelism(p)
	defer par.SetParallelism(0)
	return fn()
}

// reproduceLayers measures the engines behind E1–E17.
func reproduceLayers(put func(name string, v float64)) error {
	ctx := context.Background()

	// experiments: each table alone, in index order.
	for _, r := range experiments.All() {
		start := time.Now()
		table, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		put("experiments."+r.ID+"_ms", ms(time.Since(start)))
		if text := table.Render(); strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
			return fmt.Errorf("%s has failing rows", r.ID)
		}
	}

	// core: the simulation and solver verifications of E5 (simple models,
	// n ≤ 4) and E6 (general models, n ≤ 4).
	var e5, e6 []*model.ClosedAbove
	for _, mk := range []func() (graph.Digraph, error){
		func() (graph.Digraph, error) { return graph.Cycle(3) },
		func() (graph.Digraph, error) { return graph.Cycle(4) },
		func() (graph.Digraph, error) { return graph.DirectedPath(4) },
		func() (graph.Digraph, error) { return graph.Complete(4) },
		func() (graph.Digraph, error) { return graph.MustNew(4), nil },
	} {
		g, err := mk()
		if err != nil {
			return err
		}
		m, err := model.Simple(g)
		if err != nil {
			return err
		}
		e5 = append(e5, m)
	}
	for _, mk := range []func() (*model.ClosedAbove, error){
		func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(3) },
		func() (*model.ClosedAbove, error) { return model.NonEmptyKernelModel(4) },
		func() (*model.ClosedAbove, error) { return model.UnionOfStarsModel(4, 2) },
		func() (*model.ClosedAbove, error) { return model.NonSplitModel(3) },
		func() (*model.ClosedAbove, error) { return model.NonSplitModel(4) },
	} {
		m, err := mk()
		if err != nil {
			return err
		}
		e6 = append(e6, m)
	}
	var upper, lower time.Duration
	for _, m := range append(e5, e6...) {
		up, err := core.BestUpperOneRound(m)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := core.VerifyUpperBySimulation(m, up, 4_000_000); err != nil {
			return err
		}
		upper += time.Since(start)
	}
	for _, m := range e5 {
		lo, err := core.BestLowerOneRound(m)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := core.VerifyLowerBySolver(m, lo, protocol.DefaultNodeBudget()); err != nil {
			return err
		}
		lower += time.Since(start)
	}
	put("core.verify_upper_ms", ms(upper))
	put("core.verify_lower_ms", ms(lower))

	// protocol: the n=4 star-closure impossibility with the probe limit
	// forced low, so the whole work-stealing pipeline runs.
	star4, err := model.NonEmptyKernelModel(4)
	if err != nil {
		return err
	}
	all, err := star4.AllGraphs()
	if err != nil {
		return err
	}
	protocol.SetSearchProbeLimit(16)
	var res protocol.SolveResult
	solve := func() (float64, error) {
		return timeMedian(func() error {
			var err error
			res, err = protocol.SolveOneRoundCtx(ctx, all, 4, 3, 50_000_000)
			if err == nil && res.Solvable {
				err = fmt.Errorf("protocol: star n=4 3-set agreement solved, want impossibility")
			}
			return err
		})
	}
	solveP2, err := atParallelism(2, solve)
	if err != nil {
		return err
	}
	stats2 := res
	solveP1, err := atParallelism(1, solve)
	protocol.SetSearchProbeLimit(0)
	if err != nil {
		return err
	}
	if res.Nodes != stats2.Nodes || res.Stats != stats2.Stats {
		return fmt.Errorf("protocol: node counts differ across parallelism: %+v vs %+v", res.Stats, stats2.Stats)
	}
	put("protocol.solve_ms", solveP2)
	put("protocol.solve_p1_ms", solveP1)
	put("protocol.nodes", float64(res.Nodes))
	put("protocol.probe_nodes", float64(res.Stats.ProbeNodes))
	put("protocol.task_nodes", float64(res.Stats.TaskNodes))
	put("protocol.tasks", float64(res.Stats.Tasks))
	put("protocol.shared_nogoods", float64(res.Stats.SharedNogoods))
	put("par.speedup.protocol", solveP1/solveP2)

	// topology + homology: C_A of E17's out-star scale row (n=5, rot=2).
	gens := make([]graph.Digraph, 2)
	for c := range gens {
		if gens[c], err = graph.Star(5, c); err != nil {
			return err
		}
	}
	var ac *topology.AbstractComplex
	build, err := timeMedian(func() error {
		c, err := topology.UninterpretedComplex(gens)
		if err != nil {
			return err
		}
		ac, _, err = c.ToAbstract()
		return err
	})
	if err != nil {
		return err
	}
	put("topology.complex_build_ms", build)
	const maxDim = 3 // n − 2
	var cc *homology.ChainComplex
	levels, err := timeMedian(func() error {
		var err error
		cc, err = homology.NewChainComplex(ac, maxDim+1) // ∂_{maxDim+1} bounds β̃_maxDim
		return err
	})
	if err != nil {
		return err
	}
	put("homology.levels_ms", levels)
	put("homology.simplexes", float64(cc.TotalSimplexes()))
	reduce := func() (float64, error) {
		return timeMedian(func() error {
			betti, err := cc.ReducedBettiCtx(ctx, maxDim)
			for q, b := range betti {
				if b != 0 && err == nil {
					err = fmt.Errorf("homology: β̃_%d = %d, want 0 (Thm 4.12)", q, b)
				}
			}
			return err
		})
	}
	reduceP2, err := atParallelism(2, reduce)
	if err != nil {
		return err
	}
	reduceP1, err := atParallelism(1, reduce)
	if err != nil {
		return err
	}
	put("homology.reduce_ms", reduceP2)
	put("homology.reduce_p1_ms", reduceP1)
	put("par.speedup.homology", reduceP1/reduceP2)

	// model: materialize the n=5 star closure (5·2^16 ranks).
	star5, err := model.NonEmptyKernelModel(5)
	if err != nil {
		return err
	}
	graphs := 0
	enumerate := func() (float64, error) {
		return timeMedian(func() error {
			gs, err := star5.AllGraphsCtx(ctx)
			graphs = len(gs)
			return err
		})
	}
	enumP2, err := atParallelism(2, enumerate)
	if err != nil {
		return err
	}
	enumP1, err := atParallelism(1, enumerate)
	if err != nil {
		return err
	}
	put("model.enumerate_ms", enumP2)
	put("model.enumerate_p1_ms", enumP1)
	put("model.graphs", float64(graphs))
	put("par.speedup.enumerate", enumP1/enumP2)
	return nil
}

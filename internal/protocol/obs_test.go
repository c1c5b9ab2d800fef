package protocol

import (
	"context"
	"reflect"
	"testing"

	"ksettop/internal/obs"
)

// The observability layer must be invisible to results: the full corpus
// solved with obs enabled AND tracing on is deeply identical — verdict,
// witness map, node accounting, per-phase stats — to the same corpus solved
// with every gated path off. Instrumentation sits at shard/phase
// granularity and never inside the result computation.
func TestObsOnOffDeterminism(t *testing.T) {
	obs.ResetTrace(0)
	obs.SetTracingEnabled(true)
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetTracingEnabled(false)
		obs.SetEnabled(true)
		obs.ResetTrace(0)
	})

	type run struct {
		name string
		res  SolveResult
	}
	var on []run
	for _, inst := range corpusInstances(t) {
		res, err := SolveOneRoundCtx(context.Background(), inst.graphs, inst.vals, inst.k, DefaultNodeBudget())
		if err != nil {
			t.Fatalf("%s (obs on): %v", inst.name, err)
		}
		on = append(on, run{inst.name, res})
	}

	obs.SetTracingEnabled(false)
	obs.SetEnabled(false)
	for i, inst := range corpusInstances(t) {
		res, err := SolveOneRoundCtx(context.Background(), inst.graphs, inst.vals, inst.k, DefaultNodeBudget())
		if err != nil {
			t.Fatalf("%s (obs off): %v", inst.name, err)
		}
		if !reflect.DeepEqual(res, on[i].res) {
			t.Fatalf("%s: result differs with observability off:\n on: %+v\noff: %+v",
				inst.name, on[i].res, res)
		}
	}
}

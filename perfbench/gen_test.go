package main

import (
	"bytes"
	"fmt"
	"testing"

	"ksettop/internal/cli"
)

// inputs renders every workload's input list for a seed, one request per
// line, in replay order.
func inputs(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	cold, err := coldQueries(seed, 600)
	if err != nil {
		t.Fatal(err)
	}
	fill, sweep, err := sweepQueries(seed, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	sweep = append(fill, sweep...)
	reqs, err := hotRequests(seed)
	if err != nil {
		t.Fatal(err)
	}
	var hot []Query
	for i := 0; i < 2000; i++ {
		hot = append(hot, hotPick(reqs, i))
	}
	for name, qs := range map[string][]Query{"query-cold": cold, "sweep": sweep, "query-hot": hot} {
		var b bytes.Buffer
		for _, q := range qs {
			fmt.Fprintln(&b, q)
		}
		out[name] = b.Bytes()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 1), inputs(t, 1)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: two generations from seed 1 differ", name)
		}
	}
}

// TestSecondSeedDistinctModels checks that another seed yields other models
// under the same size rules, so a claim can be rechecked on a fresh seed.
func TestSecondSeedDistinctModels(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		cold, err := coldQueries(seed, 600)
		if err != nil {
			t.Fatal(err)
		}
		_, sweep, err := sweepQueries(seed, 20, 50)
		if err != nil {
			t.Fatal(err)
		}
		checkRules(t, seed, cold, sweep)
	}
	// models maps each drawn model's canonical form to its endpoint.
	models := func(seed uint64) map[string]string {
		cold, _ := coldQueries(seed, 600)
		_, sweep, _ := sweepQueries(seed, 20, 50)
		set := map[string]string{}
		for _, q := range append(cold, sweep...) {
			m, err := cli.ParseModel(q.Model)
			if err != nil {
				t.Fatal(err)
			}
			set[cli.FormatModel(m)] = q.Endpoint
		}
		return set
	}
	one, two := models(1), models(2)
	if len(one) != 650 || len(two) != 650 {
		t.Fatalf("distinct models per seed: %d and %d, want 650 (every draw distinct)", len(one), len(two))
	}
	// Dense draws (high edge probability, small closures) concentrate on a
	// few hundred near-complete models, so the query seeds may share a few
	// of those; the sparse sweep models must all differ.
	shared, sharedSweep := 0, 0
	for m, ep := range two {
		if _, ok := one[m]; ok {
			shared++
			if ep == "count" {
				sharedSweep++
			}
		}
	}
	if shared > len(two)/10 || sharedSweep > 0 {
		t.Errorf("seeds 1 and 2 share %d of %d models, %d of them sweep models", shared, len(two), sharedSweep)
	}
}

// checkRules re-derives each size rule from the model the daemon will build.
func checkRules(t *testing.T, seed uint64, cold, sweep []Query) {
	t.Helper()
	for i, q := range cold {
		m, err := cli.ParseModel(q.Model)
		if err != nil {
			t.Fatal(err)
		}
		n := m.N()
		size, sizeErr := m.EnumerationSize()
		round := i / 3
		switch q.Endpoint {
		case "bounds":
			if n != 4+round%3 {
				t.Errorf("seed %d op %d: bounds on n=%d", seed, i, n)
			}
		case "solve":
			lo, hi := octave(coldOctaves["solve"][n], round/3)
			if sizeErr != nil || n != 4+round%3 || size < lo || size > hi || size > solveMaxRanks {
				t.Errorf("seed %d op %d: solve on n=%d with %d ranks, want [%d, %d] (%v)", seed, i, n, size, lo, hi, sizeErr)
			}
		case "betti":
			lo, hi := octave(coldOctaves["betti"][n], round/2)
			if sizeErr != nil || n != 4+round%2 || size < lo || size > hi || size > bettiMaxRanks || q.MaxDim != n-2 {
				t.Errorf("seed %d op %d: betti on n=%d with %d ranks, want [%d, %d] (%v)", seed, i, n, size, lo, hi, sizeErr)
			}
		}
	}
	for i, q := range sweep {
		m, err := cli.ParseModel(q.Model)
		if err != nil {
			t.Fatal(err)
		}
		size, err := m.EnumerationSize()
		want := int64(1) << (sweepMinLog2 + 1 + i%(sweepMaxLog2-sweepMinLog2))
		if err != nil || m.N() != 6 || size != want {
			t.Errorf("seed %d sweep op %d: n=%d with %d ranks, want %d (%v)", seed, i, m.N(), size, want, err)
		}
	}
}

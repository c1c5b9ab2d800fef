package dist

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// The ring's whole value is determinism: identical membership must produce
// identical placement on every process, or coordinator and journal disagree
// about who owned what.
func TestRingDeterministicPlacement(t *testing.T) {
	build := func() *Ring {
		r := NewRing(0)
		// Insertion order must not matter.
		for _, n := range []string{"c:3", "a:1", "b:2"} {
			r.Add(n)
		}
		return r
	}
	r1, r2 := build(), build()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("shard/%d", i)
		s1, s2 := r1.Sequence(key, 3), r2.Sequence(key, 3)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("key %q: sequences differ: %v vs %v", key, s1, s2)
		}
		if len(s1) != 3 {
			t.Fatalf("key %q: want 3 distinct nodes, got %v", key, s1)
		}
		seen := map[string]bool{}
		for _, n := range s1 {
			if seen[n] {
				t.Fatalf("key %q: duplicate node in sequence %v", key, s1)
			}
			seen[n] = true
		}
	}
}

// Removing a node must move ONLY the keys it owned, each to its old
// second-in-sequence — the deterministic replica handoff.
func TestRingHandoffMinimalDisruption(t *testing.T) {
	nodes := []string{"a:1", "b:2", "c:3", "d:4"}
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}
	type placement struct{ owner, next string }
	before := map[string]placement{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("shard/%d", i)
		seq := r.Sequence(key, 2)
		before[key] = placement{owner: seq[0], next: seq[1]}
	}
	const victim = "c:3"
	r.Remove(victim)
	moved := 0
	for key, p := range before {
		owner := r.Sequence(key, 1)[0]
		if p.owner != victim {
			if owner != p.owner {
				t.Fatalf("key %q: owner changed %s → %s though %s left", key, p.owner, owner, victim)
			}
			continue
		}
		moved++
		if owner != p.next {
			t.Fatalf("key %q: want handoff to old replica %s, got %s", key, p.next, owner)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; test vacuous")
	}
}

// chiSquare001 holds the χ² critical values at significance p = 0.001,
// indexed by degrees of freedom.
var chiSquare001 = map[int]float64{1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 20: 45.315}

// chiSquare is Pearson's statistic of observed counts against expected ones.
func chiSquare(observed []int, expected []float64) float64 {
	x := 0.0
	for i, o := range observed {
		d := float64(o) - expected[i]
		x += d * d / expected[i]
	}
	return x
}

// arcShares returns each node's share of the 64-bit ring: a virtual node
// owns the keys hashing into (previous point, its point], wrapping.
func arcShares(r *Ring) map[string]float64 {
	shares := map[string]float64{}
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		shares[p.node] += float64(p.hash-prev) / (1 << 64) // wraps for the first point
		prev = p.hash
	}
	return shares
}

// With virtual nodes, placement should be roughly balanced, and shard keys
// must land on the ring uniformly. Two checks per fleet size:
//   - each node's ring share stays within [0.5, 1.5]× a fair share (a raw
//     FNV ring, without the splitmix finalizer, split three nodes 84/13/3);
//   - shard-key placement fits the ring shares under Pearson's χ² test at
//     p = 0.001, so the key hash spreads keys over the ring uniformly.
//
// The two are separate on purpose: 64 virtual nodes leave each node's share
// within roughly ±20% of fair, so key counts tested against an exactly
// uniform split would fail χ² on the ring's granularity, not on the hash.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	workers := []string{"a:1", "b:2", "c:3"}
	for _, n := range workers {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Sequence(fmt.Sprintf("shard/%d", i), 1)[0]]++
	}
	for _, n := range workers {
		if frac := float64(counts[n]) / keys; frac < 0.15 || frac > 0.55 {
			t.Errorf("node %s owns %.0f%% of keys; want a rough third", n, 100*frac)
		}
	}

	for nodes := 2; nodes <= 8; nodes++ {
		r := NewRing(0)
		names := make([]string, nodes)
		for i := range names {
			names[i] = fmt.Sprintf("127.0.0.1:%d", 19090+i)
			r.Add(names[i])
		}
		shares := arcShares(r)
		expected := make([]float64, nodes)
		for i, n := range names {
			if fair := 1 / float64(nodes); shares[n] < 0.5*fair || shares[n] > 1.5*fair {
				t.Errorf("%d nodes: %s holds %.1f%% of the ring, want within [0.5, 1.5]× %.1f%%",
					nodes, n, 100*shares[n], 100*fair)
			}
			expected[i] = shares[n] * 30000
		}
		owned := map[string]int{}
		for i := 0; i < 30000; i++ {
			owned[r.Sequence("shard/"+strconv.Itoa(i), 1)[0]]++
		}
		observed := make([]int, nodes)
		for i, n := range names {
			observed[i] = owned[n]
		}
		if x, crit := chiSquare(observed, expected), chiSquare001[nodes-1]; x > crit {
			t.Errorf("%d nodes: key placement χ² = %.1f > %.3f (df %d, p = 0.001): keys %v vs ring shares %v",
				nodes, x, crit, nodes-1, observed, expected)
		}
	}
}

// The verification sample must be an unbiased Bernoulli(VerifyFraction)
// draw over shard indexes: across 20 contiguous index blocks of 500 shards,
// the selected/unselected counts fit the fraction under Pearson's χ² test
// at p = 0.001 (df 20), for several fractions and sweep seeds.
func TestVerifySampleUniform(t *testing.T) {
	const blocks, perBlock = 20, 500
	for _, fraction := range []float64{0.1, 0.25, 0.5} {
		for _, seed := range []uint64{1, 7, 1 << 40} {
			cfg := testCoordConfig([]string{"w1:0"})
			cfg.VerifyFraction = fraction
			cfg.Seed = seed
			v := NewCoordinator(cfg).newVerifier(Job{}, Op{}, nil, nil)
			observed := make([]int, 0, 2*blocks)
			expected := make([]float64, 0, 2*blocks)
			for b := 0; b < blocks; b++ {
				sel := 0
				for i := b * perBlock; i < (b+1)*perBlock; i++ {
					if v.selected(i) {
						sel++
					}
				}
				observed = append(observed, sel, perBlock-sel)
				expected = append(expected, fraction*perBlock, (1-fraction)*perBlock)
			}
			if x, crit := chiSquare(observed, expected), chiSquare001[blocks]; x > crit {
				t.Errorf("fraction %.2f seed %d: sample χ² = %.1f > %.3f (df %d, p = 0.001)",
					fraction, seed, x, crit, blocks)
			}
		}
	}
}

func TestRingSequenceClamps(t *testing.T) {
	r := NewRing(4)
	if got := r.Sequence("x", 2); got != nil {
		t.Fatalf("empty ring: want nil, got %v", got)
	}
	r.Add("only:1")
	if got := r.Sequence("x", 5); len(got) != 1 || got[0] != "only:1" {
		t.Fatalf("want [only:1], got %v", got)
	}
}

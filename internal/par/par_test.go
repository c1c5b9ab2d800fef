package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// withParallelism runs fn under a fixed pool size, restoring the default.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	fn()
}

func TestParallelismOverride(t *testing.T) {
	withParallelism(t, 3, func() {
		if got := Parallelism(); got != 3 {
			t.Errorf("Parallelism() = %d, want 3", got)
		}
	})
	if got := Parallelism(); got < 1 {
		t.Errorf("default Parallelism() = %d, want ≥ 1", got)
	}
	t.Setenv(EnvParallelism, "5")
	if got := Parallelism(); got != 5 {
		t.Errorf("Parallelism() with env = %d, want 5", got)
	}
	t.Setenv(EnvParallelism, "bogus")
	if got := Parallelism(); got < 1 {
		t.Errorf("Parallelism() with bad env = %d, want ≥ 1", got)
	}
}

func TestForEachShardCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		withParallelism(t, workers, func() {
			const total = 100_000
			var visited atomic.Int64
			if err := ForEachShard(context.Background(), total, &Ctl{}, func(_ int, from, to int64, _ *Ctl) {
				if from < 0 || to > total || from > to {
					t.Errorf("bad shard [%d,%d)", from, to)
				}
				visited.Add(to - from)
			}); err != nil {
				t.Fatal(err)
			}
			if visited.Load() != total {
				t.Errorf("workers=%d: shards covered %d ranks, want %d", workers, visited.Load(), total)
			}
		})
	}
	if err := ForEachShard(context.Background(), 0, &Ctl{}, func(_ int, _, _ int64, _ *Ctl) {
		t.Error("empty range should not run any shard")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstDeterministic: the first accepted rank must come back regardless
// of worker count, even when later shards contain (larger) witnesses.
func TestFirstDeterministic(t *testing.T) {
	const total = 50_000
	accepted := func(r int64) bool { return r == 31_337 || r > 40_000 }
	for _, workers := range []int{1, 2, 4, 8} {
		withParallelism(t, workers, func() {
			got, _ := First(context.Background(), total, func(from, to int64, ctl *Ctl) int64 {
				for r := from; r < to; r++ {
					if ctl.SkipAfter(r) {
						return -1
					}
					if accepted(r) {
						return r
					}
				}
				return -1
			})
			if got != 31_337 {
				t.Errorf("workers=%d: First = %d, want 31337", workers, got)
			}
		})
	}
}

func TestFirstNoWitness(t *testing.T) {
	got, _ := First(context.Background(), 10_000, func(from, to int64, _ *Ctl) int64 { return -1 })
	if got != -1 {
		t.Errorf("First with no witness = %d, want -1", got)
	}
}

func TestExists(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			hit, _ := Exists(context.Background(), 20_000, func(from, to int64, ctl *Ctl) bool {
				for r := from; r < to; r++ {
					if ctl.Stopped() {
						return false
					}
					if r == 17_000 {
						return true
					}
				}
				return false
			})
			if !hit {
				t.Errorf("workers=%d: Exists missed the witness", workers)
			}
			miss, _ := Exists(context.Background(), 20_000, func(from, to int64, _ *Ctl) bool { return false })
			if miss {
				t.Errorf("workers=%d: Exists reported a phantom witness", workers)
			}
		})
	}
}

func TestMinMaxReduce(t *testing.T) {
	// Value at rank r is (r*2654435761)%1000 + 5; the extrema are fixed and
	// must be found under any worker count.
	val := func(r int64) int64 { return (r*2654435761)%1000 + 5 }
	const total = 30_000
	wantMin, wantMax := int64(1<<62), int64(-1)
	for r := int64(0); r < total; r++ {
		if v := val(r); v < wantMin {
			wantMin = v
		}
		if v := val(r); v > wantMax {
			wantMax = v
		}
	}
	for _, workers := range []int{1, 3, 8} {
		withParallelism(t, workers, func() {
			gotMin, _ := Min(context.Background(), total, 0, func(from, to int64, ctl *Ctl) int64 {
				local := int64(1 << 62)
				for r := from; r < to; r++ {
					if ctl.Stopped() {
						break
					}
					if v := val(r); v < local {
						local = v
					}
				}
				return local
			})
			if gotMin != wantMin {
				t.Errorf("workers=%d: Min = %d, want %d", workers, gotMin, wantMin)
			}
			gotMax, _ := Max(context.Background(), total, 1<<62, func(from, to int64, ctl *Ctl) int64 {
				local := int64(-1)
				for r := from; r < to; r++ {
					if ctl.Stopped() {
						break
					}
					if v := val(r); v > local {
						local = v
					}
				}
				return local
			})
			if gotMax != wantMax {
				t.Errorf("workers=%d: Max = %d, want %d", workers, gotMax, wantMax)
			}
		})
	}
}

// TestMinFloorCancels: reaching the floor must cancel the sweep early.
func TestMinFloorCancels(t *testing.T) {
	withParallelism(t, 4, func() {
		var scanned atomic.Int64
		got, _ := Min(context.Background(), 1_000_000, 1, func(from, to int64, ctl *Ctl) int64 {
			local := int64(1 << 62)
			for r := from; r < to; r++ {
				if ctl.Stopped() {
					break
				}
				scanned.Add(1)
				if r%3 == 1 { // floor value appears early in every shard
					local = 1
					break
				}
			}
			return local
		})
		if got != 1 {
			t.Errorf("Min = %d, want floor 1", got)
		}
		if scanned.Load() >= 1_000_000 {
			t.Errorf("floor hit did not cancel: scanned all %d ranks", scanned.Load())
		}
	})
}

// TestForEachShardNHugeTotalNoOverflow pins the shard-bound arithmetic on a
// rank space near C(64,32) ≈ 1.8e18, where multiplying shard×total would
// overflow int64: bounds must stay contiguous, ascending, and cover exactly
// [0, total).
func TestForEachShardNHugeTotalNoOverflow(t *testing.T) {
	const total = int64(1832624140942590534) // C(64,32)
	const shards = 64
	froms := make([]int64, shards)
	tos := make([]int64, shards)
	withParallelism(t, 8, func() {
		if err := ForEachShardN(context.Background(), total, shards, &Ctl{}, func(shard int, from, to int64, _ *Ctl) {
			froms[shard], tos[shard] = from, to
		}); err != nil {
			t.Fatal(err)
		}
	})
	if froms[0] != 0 || tos[shards-1] != total {
		t.Fatalf("range not covered: [%d, %d)", froms[0], tos[shards-1])
	}
	for s := 0; s < shards; s++ {
		if froms[s] < 0 || tos[s] < froms[s] {
			t.Fatalf("shard %d has invalid bounds [%d, %d)", s, froms[s], tos[s])
		}
		if s > 0 && froms[s] != tos[s-1] {
			t.Fatalf("shard %d not contiguous: starts at %d, previous ended at %d", s, froms[s], tos[s-1])
		}
	}
}

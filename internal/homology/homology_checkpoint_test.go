package homology

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
	"ksettop/internal/par"
)

func reduceWithRunner(r *checkpoint.Runner, c Complex, maxDim int) ([]int, error) {
	return ReducedBettiCtx(checkpoint.WithRunner(context.Background(), r), c, maxDim)
}

// TestHomologyCheckpointKillResumeMatrix: abort a >64k-simplex reduction at
// seeded shard ordinals, resume from the flushed checkpoint across
// parallelism settings, and require the exact Betti vector of an
// uninterrupted run.
func TestHomologyCheckpointKillResumeMatrix(t *testing.T) {
	facets := facetComplex(pseudosphereFacets([]int{3, 3, 3, 3, 3, 2, 2, 2, 2}))
	const maxDim = 7
	defer par.SetParallelism(0)

	par.SetParallelism(1)
	want, err := ReducedBettiCtx(context.Background(), facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}

	aborted := 0
	for _, parallelism := range []int{1, 2, 5, 8} {
		for _, killAt := range []uint64{2, 20} {
			name := fmt.Sprintf("p%d-kill%d", parallelism, killAt)
			par.SetParallelism(parallelism)
			path := filepath.Join(t.TempDir(), "homology.ckpt")

			r1 := checkpoint.NewRunner(path, "job", 0)
			faultinject.Enable(42, faultinject.Rule{
				Point:  faultinject.PointParShard,
				Nth:    killAt,
				Action: faultinject.ActionError,
			})
			_, err := reduceWithRunner(r1, facets, maxDim)
			faultinject.Disable()
			if err == nil {
				continue // reduction outran the injection ordinal
			}
			aborted++
			if err := r1.SaveNow(); err != nil {
				t.Fatalf("%s: final save: %v", name, err)
			}

			r2 := checkpoint.NewRunner(path, "job", 0)
			if !r2.LoadForResume() {
				t.Fatalf("%s: checkpoint did not load", name)
			}
			got, err := reduceWithRunner(r2, facets, maxDim)
			if err != nil {
				t.Fatalf("%s: resumed reduction: %v", name, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: resumed Betti %v, want %v", name, got, want)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no trial aborted — the kill matrix exercised nothing")
	}
}

// The 512k-simplex acceptance instance: one seeded kill-and-resume on a
// complex past half a million simplexes.
func TestHomologyCheckpointKillResume512k(t *testing.T) {
	if testing.Short() {
		t.Skip("512k-simplex instance; skipped with -short")
	}
	facets := facetComplex(pseudosphereFacets([]int{3, 3, 3, 3, 3, 3, 3, 3, 2, 2}))
	const maxDim = 8
	cc, err := NewChainComplex(facets, maxDim+1)
	if err != nil {
		t.Fatal(err)
	}
	if total := cc.TotalSimplexes(); total <= 512<<10 {
		t.Fatalf("instance has %d simplexes, want > 512k", total)
	}
	defer par.SetParallelism(0)
	par.SetParallelism(4)
	want, err := ReducedBettiCtx(context.Background(), facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "homology.ckpt")
	r1 := checkpoint.NewRunner(path, "job", 0)
	faultinject.Enable(1, faultinject.Rule{
		Point:  faultinject.PointParShard,
		Nth:    40, // deep enough that several dimensions have completed
		Action: faultinject.ActionError,
	})
	_, err = reduceWithRunner(r1, facets, maxDim)
	faultinject.Disable()
	if err == nil {
		t.Skip("reduction outran the injected kill")
	}
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}
	r2 := checkpoint.NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("checkpoint did not load")
	}
	got, err := reduceWithRunner(r2, facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("resumed Betti %v, want %v", got, want)
	}
}

// A checkpoint of a different complex must be ignored (fingerprint
// mismatch), and a rotted section body must be rejected by the decoder —
// both cold-start to the correct Betti vector.
func TestHomologyCheckpointForeignAndCorruptColdStart(t *testing.T) {
	facets := facetComplex(pseudosphereFacets([]int{3, 3, 3, 2, 2}))
	const maxDim = 3
	defer par.SetParallelism(0)
	par.SetParallelism(2)
	want, err := ReducedBettiCtx(context.Background(), facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}

	// Foreign: checkpoint written for a different complex.
	path := filepath.Join(t.TempDir(), "homology.ckpt")
	r1 := checkpoint.NewRunner(path, "job", 0)
	foreign := facetComplex(pseudosphereFacets([]int{3, 3, 2, 2, 2}))
	if _, err := reduceWithRunner(r1, foreign, maxDim); err != nil {
		t.Fatal(err)
	}
	// The reduction completed, so its retained section is its final state;
	// save it as the stale file a restart would see.
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}
	r2 := checkpoint.NewRunner(path, "job", 0)
	r2.LoadForResume()
	got, err := reduceWithRunner(r2, facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("hybrid run resumed a sparse checkpoint: %v, want %v", got, want)
	}

	// Corrupt: right fingerprint, rotted body.
	secs, err := checkpoint.Load(path, "job")
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		for j := 8; j < len(secs[i].Payload); j++ {
			secs[i].Payload[j] ^= 0xA5
		}
	}
	if err := checkpoint.Save(path, "job", secs); err != nil {
		t.Fatal(err)
	}
	r3 := checkpoint.NewRunner(path, "job", 0)
	r3.LoadForResume()
	got, err = reduceWithRunner(r3, facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rotted section skewed the reduction: %v, want %v", got, want)
	}
}

// A version-1 section — the format that carried an engine byte — must
// never be misread, even under a matching fingerprint: the decoder rejects
// it and the reduction recomputes cold to the correct Betti vector.
func TestHomologyCheckpointVersion1ColdStart(t *testing.T) {
	facets := facetComplex(pseudosphereFacets([]int{3, 3, 3, 2, 2}))
	const maxDim = 3
	want, err := ReducedBettiCtx(context.Background(), facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewChainComplex(facets, maxDim+1)
	if err != nil {
		t.Fatal(err)
	}
	// version 1, maxDim, engine byte 0, nextQ = 2, rank [1,9,9,9,9], no
	// clearing bitmap: a well-formed v1 body claiming wrong ranks.
	body := []byte{1, maxDim, 0, 2, maxDim + 2, 1, 9, 9, 9, 9, 0}
	payload := binary.LittleEndian.AppendUint64(nil, cc.checkpointFingerprint(maxDim))
	path := filepath.Join(t.TempDir(), "homology.ckpt")
	if err := checkpoint.Save(path, "job", []checkpoint.Section{
		{Name: kindHomologyReduction + "#1", Payload: append(payload, body...)},
	}); err != nil {
		t.Fatal(err)
	}
	r := checkpoint.NewRunner(path, "job", 0)
	if !r.LoadForResume() {
		t.Fatal("checkpoint did not load")
	}
	got, err := reduceWithRunner(r, facets, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("v1 section skewed the reduction: %v, want %v", got, want)
	}
}

package protocol

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
	"ksettop/internal/graph"
	"ksettop/internal/par"
)

// solveWithRunner runs the refutation instance with a checkpoint runner on
// the context.
func solveWithRunner(r *checkpoint.Runner, all []graph.Digraph, numValues, k, budget int) (SolveResult, error) {
	ctx := checkpoint.WithRunner(context.Background(), r)
	return SolveOneRoundCtx(ctx, all, numValues, k, budget)
}

// TestSolverCheckpointKillResumeMatrix is the tentpole invariant for the
// solver: abort a refutation sweep at seeded task ordinals, resume it from
// the flushed checkpoint at several parallelism settings, and require the
// resumed SolveResult to be identical — including node accounting and stats
// — to an uninterrupted run.
func TestSolverCheckpointKillResumeMatrix(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16) // force the parallel phase on this small instance
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)

	const budget = 50_000_000
	par.SetParallelism(1)
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, budget)
	if err != nil {
		t.Fatal(err)
	}
	if want.Solvable {
		t.Fatal("matrix instance must be a refutation")
	}

	aborted := 0
	for _, parallelism := range []int{1, 2, 5, 8} {
		for _, killAt := range []uint64{1, 3, 7} {
			name := fmt.Sprintf("p%d-kill%d", parallelism, killAt)
			par.SetParallelism(parallelism)
			path := filepath.Join(t.TempDir(), "solver.ckpt")

			// Run 1: die at the killAt-th task execution.
			r1 := checkpoint.NewRunner(path, "job", 0)
			faultinject.Enable(42, faultinject.Rule{
				Point:  faultinject.PointSolverTask,
				Nth:    killAt,
				Action: faultinject.ActionError,
			})
			_, err := solveWithRunner(r1, all, 4, 3, budget)
			faultinject.Disable()
			if err == nil {
				// The sweep outran the injection ordinal; nothing to resume.
				continue
			}
			aborted++
			if err := r1.SaveNow(); err != nil {
				t.Fatalf("%s: final save: %v", name, err)
			}

			// Run 2: resume and finish.
			r2 := checkpoint.NewRunner(path, "job", 0)
			if !r2.LoadForResume() {
				t.Fatalf("%s: checkpoint did not load", name)
			}
			got, err := solveWithRunner(r2, all, 4, 3, budget)
			if err != nil {
				t.Fatalf("%s: resumed solve: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: resumed result differs from uninterrupted run:\ngot  %+v\nwant %+v", name, got, want)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no trial aborted — the kill matrix exercised nothing")
	}
}

// A second crash-and-resume on the SAME checkpoint file: progress must
// compose across two generations of interrupted runs.
func TestSolverCheckpointResumeTwice(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)

	const budget = 50_000_000
	par.SetParallelism(2)
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, budget)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "solver.ckpt")
	prev := checkpoint.NewRunner(path, "job", 0)
	for gen, killAt := range []uint64{1, 2} {
		r := checkpoint.NewRunner(path, "job", 0)
		if gen > 0 && !r.LoadForResume() {
			t.Fatalf("generation %d: checkpoint did not load", gen)
		}
		faultinject.Enable(7+uint64(gen), faultinject.Rule{
			Point:  faultinject.PointSolverTask,
			Nth:    killAt,
			Action: faultinject.ActionError,
		})
		_, err := solveWithRunner(r, all, 4, 3, budget)
		faultinject.Disable()
		if err == nil {
			t.Skipf("generation %d: sweep outran the injected kill", gen)
		}
		if err := r.SaveNow(); err != nil {
			t.Fatalf("generation %d: save: %v", gen, err)
		}
		prev = r
	}
	_ = prev
	final := checkpoint.NewRunner(path, "job", 0)
	if !final.LoadForResume() {
		t.Fatal("final checkpoint did not load")
	}
	got, err := solveWithRunner(final, all, 4, 3, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("twice-resumed result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// A checkpoint written under a different budget (hence fingerprint) must be
// ignored — cold recompute, correct result.
func TestSolverCheckpointFingerprintMismatchColdStarts(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	par.SetParallelism(2)

	path := filepath.Join(t.TempDir(), "solver.ckpt")
	r1 := checkpoint.NewRunner(path, "job", 0)
	faultinject.Enable(42, faultinject.Rule{Point: faultinject.PointSolverTask, Nth: 1, Action: faultinject.ActionError})
	_, err := solveWithRunner(r1, all, 4, 3, 50_000_000)
	faultinject.Disable()
	if err == nil {
		t.Skip("sweep outran the injected kill")
	}
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// Resume under a DIFFERENT node budget: the fingerprint differs, so the
	// section must not be consumed.
	const otherBudget = 40_000_000
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, otherBudget)
	if err != nil {
		t.Fatal(err)
	}
	r2 := checkpoint.NewRunner(path, "job", 0)
	r2.LoadForResume()
	got, err := solveWithRunner(r2, all, 4, 3, otherBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold start under foreign checkpoint differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// A rotted solver section (right fingerprint, garbage body) must warn and
// recompute, never skew the result.
func TestSolverCheckpointCorruptSectionRecomputes(t *testing.T) {
	all := midSweepInstance(t)
	SetSearchProbeLimit(16)
	defer SetSearchProbeLimit(0)
	defer par.SetParallelism(0)
	par.SetParallelism(2)

	const budget = 50_000_000
	want, err := SolveOneRoundCtx(context.Background(), all, 4, 3, budget)
	if err != nil {
		t.Fatal(err)
	}

	// Write a genuine checkpoint via an aborted run, then rot the section
	// body while preserving its 8-byte fingerprint prefix, so Resume matches
	// the section and the engine-level decoder has to reject it.
	path := filepath.Join(t.TempDir(), "solver.ckpt")
	r1 := checkpoint.NewRunner(path, "job", 0)
	faultinject.Enable(42, faultinject.Rule{Point: faultinject.PointSolverTask, Nth: 1, Action: faultinject.ActionError})
	_, err = solveWithRunner(r1, all, 4, 3, budget)
	faultinject.Disable()
	if err == nil {
		t.Skip("sweep outran the injected kill")
	}
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}
	secs, err := checkpoint.Load(path, "job")
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		body := secs[i].Payload
		for j := 8; j < len(body); j++ {
			body[j] ^= 0x5A
		}
	}
	if err := checkpoint.Save(path, "job", secs); err != nil {
		t.Fatal(err)
	}

	r := checkpoint.NewRunner(path, "job", 0)
	if !r.LoadForResume() {
		t.Fatal("forged checkpoint did not load")
	}
	got, err := solveWithRunner(r, all, 4, 3, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corrupt-section recompute differs:\ngot  %+v\nwant %+v", got, want)
	}
}

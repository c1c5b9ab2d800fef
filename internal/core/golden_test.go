package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"ksettop/internal/cli"
)

// TestBoundsGolden pins the bound report and every bound field (K, Rounds,
// Theorem, Scope, Note) against testdata/bounds.golden, recorded before the
// upper and lower bounds were derived from one computation of the numbers,
// and re-recorded once on purpose when the γ_dist/max-cov sweeps stopped
// reading generator sets of 64 or more as having no subsets (three cases
// changed: nonsplit:n=4 at one and three rounds, cycle:n=5 at two), and
// once more when the Thm 6.11 lower-bound notes began naming S^r instead of
// S (the five lower lines at two and three rounds).
// Its cases are the query-hot working set of perfbench at seed 1 (the 17
// named families and 47 random gens: models on 3–5 processes) at one round,
// and five models at two or three rounds: non-split and star on 4
// processes, the symmetric and the simple 5-cycle, and the simple 4-star.
// Never re-record it to make the test pass.
func TestBoundsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/bounds.golden")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(raw), "=== ")[1:]
	if len(blocks) != 69 {
		t.Fatalf("golden file has %d cases, want 69", len(blocks))
	}
	for _, want := range blocks {
		head, _, _ := strings.Cut(want, "\n")
		i := strings.LastIndex(head, " rounds=")
		if i < 0 {
			t.Fatalf("golden header %q names no rounds", head)
		}
		spec, rounds := head[:i], 0
		if _, err := fmt.Sscan(head[i+len(" rounds="):], &rounds); err != nil {
			t.Fatalf("golden header %q: %v", head, err)
		}
		m, err := cli.ParseModel(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		a, err := AnalyzeCtx(context.Background(), m, rounds)
		if err != nil {
			t.Fatalf("%s rounds=%d: %v", spec, rounds, err)
		}
		var got strings.Builder
		fmt.Fprintf(&got, "%s\n%s", head, a.Render())
		for _, b := range a.PerRound {
			for _, u := range b.Upper {
				fmt.Fprintf(&got, "upper K=%d Rounds=%d Theorem=%q Note=%q\n", u.K, u.Rounds, u.Theorem, u.Note)
			}
			l := b.Lower
			fmt.Fprintf(&got, "lower K=%d Rounds=%d Theorem=%q Scope=%q Note=%q\n", l.K, l.Rounds, l.Theorem, l.Scope, l.Note)
		}
		if got.String() != want {
			t.Errorf("%s rounds=%d differs from the golden report:\n--- got\n%s--- want\n%s", spec, rounds, got.String(), want)
		}
	}
}

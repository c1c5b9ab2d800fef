package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ksettop/internal/memo"
	"ksettop/internal/par"
)

// tableDigests are the SHA-256 digests of every table's Render(), byte-
// identical at every parallelism. They pin each table on its own, so that a
// changed table fails go test and names itself; the reproduce digest of
// perfbench covers only the whole ksetexperiments output.
var tableDigests = map[string]string{
	"E1":  "a8496e7d59e81a11b32dcbebcad191b7520bee2c9afcdbe26cf1afc7e642f0f1",
	"E2":  "baf975dadeeb835a296c357f9cb4709543365570682f9a974e891370c824eba3",
	"E3":  "8fe79d92b65a35be566399c55b27338b61922f357d41b88ad164ab6f55bb779a",
	"E4":  "8a7e27d8b12167bf3a74447f98b11d1309486f01793dd926625d50b580620fc4",
	"E5":  "8c9ba756a37ab23c5a51088a1d180acddd9b1e719e377c43d865e415efb3975a",
	"E6":  "957c4570a5c9db1ba4070c22d3719423b46c7482cb38232882e1fe2728dd8358",
	"E7":  "4f74227d29e8ca08d8a45b73ad285437275004721ab1a8f1fe9ce083e11e8d15",
	"E8":  "1a0fe2af67720a1137318bfa910fa26fccf7653ab126d919c08b18090d23b74b",
	"E9":  "074334ae1dec001859a7491a8706bb480dcd956f7ba99498e15705abab516eb4",
	"E10": "36ccae24ce759371beada54182bba1bdd304231ca490858c693f88f138c3af26",
	"E11": "0a08bc1a03ae3ec99d2001f243f083ad57b7657291dd02a453a603823c71a359",
	"E12": "23671025cfd363dba51d4d05f6e2a660dcb476ac5ffd7ac5358c5b0aeb4daffc",
	"E13": "ba956a388c50a6d7ebe6265d38287da8f406b9ac4a6aa2c5b00ea4ecf9908c77",
	"E14": "eab44176c9bc0b6d907bf04d15c12a2f9c26fc2e5e75b09b6a2883582811f0ee",
	"E15": "5a21cfd96d9a6ab179a7498b21b649472fa06d5a08e3d4356b65ca8175410804",
	"E16": "17e34cf973eda27588cbf9cd49639e44c1fce1f70744180d9de366db160d6e6c",
	"E17": "9bd639cceee86902be0103830e219e3ae3561d2503145619ab29b1c61a62e456",
}

// TestAllExperimentsPass runs every experiment and fails on any MISMATCH or
// FAIL cell — this is the repository's end-to-end reproduction gate. Each
// table must also match its digest.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are exhaustive sweeps; skipped in -short mode")
	}
	if len(tableDigests) != len(All()) {
		t.Errorf("%d table digests for %d experiments", len(tableDigests), len(All()))
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			text := table.Render()
			if strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
				t.Errorf("%s has failing rows:\n%s", r.ID, text)
			}
			if len(table.Rows) == 0 {
				t.Errorf("%s produced no rows", r.ID)
			}
			if sum := sha256.Sum256([]byte(text)); hex.EncodeToString(sum[:]) != tableDigests[r.ID] {
				t.Errorf("%s table changed (sha256 %x, want %s):\n%s", r.ID, sum, tableDigests[r.ID], text)
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	table.AddRow(1, "x")
	table.AddRow("long-cell", 2)
	table.AddNote("note %d", 7)
	text := table.Render()
	for _, want := range []string{"== T: demo ==", "long-cell", "note: note 7"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

// TestRunAllDeterministicAcrossParallelism renders a fast experiment subset
// under several worker counts and memo settings and requires byte-identical
// tables — the determinism guarantee of the sharded engine and the cache
// layer, end to end.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	var subset []Runner
	for _, r := range All() {
		switch r.ID {
		case "E7", "E9", "E10", "E11", "E14", "E16":
			subset = append(subset, r)
		}
	}
	render := func() string {
		out := ""
		for _, o := range RunAll(context.Background(), subset) {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.ID, o.Err)
			}
			out += o.Table.Render()
		}
		return out
	}
	par.SetParallelism(1)
	memo.SetEnabled(false)
	want := render() // cold baseline: no sharding, no caching
	memo.SetEnabled(true)
	par.SetParallelism(0)
	defer memo.SetEnabled(true)
	for _, workers := range []int{2, 8} {
		for _, memoOn := range []bool{true, false} {
			par.SetParallelism(workers)
			memo.SetEnabled(memoOn)
			got := render()
			par.SetParallelism(0)
			memo.SetEnabled(true)
			if got != want {
				t.Errorf("workers=%d memo=%v: tables differ from sequential cold run:\n--- got ---\n%s\n--- want ---\n%s",
					workers, memoOn, got, want)
			}
		}
	}
}

// TestE14GoldenTable pins the n = 7 star-union sweep cell by cell: the
// closed-form bounds, the generic-engine agreement, and the streaming-
// enumeration closure counts must reproduce exactly.
func TestE14GoldenTable(t *testing.T) {
	table, err := E14StarUnions7(context.Background())
	if err != nil {
		t.Fatalf("E14: %v", err)
	}
	golden := [][]string{
		{"7", "1", "7", "7", "6-set", "7-set", "ok", "ok", "skipped (budget)"},
		{"7", "2", "21", "6", "5-set", "6-set", "ok", "ok", "skipped (budget)"},
		{"7", "3", "35", "5", "4-set", "5-set", "ok", "ok", "skipped (budget)"},
		{"7", "4", "35", "4", "3-set", "4-set", "ok", "ok", "skipped (budget)"},
		{"7", "5", "21", "3", "2-set", "3-set", "ok", "ok", "83791 (ok)"},
		{"7", "6", "7", "2", "1-set", "2-set", "ok", "ok", "442 (ok)"},
		{"7", "7", "1", "1", "0-set", "1-set", "ok", "ok", "1 (ok)"},
	}
	if len(table.Rows) != len(golden) {
		t.Fatalf("E14 has %d rows, want %d:\n%s", len(table.Rows), len(golden), table.Render())
	}
	for i, want := range golden {
		if got := fmt.Sprint(table.Rows[i]); got != fmt.Sprint(want) {
			t.Errorf("E14 row %d = %v, want %v", i, table.Rows[i], want)
		}
	}
}

// TestE17GoldenTable pins the dynamic rotating-star family cell by cell:
// the generator orbits, complex sizes, γ_dist values, solver verdicts
// (solvable exactly when the rotation misses a process), Betti vectors and
// every engine cross-check are deterministic.
func TestE17GoldenTable(t *testing.T) {
	if testing.Short() {
		t.Skip("E17 reduces a ~213k-simplex complex; skipped in -short mode")
	}
	table, err := E17DynamicRotatingStars(context.Background())
	if err != nil {
		t.Fatalf("E17: %v", err)
	}
	golden := [][]string{
		{"out-star", "5", "2", "2", "126976", "68", "4", "skipped (budget)", "[0 0 0 0]", "ok", "ok", "skipped (size)"},
		{"muted-star", "5", "3", "3", "46", "17", "2", "solvable ok", "[0 0 0 0]", "ok", "ok", "ok"},
		{"muted-star", "5", "5", "5", "76", "25", "2", "impossible ok", "[0 0 0 0]", "ok", "ok", "ok"},
		{"muted-star", "6", "3", "3", "94", "21", "2", "solvable ok", "[0 0 0 0 0]", "ok", "ok", "ok"},
		{"muted-star", "6", "6", "6", "187", "36", "2", "impossible ok", "[0 0 0 0 0]", "ok", "ok", "ok"},
		{"muted-star", "7", "4", "4", "253", "31", "2", "skipped (budget)", "[0 0 0 0 0 0]", "ok", "ok", "ok"},
		{"muted-star", "7", "7", "7", "442", "49", "2", "skipped (budget)", "[0 0 0 0 0 0]", "ok", "ok", "ok"},
	}
	if len(table.Rows) != len(golden) {
		t.Fatalf("E17 has %d rows, want %d:\n%s", len(table.Rows), len(golden), table.Render())
	}
	for i, want := range golden {
		if got := fmt.Sprint(table.Rows[i]); got != fmt.Sprint(want) {
			t.Errorf("E17 row %d = %v, want %v", i, table.Rows[i], want)
		}
	}
}

// TestE15GoldenTable pins the random closed-above sweep cell by cell: the
// seeded draws, the closure sizes, the Betti vectors from the sparse engine,
// and which rows exceed the seed packed path's caps are all deterministic.
func TestE15GoldenTable(t *testing.T) {
	if testing.Short() {
		t.Skip("E15 builds eight random models; skipped in -short mode")
	}
	table, err := E15RandomClosedAbove(context.Background())
	if err != nil {
		t.Fatalf("E15: %v", err)
	}
	golden := [][]string{
		{"4", "1", "0.50", "true", "24", "665", "28", "packed", "[0 0 0]", "ok", "ok", "ok"},
		{"4", "2", "0.30", "false", "2", "1040", "25", "packed", "[0 0 0]", "ok", "ok", "ok"},
		{"5", "3", "0.80", "true", "240", "3196", "55", "packed", "[0 0 0 0]", "ok", "ok", "ok"},
		{"5", "4", "0.40", "false", "2", "4992", "39", "packed", "[0 0 0 0]", "ok", "ok", "ok"},
		{"6", "5", "0.85", "true", "1080", "7621", "156", "packed", "[0 0 0 0 0]", "ok", "ok", "ok"},
		{"6", "6", "0.80", "false", "2", "504", "29", "packed", "[0 0 0 0 0]", "ok", "ok", "ok"},
		{"9", "7", "0.95", "false", "2", "2049", "28", "sparse-only", "[0 0 0 0 0 0 0 0]", "ok", "n/a", "ok"},
		{"10", "8", "0.97", "false", "1", "8", "13", "sparse-only", "[0 0 0 0 0 0 0 0 0]", "ok", "n/a", "ok"},
	}
	if len(table.Rows) != len(golden) {
		t.Fatalf("E15 has %d rows, want %d:\n%s", len(table.Rows), len(golden), table.Render())
	}
	for i, want := range golden {
		if got := fmt.Sprint(table.Rows[i]); got != fmt.Sprint(want) {
			t.Errorf("E15 row %d = %v, want %v", i, table.Rows[i], want)
		}
	}
}

// RunAll on a cancelled context reports the cancellation: every experiment
// that reaches an engine ends with the context's cause as its Err, and no
// table carries a FAIL: cell for a check that was only cut short.
func TestRunAllCancelledReportsNoFailCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	interrupted := 0
	for _, o := range RunAll(ctx, All()) {
		if o.Err != nil {
			if !errors.Is(o.Err, context.Canceled) {
				t.Errorf("%s: Err = %v, want context.Canceled", o.ID, o.Err)
			}
			interrupted++
			continue
		}
		if text := o.Table.Render(); strings.Contains(text, "FAIL") || strings.Contains(text, "MISMATCH") {
			t.Errorf("%s rendered a failing row on a cancelled context:\n%s", o.ID, text)
		}
	}
	if interrupted == 0 {
		t.Fatal("no experiment observed the cancelled context")
	}
}

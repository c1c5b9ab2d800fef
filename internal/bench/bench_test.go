package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// BenchmarkAll runs every registry row as a sub-benchmark:
//
//	go test -run=NONE -bench=. ./internal/bench/
//	go test -run=NONE -bench='All/^Homology' ./internal/bench/
func BenchmarkAll(b *testing.B) {
	for _, r := range All() {
		b.Run(r.Name, r.Fn)
	}
}

// TestRegistryCoversSnapshot pins the registry against the newest committed
// BENCH_<n>.json: names are unique, and every snapshot row except the
// ServeMixed latency percentiles (measured by ksetbench itself) has a
// registry row of the same name, so a rename cannot silently drop a row
// from the regression gate. Those rows also open the registry in snapshot
// order, so each runs in the process state it was recorded in.
func TestRegistryCoversSnapshot(t *testing.T) {
	rows := All()
	names := make(map[string]bool)
	for _, r := range rows {
		if r.Name == "" || r.Fn == nil {
			t.Errorf("incomplete row %+v", r)
		}
		if names[r.Name] {
			t.Errorf("duplicate row %s", r.Name)
		}
		names[r.Name] = true
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	numbered := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	newest, newestN := "", -1
	for _, p := range paths {
		m := numbered.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > newestN {
			newest, newestN = p, n
		}
	}
	if newest == "" {
		t.Fatal("no committed BENCH_<n>.json snapshot found")
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parsing %s: %v", newest, err)
	}
	if len(snap.Benchmarks) == 0 {
		t.Fatalf("%s has no benchmark rows", newest)
	}
	i := 0
	for _, row := range snap.Benchmarks {
		if row.Name == "ServeMixedP50" || row.Name == "ServeMixedP99" {
			continue
		}
		if !names[row.Name] {
			t.Errorf("%s row %s has no registry row", filepath.Base(newest), row.Name)
			continue
		}
		if i < len(rows) && rows[i].Name != row.Name {
			t.Errorf("registry row %d is %s, want %s (snapshot order)", i, rows[i].Name, row.Name)
		}
		i++
	}
}

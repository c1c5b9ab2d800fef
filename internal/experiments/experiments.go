// Package experiments regenerates every figure and worked example in the
// paper's evaluation-bearing sections, indexed by All (E1–E17). Each
// experiment returns a Table whose rows state the paper's claim next to the
// measured value; cmd/ksetexperiments prints them.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ksettop/internal/homology"
	"ksettop/internal/par"
	"ksettop/internal/topology"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID  string
	run func(ctx context.Context) (*Table, error)
}

// Run runs the experiment on context.Background(), kept for perfbench;
// everything else goes through RunAll.
func (r Runner) Run() (*Table, error) { return r.run(context.Background()) }

// Outcome is one experiment's result under RunAll.
type Outcome struct {
	ID      string
	Table   *Table
	Elapsed time.Duration
	Err     error
}

// RunAll runs the given experiments, fanning them out across
// par.Parallelism() workers (each experiment's internal sweeps additionally
// shard through the same engine, so up to workers² goroutines can be
// runnable — the scheduler multiplexes them; Outcome.Elapsed therefore
// includes contention and is comparable across runs only at -parallelism 1).
// Outcomes come back in input order, so reports are byte-identical to a
// sequential run; every experiment is a pure computation, which makes the
// fan-out safe. A cancelled ctx ends each experiment with its cause as Err.
func RunAll(ctx context.Context, runners []Runner) []Outcome {
	outcomes := make([]Outcome, len(runners))
	workers := par.Parallelism()
	if workers > len(runners) {
		workers = len(runners)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(runners) {
					return
				}
				start := time.Now()
				table, err := runners[i].run(ctx)
				outcomes[i] = Outcome{ID: runners[i].ID, Table: table, Elapsed: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", E1Figure1},
		{"E2", E2UninterpretedSimplex},
		{"E3", E3Pseudosphere},
		{"E4", E4Shellability},
		{"E5", E5SimpleBounds},
		{"E6", E6GeneralUpper},
		{"E7", E7GeneralLower},
		{"E8", E8CycleProduct},
		{"E9", E9CoveringSequences},
		{"E10", E10StarUnions},
		{"E11", E11UninterpretedConnectivity},
		{"E12", E12MultiRound},
		{"E13", E13TournamentGap},
		{"E14", E14StarUnions7},
		{"E15", E15RandomClosedAbove},
		{"E16", E16RoundProducts},
		{"E17", E17DynamicRotatingStars},
	}
}

func check(cond bool) string {
	if cond {
		return "ok"
	}
	return "MISMATCH"
}

// verdict renders one verification cell: "ok", or "FAIL: " and the error of
// a failed check. A check cut short because ctx is done did not fail: its
// error is returned, so an interrupted run never prints a FAIL: cell.
func verdict(ctx context.Context, err error) (string, error) {
	switch {
	case err == nil:
		return "ok", nil
	case ctx.Err() != nil:
		return "", err
	}
	return "FAIL: " + err.Error(), nil
}

// crossCheckedBetti computes β̃_0…β̃_maxDim of the complex on the hybrid
// engine and on the pure-sparse reference, both reducing one chain complex.
// connected reports whether every Betti number vanishes (the Thm 4.12
// claim); enginesAgree whether the two reductions returned identical
// vectors.
func crossCheckedBetti(ctx context.Context, ac *topology.AbstractComplex, maxDim int) (betti []int, connected, enginesAgree bool, err error) {
	cc, err := homology.NewChainComplex(ac, maxDim+1)
	if err != nil {
		return nil, false, false, err
	}
	betti, err = cc.ReducedBettiCtx(ctx, maxDim)
	if err != nil {
		return nil, false, false, err
	}
	sparse, err := cc.ReducedBettiSparse(maxDim)
	if err != nil {
		return nil, false, false, err
	}
	connected, enginesAgree = true, len(sparse) == len(betti)
	for q, b := range betti {
		if b != 0 {
			connected = false
		}
		if enginesAgree && sparse[q] != b {
			enginesAgree = false
		}
	}
	return betti, connected, enginesAgree, nil
}

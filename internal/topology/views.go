package topology

import (
	"fmt"
	"strconv"

	"ksettop/internal/bits"
)

// MaxInterpretedProcs bounds the process count for interpreted views: a view
// packs one byte per process into a uint64.
const MaxInterpretedProcs = 8

// IView is an interpreted view: the partial map process → initial value that
// an oblivious algorithm retains (Def 2.5). It packs one byte per process
// (0 = unknown, otherwise value+1), which makes views comparable map keys
// and keeps interpreted complexes allocation-light.
type IView uint64

// MakeIView builds the view that knows the initial value vals[q] for every
// q ∈ known. It requires at most MaxInterpretedProcs processes and values in
// [0, 254].
func MakeIView(known bits.Set, vals []int) (IView, error) {
	if len(vals) > MaxInterpretedProcs {
		return 0, fmt.Errorf("topology: interpreted views support ≤%d processes, got %d",
			MaxInterpretedProcs, len(vals))
	}
	var v IView
	var err error
	known.ForEach(func(q int) {
		if q >= len(vals) {
			err = fmt.Errorf("topology: view member %d outside assignment of length %d", q, len(vals))
			return
		}
		val := vals[q]
		if val < 0 || val > 254 {
			err = fmt.Errorf("topology: value %d outside [0,254]", val)
			return
		}
		v |= IView(uint64(val+1) << uint(8*q))
	})
	if err != nil {
		return 0, err
	}
	return v, nil
}

// Known returns the set of processes whose value the view contains.
func (v IView) Known() bits.Set {
	var s bits.Set
	for q := 0; q < MaxInterpretedProcs; q++ {
		if byte(v>>(8*q)) != 0 {
			s = s.With(q)
		}
	}
	return s
}

// Value returns the initial value of process q recorded in the view, and
// whether it is known.
func (v IView) Value(q int) (int, bool) {
	if q < 0 || q >= MaxInterpretedProcs {
		return 0, false
	}
	b := byte(v >> (8 * q))
	if b == 0 {
		return 0, false
	}
	return int(b) - 1, true
}

// Values returns the set of distinct initial values the view contains.
func (v IView) Values() []int {
	seen := make(map[int]bool)
	var out []int
	for q := 0; q < MaxInterpretedProcs; q++ {
		if val, ok := v.Value(q); ok && !seen[val] {
			seen[val] = true
			out = append(out, val)
		}
	}
	return out
}

// MinValue returns the smallest value in the view, and whether the view is
// nonempty. The min-dissemination upper-bound algorithms decide this value.
func (v IView) MinValue() (int, bool) {
	best, found := 0, false
	for q := 0; q < MaxInterpretedProcs; q++ {
		if val, ok := v.Value(q); ok && (!found || val < best) {
			best, found = val, true
		}
	}
	return best, found
}

// String renders the view as "{0:1 2:0}".
func (v IView) String() string { return string(v.AppendString(nil)) }

// AppendString appends the String rendering of v to b.
func (v IView) AppendString(b []byte) []byte {
	b = append(b, '{')
	first := true
	for q := 0; q < MaxInterpretedProcs; q++ {
		if val, ok := v.Value(q); ok {
			if !first {
				b = append(b, ' ')
			}
			first = false
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(val), 10)
		}
	}
	return append(b, '}')
}

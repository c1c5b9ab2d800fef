package cli

import (
	"strconv"
	"strings"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

func TestParseModelKinds(t *testing.T) {
	tests := []struct {
		spec      string
		n         int
		gens      int
		simple    bool
		symmetric bool
	}{
		{"star:n=4", 4, 4, false, true},
		{"stars:n=4,s=2", 4, 6, false, true},
		{"cycle:n=4", 4, 6, false, true},
		{"simple-star:n=5", 5, 1, true, false},
		{"simple-cycle:n=4", 4, 1, true, false},
		{"clique:n=3", 3, 1, true, true},
		// The non-split predicate is permutation-invariant, so its minimal
		// generator set is symmetric.
		{"nonsplit:n=3", 3, 5, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			m, err := ParseModel(tt.spec)
			if err != nil {
				t.Fatalf("ParseModel(%q): %v", tt.spec, err)
			}
			if m.N() != tt.n {
				t.Errorf("n = %d, want %d", m.N(), tt.n)
			}
			if m.GeneratorCount() != tt.gens {
				t.Errorf("generators = %d, want %d", m.GeneratorCount(), tt.gens)
			}
			if m.IsSimple() != tt.simple {
				t.Errorf("simple = %v, want %v", m.IsSimple(), tt.simple)
			}
			if m.IsSymmetric() != tt.symmetric {
				t.Errorf("symmetric = %v, want %v", m.IsSymmetric(), tt.symmetric)
			}
		})
	}
}

func TestParseModelAdjacency(t *testing.T) {
	m, err := ParseModel("adj:0>1 2;1>2;2>")
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	want, _ := graph.FromAdjacency([][]int{{1, 2}, {2}, {}})
	if !m.Generators()[0].Equal(want) {
		t.Errorf("parsed graph %v, want %v", m.Generators()[0], want)
	}
}

func TestParseModelErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"star",
		"star:x=4",
		"star:n=abc",
		"stars:n=4",
		"unknown:n=3",
		"adj:1>0;0>1",
		"adj:nonsense",
		"adj:0>9",
		"star:n=0",
		"star:n=3,n=4",
		"star:n=4,s=2",
		"stars:n=4,s=2,s=3",
		"cycle:n=4,k=1",
	} {
		if _, err := ParseModel(spec); err == nil {
			t.Errorf("ParseModel(%q) should fail", spec)
		}
	}
}

// FormatModel must emit a spec that ParseModel round-trips to the SAME
// model — this is the wire format the distributed sweep tier ships models
// with, so a drift here silently corrupts remote shard work.
func TestFormatModelRoundTrip(t *testing.T) {
	specs := []string{
		"star:n=4",
		"stars:n=4,s=2",
		"cycle:n=4",
		"simple-star:n=5",
		"clique:n=3",
		"nonsplit:n=3",
		"adj:0>1 2;1>2;2>",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			m, err := ParseModel(spec)
			if err != nil {
				t.Fatalf("ParseModel(%q): %v", spec, err)
			}
			wire := FormatModel(m)
			m2, err := ParseModel(wire)
			if err != nil {
				t.Fatalf("ParseModel(FormatModel) = ParseModel(%q): %v", wire, err)
			}
			assertSameGenerators(t, spec, m, m2)
			// The format must be stable: formatting the round-tripped model
			// yields identical bytes (jobKey/journal identity depends on it).
			if wire2 := FormatModel(m2); wire2 != wire {
				t.Fatalf("FormatModel not stable: %q vs %q", wire, wire2)
			}
		})
	}
}

func TestParseModelGens(t *testing.T) {
	m, err := ParseModel("gens:0>1 2;1>2;2>|0>;1>0;2>1")
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	if m.N() != 3 || m.GeneratorCount() != 2 {
		t.Fatalf("n=%d gens=%d, want 3/2", m.N(), m.GeneratorCount())
	}
	if _, err := ParseModel("gens:"); err == nil {
		t.Error("empty gens list should fail")
	}
	if _, err := ParseModel("gens:0>1;1>|0>"); err == nil {
		t.Error("mismatched process counts should fail")
	}
}

// FuzzParseModel drives the spec parser — which also parses HTTP request
// bodies — with arbitrary strings: it must never panic, and every spec it
// accepts must round-trip through FormatModel to the same generators. Specs
// naming more than 5 processes are skipped before any model is built, so
// one iteration stays cheap (model size grows exponentially in n).
func FuzzParseModel(f *testing.F) {
	for _, spec := range []string{
		"star:n=4", "stars:n=5,s=2", "cycle:n=4", "simple-star:n=5",
		"simple-cycle:n=3", "nonsplit:n=3", "clique:n=3", "adj:0>1 2;1>2;2>",
		"gens:0>1 2;1>2;2>|0>;1>0;2>1", "star:n=3,n=4", "star:n=4,s=2", "star",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if processesNamed(spec) > 5 {
			t.Skip()
		}
		m, err := ParseModel(spec)
		if err != nil {
			return
		}
		m2, err := ParseModel(FormatModel(m))
		if err != nil {
			t.Fatalf("ParseModel(FormatModel(ParseModel(%q))): %v", spec, err)
		}
		assertSameGenerators(t, spec, m, m2)
	})
}

// assertSameGenerators fails unless m2, the model parsed back from
// FormatModel(m), has m's generators.
func assertSameGenerators(t *testing.T, spec string, m, m2 *model.ClosedAbove) {
	t.Helper()
	gens, gens2 := m.Generators(), m2.Generators()
	if len(gens) != len(gens2) {
		t.Fatalf("%q: round trip changed generator count %d → %d", spec, len(gens), len(gens2))
	}
	for i := range gens {
		if gens[i].Key() != gens2[i].Key() {
			t.Fatalf("%q: generator %d changed across round trip", spec, i)
		}
	}
}

// processesNamed bounds the process count a spec asks for: the largest n=
// value, or the most rows of one adjacency generator.
func processesNamed(spec string) int {
	kind, rest, _ := strings.Cut(spec, ":")
	most := 0
	if kind == "adj" || kind == "gens" {
		for _, g := range strings.Split(rest, "|") {
			most = max(most, strings.Count(g, ";")+1)
		}
		return most
	}
	for _, part := range strings.Split(rest, ",") {
		key, val, _ := strings.Cut(strings.TrimSpace(part), "=")
		if n, err := strconv.Atoi(val); err == nil && key == "n" {
			most = max(most, n)
		}
	}
	return most
}

// Package cli is what the command-line tools share: the one command
// lifecycle (Command: shared flags, signals, trace, memo snapshot,
// checkpoint, and the daemons' listen/drain loop), exit codes, and the
// model-specification parser.
package cli

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

// ParseModel builds a model from a compact spec string:
//
//	star:n=4            symmetric single-star model (non-empty kernel)
//	stars:n=5,s=2       symmetric union-of-s-stars model (Thm 6.13 family)
//	cycle:n=6           symmetric ring model
//	simple-star:n=4     ↑star (fixed center 0)
//	simple-cycle:n=5    ↑cycle
//	nonsplit:n=4        non-split predicate model (minimal generators)
//	clique:n=4          ↑clique (full synchrony)
//	adj:0>1 2;1>0;2>    explicit generator: per-process out-neighbors,
//	                    processes separated by ';', targets by spaces
//	gens:0>1;1>0|0>;1>0 explicit generator SET: adjacency generators
//	                    separated by '|' — the wire format FormatModel
//	                    emits, so any model round-trips through a string
func ParseModel(spec string) (*model.ClosedAbove, error) {
	kind, rest, found := strings.Cut(spec, ":")
	if !found {
		return nil, fmt.Errorf("cli: model spec %q needs kind:params", spec)
	}
	if kind == "adj" {
		g, err := parseAdjacency(rest)
		if err != nil {
			return nil, err
		}
		return model.Simple(g)
	}
	if kind == "gens" {
		var gens []graph.Digraph
		for _, part := range strings.Split(rest, "|") {
			g, err := parseAdjacency(part)
			if err != nil {
				return nil, err
			}
			gens = append(gens, g)
		}
		return model.New(gens)
	}
	takes := []string{"n"}
	if kind == "stars" {
		takes = append(takes, "s")
	}
	params, err := parseParams(rest, takes)
	if err != nil {
		return nil, err
	}
	n, ok := params["n"]
	if !ok {
		return nil, fmt.Errorf("cli: model spec %q needs n=", spec)
	}
	switch kind {
	case "star":
		return model.NonEmptyKernelModel(n)
	case "stars":
		s, ok := params["s"]
		if !ok {
			return nil, fmt.Errorf("cli: stars model needs s=")
		}
		return model.UnionOfStarsModel(n, s)
	case "cycle":
		return model.CycleModel(n)
	case "simple-star":
		g, err := graph.Star(n, 0)
		if err != nil {
			return nil, err
		}
		return model.Simple(g)
	case "simple-cycle":
		g, err := graph.Cycle(n)
		if err != nil {
			return nil, err
		}
		return model.Simple(g)
	case "nonsplit":
		return model.NonSplitModel(n)
	case "clique":
		g, err := graph.Complete(n)
		if err != nil {
			return nil, err
		}
		return model.Simple(g)
	default:
		return nil, fmt.Errorf("cli: unknown model kind %q", kind)
	}
}

// FormatModel renders m as a spec ParseModel parses back to the same model:
// the generator set in adjacency form, one generator per '|'-separated
// segment. Generators() is already minimal and canonically sorted, so the
// round-trip is stable — FormatModel(ParseModel(FormatModel(m))) is the
// identity — which makes this the wire format the distributed sweep tier
// ships models across processes with.
func FormatModel(m *model.ClosedAbove) string {
	var sb strings.Builder
	sb.WriteString("gens:")
	for gi, g := range m.Generators() {
		if gi > 0 {
			sb.WriteByte('|')
		}
		n := g.N()
		for u := 0; u < n; u++ {
			if u > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.Itoa(u))
			sb.WriteByte('>')
			first := true
			g.Out(u).ForEach(func(v int) {
				if v == u {
					return // self-loops are implicit in the graph type
				}
				if !first {
					sb.WriteByte(' ')
				}
				first = false
				sb.WriteString(strconv.Itoa(v))
			})
		}
	}
	return sb.String()
}

// parseParams parses comma-separated key=int parameters, rejecting a key
// outside takes or given twice: specs arrive in HTTP bodies, and a silently
// dropped or overridden parameter would answer for a different model.
func parseParams(s string, takes []string) (map[string]int, error) {
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return nil, fmt.Errorf("cli: bad parameter %q", part)
		}
		if !slices.Contains(takes, key) {
			return nil, fmt.Errorf("cli: parameter %q not taken by this model kind (takes %s)", part, strings.Join(takes, ", "))
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("cli: parameter %q given twice", key)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("cli: parameter %q: %w", part, err)
		}
		out[key] = v
	}
	return out, nil
}

func parseAdjacency(s string) (graph.Digraph, error) {
	rows := strings.Split(s, ";")
	adj := make([][]int, len(rows))
	for i, row := range rows {
		proc, targets, found := strings.Cut(strings.TrimSpace(row), ">")
		if !found {
			return graph.Digraph{}, fmt.Errorf("cli: adjacency row %q needs proc>targets", row)
		}
		p, err := strconv.Atoi(strings.TrimSpace(proc))
		if err != nil || p != i {
			return graph.Digraph{}, fmt.Errorf("cli: adjacency rows must be 0..n-1 in order, got %q", row)
		}
		for _, tgt := range strings.Fields(targets) {
			v, err := strconv.Atoi(tgt)
			if err != nil {
				return graph.Digraph{}, fmt.Errorf("cli: adjacency target %q: %w", tgt, err)
			}
			adj[i] = append(adj[i], v)
		}
	}
	return graph.FromAdjacency(adj)
}

// Command ksettopo explores the §4 topology of a closed-above model: the
// uninterpreted complex (Def 4.4), the one-round protocol complex
// (Def 4.14), their homology (GF(2) and integral), and the nerve structure
// of the pseudosphere cover.
//
// Usage:
//
//	ksettopo -model star:n=3 -values 3
//	ksettopo -model simple-cycle:n=4 -values 2 -maxdim 1
//	ksettopo -model stars:n=4,s=2 -values 3            # 2-star unions on 4 processes
package main

import (
	"context"
	"fmt"
	"io"

	"ksettop/internal/cli"
	"ksettop/internal/model"
	"ksettop/internal/topology"
)

func main() { cli.Main("ksettopo", run) }

// run is the whole tool: it parses args, prints the topology report to
// stdout, and stops early with the cause once parent or a SIGINT/SIGTERM
// cancels the run.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksettopo")
	spec := c.Flags.String("model", "star:n=3", "model specification (see ksetbounds)")
	values := c.Flags.Int("values", 2, "input values for the protocol complex")
	maxDim := c.Flags.Int("maxdim", -1, "homology dimension cap (default n−2)")
	c.Checkpoint(cli.CheckpointFlagUsage, cli.CheckpointIntervalFlagUsage, func() []string {
		return []string{*spec, fmt.Sprint(*values), fmt.Sprint(*maxDim)}
	})
	return c.Run(parent, args, func(ctx context.Context) error {
		m, err := cli.ParseModel(*spec)
		if err != nil {
			return err
		}
		dim := *maxDim
		if dim < 0 {
			dim = m.N() - 2
		}
		fmt.Fprintln(stdout, m)
		if err := reportUninterpreted(ctx, stdout, m, dim); err != nil {
			return err
		}
		return reportProtocol(ctx, stdout, m, *values, dim)
	})
}

func reportUninterpreted(ctx context.Context, w io.Writer, m *model.ClosedAbove, dim int) error {
	cover, err := topology.UninterpretedCover(m.Generators())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nuninterpreted complex C_A (Def 4.4):\n")
	totalFacets := 0
	for i, ps := range cover {
		totalFacets += ps.FacetCount()
		if i < 4 {
			fmt.Fprintf(w, "  pseudosphere %d: %d facets, Lemma 4.7 bound: %d-connected\n",
				i, ps.FacetCount(), ps.ConnectivityBound())
		}
	}
	if len(cover) > 4 {
		fmt.Fprintf(w, "  … %d more pseudospheres\n", len(cover)-4)
	}
	c, err := topology.UninterpretedComplex(m.Generators())
	if err != nil {
		return err
	}
	ac, _, err := c.ToAbstract()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  union: %d facets (%d before dedup), dim %d, pure=%v, χ=%d\n",
		ac.FacetCount(), totalFacets, ac.Dimension(), ac.IsPure(), ac.EulerCharacteristic())

	betti, err := topology.ReducedBettiNumbersCtx(ctx, ac, dim)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  GF(2) reduced betti up to dim %d: %v\n", dim, betti)
	ih, err := topology.IntegerHomologyGroups(ac, dim)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  integral homology: %s\n", ih)
	ok, _, err := topology.IsIntegrallyKConnected(ac, m.N()-2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Thm 4.12 check ((n−2)-connected): %v\n", ok)
	return nil
}

func reportProtocol(ctx context.Context, w io.Writer, m *model.ClosedAbove, values, dim int) error {
	inputs, err := topology.InputAssignments(m.N(), values)
	if err != nil {
		return err
	}
	pc, err := topology.ProtocolComplexOneRound(ctx, m.Generators(), inputs)
	if err != nil {
		return err
	}
	ac, verts, err := pc.ToAbstract()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\none-round protocol complex over %d values (Def 4.14):\n", values)
	fmt.Fprintf(w, "  %d input facets × %d generators → %d facets, %d vertices\n",
		len(inputs), m.GeneratorCount(), ac.FacetCount(), len(verts))

	betti, err := topology.ReducedBettiNumbersCtx(ctx, ac, dim)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  GF(2) reduced betti up to dim %d: %v\n", dim, betti)
	for k := 0; k <= dim; k++ {
		if betti[k] != 0 {
			fmt.Fprintf(w, "  verdict: NOT %d-connected → no obstruction to %d-set agreement at k=%d\n",
				k, k+1, k+1)
			return nil
		}
	}
	fmt.Fprintf(w, "  verdict: %d-connected → (k ≤ %d)-set agreement impossible in one round\n",
		dim, dim+1)
	fmt.Fprintf(w, "  ([HKR13] Thm 10.3.1 / paper Thm 5.4 premise)\n")
	return nil
}

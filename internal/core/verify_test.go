package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"ksettop/internal/graph"
	"ksettop/internal/model"
)

func TestVerifyUpperBySimulation(t *testing.T) {
	// Thm 3.2 on ↑star (γ = 1) and Cor 3.5 on Sym(star) (γ_eq = n).
	star, _ := graph.Star(3, 0)
	simple, _ := model.Simple(star)
	up, err := BestUpperOneRound(simple)
	if err != nil {
		t.Fatalf("BestUpperOneRound: %v", err)
	}
	if err := VerifyUpperBySimulation(simple, up, 2_000_000); err != nil {
		t.Errorf("Thm 3.2 verification failed: %v", err)
	}

	sym := kernelModel(t, 3)
	upSym, _ := BestUpperOneRound(sym)
	if err := VerifyUpperBySimulation(sym, upSym, 2_000_000); err != nil {
		t.Errorf("Cor 3.5 verification failed: %v", err)
	}

	// A deliberately wrong (too strong) claim must be caught.
	tooStrong := upSym
	tooStrong.K = 1
	if err := VerifyUpperBySimulation(sym, tooStrong, 2_000_000); err == nil {
		t.Errorf("overclaimed upper bound should fail verification")
	}
}

func TestVerifyUpperMultiRound(t *testing.T) {
	// ↑cycle on n=4, 3 rounds: consensus via min (covering sequence).
	cyc, _ := graph.Cycle(4)
	m, _ := model.Simple(cyc)
	b, err := Bounds(context.Background(), m, 3)
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	up := b.Best().Upper
	if up.K != 1 {
		t.Fatalf("upper = %d, want 1", up.K)
	}
	if err := VerifyUpperBySimulation(m, up, 8_000_000); err != nil {
		t.Errorf("3-round consensus verification failed: %v", err)
	}
}

func TestVerifyLowerBySolver(t *testing.T) {
	m := kernelModel(t, 3)
	lo, err := BestLowerOneRound(m)
	if err != nil {
		t.Fatalf("BestLowerOneRound: %v", err)
	}
	if lo.K != 2 {
		t.Fatalf("lower = %d, want 2", lo.K)
	}
	if err := VerifyLowerBySolver(m, lo, 10_000_000); err != nil {
		t.Errorf("solver verification failed: %v", err)
	}

	// An overclaimed impossibility (3-set with n=3 is trivially solvable)
	// must be refuted by the solver.
	wrong := lo
	wrong.K = 3
	if err := VerifyLowerBySolver(m, wrong, 10_000_000); err == nil {
		t.Errorf("overclaimed lower bound should fail verification")
	}

	// Vacuous bounds pass trivially.
	vacuous := lo
	vacuous.K = 0
	if err := VerifyLowerBySolver(m, vacuous, 10); err != nil {
		t.Errorf("vacuous bound should verify: %v", err)
	}
}

func TestVerifyLowerByTopology(t *testing.T) {
	m := kernelModel(t, 3)
	lo, _ := BestLowerOneRound(m)
	if err := VerifyLowerByTopology(context.Background(), m, lo); err != nil {
		t.Errorf("topology verification failed: %v", err)
	}

	// The clique model solves consensus, so its protocol complex is
	// disconnected: claiming 1-set impossibility must fail the check.
	clique, _ := graph.Complete(3)
	cm, _ := model.Simple(clique)
	bogus := LowerBound{K: 1, Rounds: 1, Theorem: "bogus"}
	if err := VerifyLowerByTopology(context.Background(), cm, bogus); err == nil {
		t.Errorf("clique model protocol complex is disconnected; claim should fail")
	}
}

func TestVerifyUninterpretedConnectivity(t *testing.T) {
	for _, m := range []*model.ClosedAbove{kernelModel(t, 3), kernelModel(t, 4), fig1bModel(t)} {
		if err := VerifyUninterpretedConnectivity(context.Background(), m); err != nil {
			t.Errorf("Thm 4.12 verification failed on %v: %v", m, err)
		}
	}
}

func TestVerifySimpleCycleLowerAllRoutes(t *testing.T) {
	// ↑cycle n=3: 1-set impossible in one round (Thm 5.1, γ = 2). Check by
	// solver and by topology.
	cyc, _ := graph.Cycle(3)
	m, _ := model.Simple(cyc)
	lo, _ := BestLowerOneRound(m)
	if lo.K != 1 {
		t.Fatalf("lower = %d, want 1", lo.K)
	}
	if err := VerifyLowerBySolver(m, lo, 10_000_000); err != nil {
		t.Errorf("solver route failed: %v", err)
	}
	if err := VerifyLowerByTopology(context.Background(), m, lo); err != nil {
		t.Errorf("topology route failed: %v", err)
	}
}

// Every long core entry point returns a cancelled context's cause instead
// of a result: the analysis and the bounds at one round and at several (S^r
// product and pruning), the product adversary, and the simulation, solver
// and topology checks.
func TestCoreEntryPointsReturnCancellation(t *testing.T) {
	m, err := model.NonSplitModel(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	up, err := BestUpperOneRound(m)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := BestLowerOneRound(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"AnalyzeCtx r=1":   func() error { _, err := AnalyzeCtx(ctx, m, 1); return err },
		"AnalyzeCtx r=3":   func() error { _, err := AnalyzeCtx(ctx, m, 3); return err },
		"Bounds r=1":       func() error { _, err := Bounds(ctx, m, 1); return err },
		"Bounds r=3":       func() error { _, err := Bounds(ctx, m, 3); return err },
		"ProductAdversary": func() error { _, err := ProductAdversary(ctx, m, 2); return err },
		"VerifyUpperBySimulationCtx": func() error {
			return VerifyUpperBySimulationCtx(ctx, m, up, 4_000_000)
		},
		"VerifyLowerBySolverCtx": func() error {
			return VerifyLowerBySolverCtx(ctx, m, lo, 1_000_000)
		},
		"VerifyLowerByTopology": func() error { return VerifyLowerByTopology(ctx, m, lo) },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context = %v, want context.Canceled", name, err)
		}
	}
}

// productPollCtx counts the polls made from inside graph.ProductSet, the
// build of S^r, and nothing else.
type productPollCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *productPollCtx) Err() error {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if f.Function == "ksettop/internal/graph.ProductSet" {
			c.polls.Add(1)
			break
		}
		if !more {
			break
		}
	}
	return c.Context.Err()
}

// AnalyzeCtx builds S^r once per round r ≥ 2: over nonsplit n=4 its
// ProductSet polls at r = 3 are exactly those of one build of S^2 and one of
// S^3 (the build polls once per 4096 products, deterministically).
func TestAnalyzeCancellationPollsBuildEachProductOnce(t *testing.T) {
	m, err := model.NonSplitModel(4)
	if err != nil {
		t.Fatal(err)
	}
	once := &productPollCtx{Context: context.Background()}
	for r := 2; r <= 3; r++ {
		if _, err := graph.ProductSet(once, m.Generators(), r); err != nil {
			t.Fatal(err)
		}
	}
	want := once.polls.Load()
	if want == 0 {
		t.Fatal("building S^2 and S^3 never polled; the count shows nothing")
	}
	ctx := &productPollCtx{Context: context.Background()}
	if _, err := AnalyzeCtx(ctx, m, 3); err != nil {
		t.Fatal(err)
	}
	if got := ctx.polls.Load(); got != want {
		t.Errorf("AnalyzeCtx(nonsplit:n=4, 3) polled %d times from ProductSet, want %d (S^2 and S^3 built once each)", got, want)
	}
}

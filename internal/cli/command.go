package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/faultinject"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// Command is the one lifecycle every ksettop tool runs through. A tool
// creates it with New, registers its own flags on Flags and opts into the
// shared ones (MemoSnapshot, Checkpoint, SolverBudget, Faults), then hands
// its work to Run — or, for a daemon, its HTTP handler to Serve. The
// harness parses the flags and owns the order of everything around the
// work: process name, log level, trace flush, the signal context, fault
// injection, parallelism, the solver budget, the memo snapshot and the
// checkpoint.
type Command struct {
	Name  string
	Flags *flag.FlagSet

	parallelism  *int
	logLevel     *string
	traceOut     *string
	solverBudget *int
	faults       *string
	faultSeed    *uint64

	memoSnapshot *string
	memoEvery    *time.Duration

	checkpoint         *string
	checkpointInterval *time.Duration
	job                func() []string

	daemon bool
}

// New creates a command with the flags every tool carries: -parallelism,
// -log-level and -trace-out.
func New(name string) *Command {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &Command{
		Name:         name,
		Flags:        fs,
		memoSnapshot: new(string),
		parallelism:  fs.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)"),
		logLevel:     fs.String("log-level", "info", "minimum structured-log level: debug | info | warn | error"),
		traceOut:     fs.String("trace-out", "", "write a Chrome trace_event JSON file of the run's spans to this path on exit; tracing is armed for the run (empty = off)"),
	}
}

// MemoSnapshot registers -memo-snapshot. The snapshot is loaded before the
// work starts and saved after it: a batch tool saves it after a successful
// or interrupted run, a daemon after its drain and, when every points to a
// positive period, also every period while it serves.
func (c *Command) MemoSnapshot(usage string, every *time.Duration) {
	c.memoSnapshot = c.Flags.String("memo-snapshot", "", usage)
	c.memoEvery = every
}

// CheckpointFlagUsage is the help text of -checkpoint on the batch tools.
const CheckpointFlagUsage = "checkpoint file for durable runs: solver/homology/shard progress is persisted every -checkpoint-interval and on SIGINT/SIGTERM (empty = off)"

// CheckpointIntervalFlagUsage is the help text of -checkpoint-interval on
// the batch tools.
const CheckpointIntervalFlagUsage = "background checkpoint save cadence for -checkpoint"

// Checkpoint registers -checkpoint and -checkpoint-interval and returns the
// interval. job returns the workload-defining flag values (read after
// parsing) that key the checkpoint file with the tool name, so a file
// written by another tool or workload is never resumed.
func (c *Command) Checkpoint(usage, intervalUsage string, job func() []string) *time.Duration {
	c.checkpoint = c.Flags.String("checkpoint", "", usage)
	c.checkpointInterval = c.Flags.Duration("checkpoint-interval", 30*time.Second, intervalUsage)
	c.job = job
	return c.checkpointInterval
}

// SolverBudget registers -solver-budget, the process-wide default node
// budget of the decision-map searches that take no explicit one.
func (c *Command) SolverBudget() *int {
	c.solverBudget = c.Flags.Int("solver-budget", 0, "node budget for decision-map searches (0 = stock 50M)")
	return c.solverBudget
}

// Faults registers -faults and -fault-seed, which arm the deterministic
// fault-injection registry for the whole run.
func (c *Command) Faults(usage string) {
	c.faults = c.Flags.String("faults", "", usage)
	c.faultSeed = c.Flags.Uint64("fault-seed", 1, "seed for the fault-injection schedule")
}

// Main runs a tool on the process arguments and exits with ExitCode of its
// error, printing the error prefixed with the tool name first.
func Main(name string, run func(ctx context.Context, args []string, stdout io.Writer) error) {
	err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}

// Run parses args and runs work on a context that a SIGINT or SIGTERM (or
// parent) cancels and that carries the checkpoint runner, so work must hand
// that context to every engine call. A batch run that succeeds saves the
// memo snapshot and removes its checkpoint; one that fails keeps the
// checkpoint, and one that is interrupted also saves the snapshot and ends
// with an error matching ErrInterrupted.
func (c *Command) Run(parent context.Context, args []string, work func(ctx context.Context) error) (err error) {
	if err := c.Flags.Parse(args); err != nil {
		return err
	}
	obs.SetProcessName(c.Name)
	if err := applyLogLevel(*c.logLevel); err != nil {
		return err
	}
	flushTrace := startTraceOut(*c.traceOut)
	defer func() {
		if terr := flushTrace(); terr != nil {
			err = errors.Join(err, fmt.Errorf("trace-out: %w", terr))
		}
	}()
	ctx, stopSignals := signalContext(parent)
	defer stopSignals()
	if c.faults != nil && *c.faults != "" {
		rules, err := faultinject.ParseRules(*c.faults)
		if err != nil {
			return err
		}
		faultinject.Enable(*c.faultSeed, rules...)
		defer faultinject.Disable()
	}
	par.SetParallelism(*c.parallelism)
	if c.solverBudget != nil {
		if err := applySolverBudget(*c.solverBudget); err != nil {
			return err
		}
	}
	if err := loadMemoSnapshot(*c.memoSnapshot); err != nil {
		return err
	}
	var ckpt *checkpoint.Runner
	if c.checkpoint != nil {
		ctx, ckpt = startCheckpoint(ctx, *c.checkpoint, jobKey(c.Name, c.job()...), *c.checkpointInterval)
	}
	defer func() {
		if ferr := finishDurable(ckpt, *c.memoSnapshot, c.daemon, err); err == nil {
			err = ferr
		}
	}()
	return work(ctx)
}

// Serve is Run for a daemon. It registers -addr (default addr) and
// -drain-grace, builds the handler once the memo snapshot is loaded, serves
// it until the context is cancelled, and then drains: in-flight requests
// get the grace period to finish. A drained daemon returns nil — it exits 0
// on SIGTERM — and always keeps its checkpoint and saves its snapshot,
// since a restart is the resume case.
func (c *Command) Serve(parent context.Context, args []string, addr, graceUsage string, build func(ctx context.Context) (http.Handler, error)) error {
	listen := c.Flags.String("addr", addr, "listen address")
	grace := c.Flags.Duration("drain-grace", 15*time.Second, graceUsage)
	c.daemon = true
	return c.Run(parent, args, func(ctx context.Context) error {
		h, err := build(ctx)
		if err != nil {
			return err
		}
		if c.memoEvery != nil && *c.memoEvery > 0 && *c.memoSnapshot != "" {
			defer every(ctx, *c.memoEvery, func() {
				if err := saveMemoSnapshot(*c.memoSnapshot); err != nil {
					slog.Warn("memo: background snapshot failed", "err", err)
				}
			})()
		}
		return c.listenAndDrain(ctx, *listen, *grace, h)
	})
}

// listenAndDrain serves h on addr until ctx is cancelled, then shuts the
// server down with grace for the requests in flight. It logs the bound
// address as "<name>: listening on" once the listener is open.
func (c *Command) listenAndDrain(ctx context.Context, addr string, grace time.Duration, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	slog.Info(c.Name+": listening on", "addr", ln.Addr().String())
	srv := &http.Server{Handler: h}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		slog.Info(c.Name+": draining", "grace", grace)
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}

// every calls fn once per period until ctx is cancelled or the returned
// stop is called; stop returns once the loop has ended, so no call of fn
// runs after it.
func every(ctx context.Context, period time.Duration, fn func()) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

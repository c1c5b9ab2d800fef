// Command ksetserved is the long-running bound-query daemon: an HTTP+JSON
// service answering solvability, homology and bound queries over closed-above
// models.
//
// Usage:
//
//	ksetserved -addr :8080 -memo-snapshot /var/lib/ksettop/memo.snap
//	ksetserved -addr 127.0.0.1:0 -max-concurrent 4 -request-timeout 10s
//	ksetserved -faults 'delay:serve.request@1+7:50ms' -fault-seed 42
//
// Endpoints:
//
//	POST /v1/solve   {"model","values","k","budget?","timeout_ms?"}
//	POST /v1/betti   {"model","values","max_dim","timeout_ms?"}
//	POST /v1/bounds  {"model","rounds","timeout_ms?"}
//	POST /v1/count   {"model","timeout_ms?"}
//	GET  /healthz    liveness
//	GET  /readyz     readiness: warm boot finished, and in coordinator mode ≥1 live worker
//	GET  /statz      request/panic/shed/timeout counters (+ dist counters in coordinator mode)
//	GET  /metrics    Prometheus text exposition (engine + server + coordinator counters)
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// With -workers host:port,... the daemon runs in coordinator mode: it
// starts a coordinator over the named ksetsweepd workers (consistent-hash
// placement, lease/heartbeat failure detection, straggler hedging, optional
// crash-recovery journal via -dist-journal, -verify-fraction quorum checks
// and -quarantine-threshold placement bans), gates /readyz on a live worker
// and reports the coordinator's counters in /statz and /metrics. /v1/count
// does not go to the fleet: the edge-branching count answers it in process
// in microseconds to milliseconds.
//
// The daemon admission-controls concurrency (503 on overload), enforces
// per-request deadlines (504), returns typed budget rejections (422),
// isolates worker panics (500, never a crash), coalesces identical
// in-flight queries, and drains gracefully on SIGINT/SIGTERM. With
// -memo-snapshot it loads a checksummed memo snapshot at startup
// (tolerating corruption by starting cold), saves it in the background and
// on drain; no cache registers a snapshot section at present, so the file
// carries no entries.
//
// The -faults flag arms the deterministic fault-injection registry inside
// the daemon itself — the chaos schedule that the test suite runs is
// available, verbatim, against a production binary.
package main

import (
	"context"
	"io"
	"net/http"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/serve"
)

func main() { cli.Main("ksetserved", run) }

// run is the whole daemon: it parses args, serves until parent is
// cancelled or a SIGINT/SIGTERM arrives, then drains and returns nil.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksetserved")
	maxConcurrent := c.Flags.Int("max-concurrent", 8, "concurrent requests admitted before shedding with 503")
	requestTimeout := c.Flags.Duration("request-timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := c.Flags.Duration("max-timeout", 2*time.Minute, "hard cap on any request deadline")
	solverBudget := c.Flags.Int("solver-budget", 0, "per-request solver node budget cap (0 = stock 50M)")
	checkpointEvery := c.Flags.Duration("checkpoint-every", time.Minute, "background save period of -memo-snapshot")
	c.MemoSnapshot("memo snapshot file: loaded at startup, saved every -checkpoint-every and on drain; no cache registers a section at present, so it carries no entries (empty = off)", checkpointEvery)
	c.Faults("deterministic fault-injection rules, e.g. 'panic:serve.request@3,delay:par.task@1+100:1ms' (empty = off)")
	workers := c.Flags.String("workers", "", "comma-separated ksetsweepd worker addresses; non-empty enables coordinator mode")
	distShards := c.Flags.Int("dist-shards", 0, "shards per distributed sweep (0 = 8 × workers)")
	distLease := c.Flags.Duration("dist-lease", 15*time.Second, "shard lease TTL before a grant is forfeited and re-dispatched")
	distJournal := c.Flags.String("dist-journal", "", "shard-commit journal file for coordinator crash recovery (empty = off)")
	verifyFraction := c.Flags.Float64("verify-fraction", 0, "fraction [0,1] of committed sweep shards re-executed on a distinct worker and cross-validated byte-for-byte against the commit (Byzantine defense; 0 = off, CRC and hedge cross-checks only)")
	quarantineThreshold := c.Flags.Float64("quarantine-threshold", 0, "divergence score at which a worker is quarantined from sweep placement until it passes a half-open known-answer probe (0 = default 3, negative = never quarantine)")
	pprofFlag := c.Flags.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	return c.Serve(parent, args, ":8080", "shutdown grace for in-flight requests", func(ctx context.Context) (http.Handler, error) {
		var coord *dist.Coordinator
		if list := cli.SplitWorkers(*workers); len(list) > 0 {
			coord = dist.NewCoordinator(dist.CoordConfig{
				Workers:             list,
				Shards:              *distShards,
				LeaseTTL:            *distLease,
				JournalPath:         *distJournal,
				VerifyFraction:      *verifyFraction,
				QuarantineThreshold: *quarantineThreshold,
			})
			coord.Start(ctx)
		}
		s := serve.New(serve.Config{
			MaxConcurrent:   *maxConcurrent,
			DefaultTimeout:  *requestTimeout,
			MaxTimeout:      *maxTimeout,
			MaxSolverBudget: *solverBudget,
			Coordinator:     coord,
			EnablePprof:     *pprofFlag,
		})
		return s.Handler(), nil
	})
}

// Command ksetsweepd is the distributed-sweep worker daemon: it executes
// rank-shard enumeration ops on behalf of a coordinator (dist.Coordinator;
// ksetserved -workers runs one) and answers its heartbeat probes.
//
// Usage:
//
//	ksetsweepd -addr :9090
//	ksetsweepd -addr 127.0.0.1:0 -max-concurrent 4 -max-lease 30s
//	ksetsweepd -checkpoint shards.ckpt
//	ksetsweepd -faults 'delay:dist.exec@1+3:200ms' -fault-seed 42
//
// Endpoints:
//
//	POST /dist/v1/exec       one shard grant: op + model + rank range + lease
//	GET  /dist/v1/heartbeat  failure-detector probe
//	GET  /healthz, /readyz   liveness (a worker has no warm boot: ready ⇔ live)
//	GET  /statz              exec/error/shed/heartbeat counters
//	GET  /metrics            Prometheus text exposition (engine + worker counters)
//	GET  /debug/pprof/       runtime profiles (only with -pprof)
//
// Every shard response is CRC-checksummed before it leaves the worker, so the
// coordinator detects corruption and re-dispatches; a worker that dies simply
// stops answering heartbeats and its leases expire. The -faults flag arms the
// same deterministic fault registry the chaos suite uses — crash, delay and
// corrupt-response schedules replay verbatim against a production worker.
// Byzantine drills use the dist.lie.* points (dist.lie.count,
// dist.lie.enum, dist.lie.replay): each corrupts the shard payload BEFORE
// the CRC is computed, turning the worker into a liar that checksums its own
// wrong bytes — only the coordinator's quorum cross-validation
// (-verify-fraction / -quarantine-threshold on the coordinator) catches it.
package main

import (
	"context"
	"io"
	"net/http"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/dist"
)

func main() { cli.Main("ksetsweepd", run) }

// run is the whole daemon: it parses args, serves until parent is
// cancelled or a SIGINT/SIGTERM arrives, then drains and returns nil. A
// daemon restart is the resume case by definition: a matching -checkpoint
// file is always reloaded.
func run(parent context.Context, args []string, stdout io.Writer) error {
	c := cli.New("ksetsweepd")
	maxConcurrent := c.Flags.Int("max-concurrent", 8, "concurrent shard executions admitted before shedding with 503")
	maxLease := c.Flags.Duration("max-lease", time.Minute, "hard cap on any granted lease duration")
	c.Checkpoint("checkpoint file for in-flight shard progress: saved every -checkpoint-interval and at drain, reloaded at startup so re-leased shards resume mid-range (empty = off)",
		"background save cadence for -checkpoint", func() []string { return nil })
	c.Faults("deterministic fault-injection rules, e.g. 'panic:dist.exec@3,corrupt:dist.result@2' (empty = off)")
	pprofFlag := c.Flags.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	return c.Serve(parent, args, ":9090", "shutdown grace for in-flight shard executions", func(ctx context.Context) (http.Handler, error) {
		w := dist.NewWorker(dist.WorkerConfig{
			MaxConcurrent: *maxConcurrent,
			MaxLease:      *maxLease,
			EnablePprof:   *pprofFlag,
			Checkpoint:    checkpoint.FromContext(ctx),
		})
		return w.Handler(), nil
	})
}

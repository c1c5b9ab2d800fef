// Command ksetsweepd is the distributed-sweep worker daemon: it executes
// rank-shard enumeration ops on behalf of a ksetserved or ksetexperiments
// coordinator and answers its heartbeat probes.
//
// Usage:
//
//	ksetsweepd -addr :9090
//	ksetsweepd -addr 127.0.0.1:0 -max-concurrent 4 -max-lease 30s
//	ksetsweepd -checkpoint shards.ckpt -memo-snapshot memo.snap
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
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ksettop/internal/checkpoint"
	"ksettop/internal/cli"
	"ksettop/internal/dist"
	"ksettop/internal/faultinject"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

func main() {
	if err := run(); err != nil {
		cli.Exit("ksetsweepd", err)
	}
}

func run() error {
	addr := flag.String("addr", ":9090", "listen address")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = KSETTOP_PARALLELISM or GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 8, "concurrent shard executions admitted before shedding with 503")
	maxLease := flag.Duration("max-lease", time.Minute, "hard cap on any granted lease duration")
	drainGrace := flag.Duration("drain-grace", 15*time.Second, "shutdown grace for in-flight shard executions")
	memoSnapshot := flag.String("memo-snapshot", "", "memo snapshot file: loaded at startup, rewritten every -checkpoint-interval while serving and at drain, so a restarted worker keeps its warm closures (empty = off)")
	checkpointPath := flag.String("checkpoint", "", "checkpoint file for in-flight shard progress: saved every -checkpoint-interval and at drain, reloaded at startup so re-leased shards resume mid-range (empty = off)")
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, "background save cadence for -checkpoint and -memo-snapshot")
	faults := flag.String("faults", "", "deterministic fault-injection rules, e.g. 'panic:dist.exec@3,corrupt:dist.result@2' (empty = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault-injection schedule")
	logLevel := flag.String("log-level", "info", cli.LogLevelFlagUsage)
	traceOut := flag.String("trace-out", "", cli.TraceOutFlagUsage)
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	obs.SetProcessName("ksetsweepd")
	if err := cli.ApplyLogLevelFlag(*logLevel); err != nil {
		return err
	}
	flushTrace := cli.StartTraceOut(*traceOut)
	par.SetParallelism(*parallelism)
	if err := cli.LoadMemoSnapshot(*memoSnapshot); err != nil {
		return err
	}
	if *faults != "" {
		rules, err := faultinject.ParseRules(*faults)
		if err != nil {
			return err
		}
		faultinject.Enable(*faultSeed, rules...)
		defer faultinject.Disable()
	}

	// A daemon restart is the resume case by definition: a matching
	// checkpoint is always reloaded.
	var ckpt *checkpoint.Runner
	if *checkpointPath != "" {
		ckpt = checkpoint.NewRunner(*checkpointPath, cli.JobKey("ksetsweepd"), *checkpointInterval)
		ckpt.LoadForResume()
		ckpt.Start()
	}
	w := dist.NewWorker(dist.WorkerConfig{
		MaxConcurrent: *maxConcurrent,
		MaxLease:      *maxLease,
		EnablePprof:   *pprofFlag,
		Checkpoint:    ckpt,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Background memo-snapshot saver: the worker's memoized closures are its
	// warm state, and waiting for a clean drain to persist them would lose
	// them to a SIGKILL. Cadence shared with -checkpoint.
	if *memoSnapshot != "" && *checkpointInterval > 0 {
		go func() {
			t := time.NewTicker(*checkpointInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := cli.SaveMemoSnapshot(*memoSnapshot); err != nil {
						slog.Warn("memo: background snapshot failed", "err", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	err := w.Run(ctx, *addr, *drainGrace)
	// Drain-time durability: one final shard checkpoint and memo snapshot,
	// whatever the serve loop's outcome.
	if ckpt != nil {
		ckpt.Stop()
		if serr := ckpt.SaveNow(); serr != nil {
			slog.Warn("checkpoint: drain save failed", "err", serr)
		}
	}
	if serr := cli.SaveMemoSnapshot(*memoSnapshot); serr != nil && err == nil {
		err = serr
	}
	if terr := flushTrace(); terr != nil && err == nil {
		err = terr
	}
	return err
}

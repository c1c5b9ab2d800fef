package dist

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"ksettop/internal/cli"
)

// This file is the coordinator's trust ledger: per-worker health scores fed
// by divergence and transport evidence, a circuit breaker that quarantines a
// worker whose score crosses the threshold (its leases are revoked, its ring
// vnodes are skipped in placement, its in-flight shards re-dispatch), and a
// half-open probe that re-admits it after exponential backoff by re-running
// a known-answer shard of every op it diverged on and comparing bytes.

// Evidence weights. A byte divergence (losing a quorum vote, a hedge-loser
// mismatch) is the Byzantine signal and counts full; a corrupt response is
// nearly as damning (the worker checksummed garbage); plain transport
// failures — timeouts, refused connections, 5xx — are crash-fault noise and
// count a quarter, decayed by successes so a slow-but-honest worker never
// trips.
const (
	divergenceScore = 1.0
	corruptScore    = 1.0
	transportScore  = 0.25
	successDecay    = 0.5
)

// probeModel is the model of the known-answer shards a half-open probe
// re-executes on a quarantined worker, two per op it diverged on; the
// reference bytes are computed locally once per op and cached. Tiny on
// purpose: a probe must be cheap enough to repeat forever.
const probeModel = "star:n=3"

// workerHealth is one worker's trust state, guarded by Coordinator.mu.
type workerHealth struct {
	score       float64   // accumulated divergence/transport evidence
	quarantined bool      // circuit open: excluded from placement
	since       time.Time // when the current quarantine (or extension) began
	trips       int       // consecutive failed probes + the original trip, drives backoff
	probing     bool      // a half-open probe is in flight
	// lied holds the ops the worker diverged on since its last admission.
	// Its probes cover each of them: a worker convicted of lying on enum
	// payloads must answer an enum shard correctly to earn trust back.
	lied map[string]bool
}

func (c *Coordinator) quarantineEnabled() bool { return c.cfg.QuarantineThreshold >= 0 }

// healthLocked returns worker's health record, creating it on first use.
// Callers hold c.mu.
func (c *Coordinator) healthLocked(worker string) *workerHealth {
	h := c.health[worker]
	if h == nil {
		h = &workerHealth{}
		c.health[worker] = h
	}
	return h
}

// eligible reports whether worker may receive leases: alive per the failure
// detector and not quarantined.
func (c *Coordinator) eligible(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[worker]
	return c.live[worker] && (h == nil || !h.quarantined)
}

// EligibleWorkers reports how many workers are live AND trusted — the
// placement candidate set. Falling below the degrade floor switches sweeps
// to local compute.
func (c *Coordinator) EligibleWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for w, ok := range c.live {
		if h := c.health[w]; ok && (h == nil || !h.quarantined) {
			n++
		}
	}
	return n
}

// QuarantinedWorkers reports how many workers are currently quarantined.
func (c *Coordinator) QuarantinedWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.health {
		if h.quarantined {
			n++
		}
	}
	return n
}

func (c *Coordinator) quarantinedGaugeLocked() {
	n := int64(0)
	for _, h := range c.health {
		if h.quarantined {
			n++
		}
	}
	c.met.quarantinedWorkers.Set(n)
}

// recordDivergence charges worker with one byte-divergence event on shard
// of an op sweep, remembers op for the worker's half-open probes, and trips
// quarantine at the threshold.
func (c *Coordinator) recordDivergence(worker string, shard int, op string) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.score += divergenceScore
	if h.lied == nil {
		h.lied = make(map[string]bool)
	}
	h.lied[op] = true
	c.log.Warn("dist: worker diverged", "worker", worker, "shard", shard, "op", op, "score", h.score)
	c.maybeQuarantineLocked(worker, h)
}

// recordFailure charges worker with transport-class evidence (weight
// transportScore or corruptScore).
func (c *Coordinator) recordFailure(worker string, weight float64) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	h.score += weight
	c.maybeQuarantineLocked(worker, h)
}

// recordSuccess decays worker's score on a committed result, so transient
// transport noise never accumulates into a trip.
func (c *Coordinator) recordSuccess(worker string) {
	if worker == localWorker {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.healthLocked(worker)
	if h.score > 0 {
		h.score -= successDecay
		if h.score < 0 {
			h.score = 0
		}
	}
}

func (c *Coordinator) maybeQuarantineLocked(worker string, h *workerHealth) {
	if !c.quarantineEnabled() || h.quarantined || h.score < c.cfg.QuarantineThreshold {
		return
	}
	h.quarantined = true
	h.since = time.Now()
	h.trips++
	c.met.quarantineTrips.Inc()
	c.quarantinedGaugeLocked()
	c.log.Warn("dist: worker quarantined: leases revoked, placement skipped", "worker", worker,
		"score", h.score, "threshold", c.cfg.QuarantineThreshold, "probe_in", c.quarantineBackoffLocked(h))
}

// quarantineBackoffLocked is the half-open probe delay after h.trips
// consecutive trips: QuarantineBackoff × 2^(trips−1), capped at
// quarantineBackoffMax.
func (c *Coordinator) quarantineBackoffLocked(h *workerHealth) time.Duration {
	d := c.cfg.QuarantineBackoff << uint(h.trips-1)
	if d <= 0 || d > quarantineBackoffMax {
		d = quarantineBackoffMax
	}
	return d
}

// maybeProbeQuarantined launches one half-open probe per quarantined worker
// whose backoff has elapsed. Called from the heartbeat monitors and the
// sweep event loop; the probing flag makes concurrent callers cheap no-ops.
func (c *Coordinator) maybeProbeQuarantined(ctx context.Context) {
	if !c.quarantineEnabled() {
		return
	}
	now := time.Now()
	c.mu.Lock()
	var due []string
	for w, h := range c.health {
		if h.quarantined && !h.probing && now.Sub(h.since) >= c.quarantineBackoffLocked(h) {
			h.probing = true
			due = append(due, w)
		}
	}
	c.mu.Unlock()
	for _, w := range due {
		go c.probeQuarantined(ctx, w)
	}
}

// probeQuarantined is the half-open transition: re-execute the known-answer
// shards of every op worker diverged on (count when it tripped on transport
// evidence alone) and compare bytes. A match on all of them closes the
// circuit (re-admission, score and op record reset); anything else
// re-opens it with doubled backoff.
func (c *Coordinator) probeQuarantined(ctx context.Context, worker string) {
	c.met.quarantineProbes.Inc()
	c.mu.Lock()
	ops := probeOps(c.healthLocked(worker).lied)
	c.mu.Unlock()
	ok := true
	for _, op := range ops {
		if !c.runProbe(ctx, worker, op) {
			ok = false
			break
		}
	}
	c.mu.Lock()
	h := c.healthLocked(worker)
	h.probing = false
	if ok {
		h.quarantined = false
		h.score = 0
		h.trips = 0
		h.lied = nil
		c.met.quarantineReadmissions.Inc()
		c.quarantinedGaugeLocked()
		c.mu.Unlock()
		c.log.Info("dist: worker passed its half-open probe; re-admitted", "worker", worker, "ops", strings.Join(ops, ","))
		return
	}
	h.since = time.Now()
	h.trips++
	next := c.quarantineBackoffLocked(h)
	c.mu.Unlock()
	c.log.Warn("dist: worker failed its half-open probe; quarantine extended", "worker", worker, "ops", strings.Join(ops, ","), "probe_in", next)
}

// probeOps lists the ops a half-open probe must cover, sorted: every op in
// lied, or count alone when the worker never diverged.
func probeOps(lied map[string]bool) []string {
	if len(lied) == 0 {
		return []string{OpCount}
	}
	ops := make([]string, 0, len(lied))
	for op := range lied {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// runProbe executes op's known-answer shards on worker, in order, and
// byte-compares each payload against the locally computed reference.
func (c *Coordinator) runProbe(ctx context.Context, worker, op string) bool {
	shards, err := probeReference(op)
	if err != nil {
		return false
	}
	lease := c.cfg.LeaseTTL
	if lease > 5*time.Second {
		lease = 5 * time.Second
	}
	for _, sh := range shards {
		pctx, cancel := context.WithTimeout(ctx, lease)
		payload, _, err := c.exec(pctx, worker, ExecRequest{
			Op:      op,
			Model:   probeModel,
			From:    sh.from,
			To:      sh.to,
			LeaseMs: lease.Milliseconds(),
		})
		cancel()
		if err != nil || !bytes.Equal(payload, sh.payload) {
			return false
		}
	}
	return true
}

// probeShard is one known-answer shard: a rank range of probeModel and the
// reference payload of the op over it.
type probeShard struct {
	from, to int64
	payload  []byte
}

// probeRef is the cached known answer of one op's probe.
type probeRef struct {
	once   sync.Once
	shards []probeShard
	err    error
}

// probeRefs maps an op name to its *probeRef. The probe model is fixed, so
// all coordinators share one reference per op.
var probeRefs sync.Map

// probeReference computes (once per op, process-wide) the reference
// payloads of op's probe: the whole rank range of probeModel, then its
// lower half. The two answers differ, so a worker replaying its previous
// response — the whole-range answer included, from an earlier probe —
// fails whichever shard comes next.
func probeReference(opName string) ([]probeShard, error) {
	v, _ := probeRefs.LoadOrStore(opName, new(probeRef))
	ref := v.(*probeRef)
	ref.once.Do(func() {
		op, ok := opTable[opName]
		if !ok {
			ref.err = errUnknownOp(opName)
			return
		}
		m, err := cli.ParseModel(probeModel)
		if err != nil {
			ref.err = err
			return
		}
		total, err := m.EnumerationSize()
		if err != nil {
			ref.err = err
			return
		}
		for _, to := range []int64{total, total / 2} {
			payload, err := op.Run(context.Background(), m, 0, to, nil)
			if err != nil {
				ref.err = err
				return
			}
			ref.shards = append(ref.shards, probeShard{from: 0, to: to, payload: payload})
		}
	})
	return ref.shards, ref.err
}

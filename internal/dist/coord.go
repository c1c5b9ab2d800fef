package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ksettop/internal/cli"
	"ksettop/internal/faultinject"
	"ksettop/internal/model"
	"ksettop/internal/obs"
	"ksettop/internal/par"
)

// CoordConfig tunes one Coordinator. Zero values select the defaults.
type CoordConfig struct {
	// Workers are the worker addresses (host:port). Empty means no
	// distribution: Run falls back to the local in-process engine.
	Workers []string
	// Shards overrides the shard count of a sweep (0 = 8 × workers,
	// clamped to the rank-space size). The shard count is part of the job
	// identity: a journal resume requires the same sharding.
	Shards int
	// LeaseTTL bounds one shard grant; an expired lease is a forfeited
	// shard. Default 15s.
	LeaseTTL time.Duration
	// HeartbeatEvery is the failure-detector probe period. Default 500ms.
	HeartbeatEvery time.Duration
	// HeartbeatMisses consecutive failed probes declare a worker dead (its
	// leases are revoked and re-dispatched). Default 3.
	HeartbeatMisses int
	// MaxAttempts bounds grants per shard (hedges included). Default 6.
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential re-dispatch backoff
	// (deterministic jitter on top). Defaults 50ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Straggler hedging: a shard outstanding longer than
	// HedgeFactor × (HedgeQuantile of committed-shard durations) — never
	// below HedgeMin, and only once ≥ 3 samples exist — is speculatively
	// re-dispatched to the next replica. Defaults 0.95 / 2.0 / 200ms.
	HedgeQuantile  float64
	HedgeFactor    float64
	HedgeMin       time.Duration
	DisableHedging bool
	// MinRanks is the rank-space size below which CountClosure declines
	// distribution (HTTP overhead dominates tiny sweeps). Default 4096.
	MinRanks int64
	// NoWorkerGrace is how long a sweep waits with zero live workers before
	// degrading to local compute (or failing, with DisableDegrade). Default
	// 10s.
	NoWorkerGrace time.Duration
	// VerifyFraction ∈ [0, 1] is the deterministic fraction of committed
	// shards re-executed on a distinct ring replica before the merge, the
	// Byzantine cross-validation a CRC check cannot provide. 0 disables
	// verification (shards flagged by a disagreeing duplicate are still
	// verified).
	VerifyFraction float64
	// QuarantineThreshold is the per-worker divergence score that trips
	// quarantine (divergences count 1.0, corrupt responses 1.0, transport
	// failures 0.25, successes decay 0.5). 0 selects the default 3;
	// negative disables quarantine entirely.
	QuarantineThreshold float64
	// QuarantineBackoff is the base of the half-open probe schedule of a
	// quarantined worker: base × 2^(trips−1), capped at
	// quarantineBackoffMax. Default 1s.
	QuarantineBackoff time.Duration
	// DisableDegrade makes a sweep fail instead of degrading to local
	// compute when no live trusted worker is left.
	DisableDegrade bool
	// Seed drives the deterministic retry jitter. Default 1.
	Seed uint64
	// JournalPath, when set, journals shard commits so a killed coordinator
	// warm-restarts the sweep without recomputing committed shards.
	JournalPath string
	// Log receives operational log lines. Default slog.Default() (JSON on
	// stderr).
	Log *slog.Logger
}

// Fixed coordinator tuning.
const (
	// quorumReplicas is how many distinct per-worker results a divergence
	// majority vote needs before it can decide; short of replicas, a local
	// recompute arbitrates.
	quorumReplicas = 3
	// quarantineBackoffMax caps the half-open probe backoff.
	quarantineBackoffMax = 5 * time.Minute
)

func (c CoordConfig) withDefaults() CoordConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeFactor <= 0 {
		c.HedgeFactor = 2.0
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 200 * time.Millisecond
	}
	if c.MinRanks <= 0 {
		c.MinRanks = 4096
	}
	if c.NoWorkerGrace <= 0 {
		c.NoWorkerGrace = 10 * time.Second
	}
	if c.VerifyFraction < 0 {
		c.VerifyFraction = 0
	}
	if c.VerifyFraction > 1 {
		c.VerifyFraction = 1
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// CoordStats is a point-in-time snapshot of the coordinator counters,
// merged into /statz by ksetserved.
type CoordStats struct {
	Workers              int    `json:"workers"`                // configured workers
	LiveWorkers          int    `json:"live_workers"`           // passing the failure detector now
	Sweeps               uint64 `json:"sweeps"`                 // sweeps completed
	SweepsFailed         uint64 `json:"sweeps_failed"`          // sweeps that returned an error
	ShardsCommitted      uint64 `json:"shards_committed"`       // shard results accepted
	LeasesGranted        uint64 `json:"leases_granted"`         // shard grants dispatched (retries + hedges included)
	LeaseExpiries        uint64 `json:"lease_expiries"`         // grants that timed out or were revoked
	Retries              uint64 `json:"retries"`                // failed grants scheduled for re-dispatch
	Hedges               uint64 `json:"hedges"`                 // speculative straggler re-dispatches
	HedgeWins            uint64 `json:"hedge_wins"`             // hedged grants that committed first
	CorruptResponses     uint64 `json:"corrupt_responses"`      // payloads failing their checksum
	DuplicateResults     uint64 `json:"duplicate_results"`      // completions for already-committed shards
	CrossCheckMismatches uint64 `json:"cross_check_mismatches"` // duplicate results that disagreed byte-wise
	WorkerDeaths         uint64 `json:"worker_deaths"`          // failure-detector death declarations
	WorkerRejoins        uint64 `json:"worker_rejoins"`         // dead workers that came back
	JournalResumes       uint64 `json:"journal_resumes"`        // sweeps warm-restarted from a journal
	JournalSkips         uint64 `json:"journal_skips"`          // shards recovered from the journal (not recomputed)
	BudgetTrips          uint64 `json:"budget_trips"`           // sweeps stopped by the shared budget

	// Byzantine trust layer.
	VerifySelected         uint64 `json:"verify_selected"`         // shards flagged for cross-validation
	VerifyOK               uint64 `json:"verify_ok"`               // verifications settled by an agreeing replica
	VerifyMismatches       uint64 `json:"verify_mismatches"`       // verification replicas disagreeing with the commit
	VerifyQuorumVotes      uint64 `json:"verify_quorum_votes"`     // verification replica votes collected
	VerifyLocalArbiter     uint64 `json:"verify_local_arbiter"`    // verifications arbitrated by local recompute
	VerifyOverturned       uint64 `json:"verify_overturned"`       // committed shard results replaced by the decided truth
	DivergenceEvents       uint64 `json:"divergence_events"`       // byte-divergence events observed (duplicates + verification)
	QuarantineTrips        uint64 `json:"quarantine_trips"`        // workers tripped into quarantine
	QuarantineProbes       uint64 `json:"quarantine_probes"`       // half-open re-admission probes sent
	QuarantineReadmissions uint64 `json:"quarantine_readmissions"` // quarantined workers re-admitted
	QuarantinedWorkers     int    `json:"quarantined_workers"`     // workers quarantined now
	DegradedSweeps         uint64 `json:"degraded_sweeps"`         // sweeps (or counts) served by local compute below the trust floor
}

// Coordinator drives distributed sweeps over a fixed worker set, detecting
// failures by lease expiry and heartbeats and recovering by deterministic
// ring re-dispatch. CountClosure sweeps one closure count across the fleet.
type Coordinator struct {
	cfg    CoordConfig
	ring   *Ring
	client *http.Client
	log    *slog.Logger
	met    coordMetrics

	mu      sync.Mutex
	live    map[string]bool
	health  map[string]*workerHealth
	started bool

	runMu sync.Mutex // one sweep at a time: the journal is per-sweep state
}

// coordMetrics is the coordinator's event counters, held in a
// per-instance obs.Registry so tests can spin up many coordinators
// in-process without sharing state, /statz snapshots them in one pass,
// and ksetserved exposes them on /metrics.
type coordMetrics struct {
	reg                                        *obs.Registry
	sweeps, sweepsFailed, shardsCommitted      *obs.Counter
	leasesGranted, leaseExpiries, retries      *obs.Counter
	hedges, hedgeWins                          *obs.Counter
	corruptResponses, duplicateResults         *obs.Counter
	crossCheckMismatches                       *obs.Counter
	workerDeaths, workerRejoins                *obs.Counter
	journalResumes, journalSkips, budgetTrips  *obs.Counter
	verifySelected, verifyOK, verifyMismatches *obs.Counter
	verifyQuorumVotes, verifyLocalArbiter      *obs.Counter
	verifyOverturned, divergenceEvents         *obs.Counter
	quarantineTrips, quarantineProbes          *obs.Counter
	quarantineReadmissions, degraded           *obs.Counter
	liveWorkers, quarantinedWorkers            *obs.Gauge
}

func newCoordMetrics() coordMetrics {
	r := obs.NewRegistry()
	return coordMetrics{
		reg:             r,
		sweeps:          r.Counter("kset_dist_coord_sweeps_total", "sweeps completed"),
		sweepsFailed:    r.Counter("kset_dist_coord_sweeps_failed_total", "sweeps that returned an error"),
		shardsCommitted: r.Counter("kset_dist_coord_shards_committed_total", "shard results accepted"),
		leasesGranted:   r.Counter("kset_dist_coord_leases_granted_total", "shard grants dispatched (retries + hedges included)"),
		leaseExpiries:   r.Counter("kset_dist_coord_lease_expiries_total", "grants that timed out or were revoked"),
		retries:         r.Counter("kset_dist_coord_retries_total", "failed grants scheduled for re-dispatch"),
		hedges:          r.Counter("kset_dist_coord_hedges_total", "speculative straggler re-dispatches"),
		hedgeWins:       r.Counter("kset_dist_coord_hedge_wins_total", "hedged grants that committed first"),
		corruptResponses: r.Counter("kset_dist_coord_corrupt_responses_total",
			"payloads failing their checksum"),
		duplicateResults: r.Counter("kset_dist_coord_duplicate_results_total",
			"completions for already-committed shards"),
		crossCheckMismatches: r.Counter("kset_dist_coord_cross_check_mismatches_total",
			"duplicate results that disagreed byte-wise"),
		workerDeaths:   r.Counter("kset_dist_coord_worker_deaths_total", "failure-detector death declarations"),
		workerRejoins:  r.Counter("kset_dist_coord_worker_rejoins_total", "dead workers that came back"),
		journalResumes: r.Counter("kset_dist_coord_journal_resumes_total", "sweeps warm-restarted from a journal"),
		journalSkips: r.Counter("kset_dist_coord_journal_skips_total",
			"shards recovered from the journal (not recomputed)"),
		budgetTrips: r.Counter("kset_dist_coord_budget_trips_total", "sweeps stopped by the shared budget"),
		verifySelected: r.Counter("kset_dist_coord_verify_selected_total",
			"shards flagged for Byzantine cross-validation"),
		verifyOK: r.Counter("kset_dist_coord_verify_ok_total",
			"verifications settled by an agreeing replica"),
		verifyMismatches: r.Counter("kset_dist_coord_verify_mismatches_total",
			"verification replicas disagreeing with the committed result"),
		verifyQuorumVotes: r.Counter("kset_dist_coord_verify_quorum_votes_total",
			"verification replica votes collected"),
		verifyLocalArbiter: r.Counter("kset_dist_coord_verify_local_arbiter_total",
			"verifications arbitrated by deterministic local recompute"),
		verifyOverturned: r.Counter("kset_dist_coord_verify_overturned_total",
			"committed shard results replaced by the decided truth"),
		divergenceEvents: r.Counter("kset_dist_coord_divergence_events_total",
			"byte-divergence events observed (duplicate cross-checks + verification)"),
		quarantineTrips: r.Counter("kset_dist_coord_quarantine_trips_total",
			"workers tripped into quarantine by their divergence score"),
		quarantineProbes: r.Counter("kset_dist_coord_quarantine_probes_total",
			"half-open re-admission probes sent to quarantined workers"),
		quarantineReadmissions: r.Counter("kset_dist_coord_quarantine_readmissions_total",
			"quarantined workers re-admitted after a passing probe"),
		degraded: r.Counter("kset_dist_coord_degraded_sweeps_total",
			"sweeps or counts served by local compute below the trust floor"),
		liveWorkers:        r.Gauge("kset_dist_coord_live_workers", "workers passing the failure detector"),
		quarantinedWorkers: r.Gauge("kset_dist_coord_quarantined_workers", "workers quarantined now"),
	}
}

// NewCoordinator builds a Coordinator over cfg.Workers. All workers start
// presumed live; call Start to run the heartbeat failure detector (lease
// expiry alone still guarantees progress without it).
func NewCoordinator(cfg CoordConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(defaultVNodes),
		client: &http.Client{},
		log:    cfg.Log,
		met:    newCoordMetrics(),
		live:   make(map[string]bool, len(cfg.Workers)),
		health: make(map[string]*workerHealth, len(cfg.Workers)),
	}
	for _, w := range cfg.Workers {
		c.ring.Add(w)
		c.live[w] = true
		c.health[w] = &workerHealth{}
	}
	c.met.liveWorkers.Set(int64(len(c.live)))
	return c
}

// MetricsRegistry exposes the coordinator's per-instance metric
// registry (ksetserved merges it into /metrics).
func (c *Coordinator) MetricsRegistry() *obs.Registry {
	if c == nil {
		return nil
	}
	return c.met.reg
}

// Start launches one heartbeat monitor per worker; they run until ctx is
// cancelled. Calling Start more than once is a no-op.
func (c *Coordinator) Start(ctx context.Context) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for _, w := range c.cfg.Workers {
		go c.monitor(ctx, w)
	}
}

// monitor is one worker's failure detector: HeartbeatMisses consecutive
// failed probes declare it dead (revoking its leases), one success revives
// it. Each probe interval carries seeded ±20% jitter so several
// coordinators watching the same fleet never synchronize probe bursts, and
// each tick also gives due half-open quarantine probes a chance to run.
func (c *Coordinator) monitor(ctx context.Context, worker string) {
	wh := ringHash(worker)
	var tick uint64
	t := time.NewTimer(c.probeInterval(wh, tick))
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		tick++
		t.Reset(c.probeInterval(wh, tick))
		if c.probe(ctx, worker) {
			misses = 0
			c.setLive(worker, true)
		} else {
			misses++
			if misses >= c.cfg.HeartbeatMisses {
				c.setLive(worker, false)
			}
		}
		c.maybeProbeQuarantined(ctx)
	}
}

// probeInterval is HeartbeatEvery × [0.8, 1.2), deterministic in (seed,
// worker, tick).
func (c *Coordinator) probeInterval(workerHash, tick uint64) time.Duration {
	base := c.cfg.HeartbeatEvery
	span := uint64(base) * 2 / 5
	if span == 0 {
		return base
	}
	j := splitmix64(c.cfg.Seed ^ workerHash ^ (tick * 0x9e3779b97f4a7c15))
	return base*4/5 + time.Duration(j%span)
}

func (c *Coordinator) probe(ctx context.Context, worker string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.HeartbeatEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+worker+"/dist/v1/heartbeat", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (c *Coordinator) setLive(worker string, live bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live[worker] == live {
		return
	}
	c.live[worker] = live
	n := int64(0)
	for _, ok := range c.live {
		if ok {
			n++
		}
	}
	c.met.liveWorkers.Set(n)
	if live {
		c.met.workerRejoins.Inc()
		c.log.Info("dist: worker rejoined", "worker", worker)
	} else {
		c.met.workerDeaths.Inc()
		c.log.Warn("dist: worker declared dead", "worker", worker, "missed_heartbeats", c.cfg.HeartbeatMisses)
	}
}

func (c *Coordinator) isLive(worker string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[worker]
}

// LiveWorkers reports how many workers currently pass the failure detector.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ok := range c.live {
		if ok {
			n++
		}
	}
	return n
}

// Stats returns the current counters, snapshotted through the registry
// in a single pass (one lock acquisition) rather than field-by-field
// loads, so the struct is one coherent point-in-time view.
func (c *Coordinator) Stats() CoordStats {
	v := c.met.reg.Values()
	u := func(name string) uint64 { return uint64(v[name]) }
	return CoordStats{
		Workers:              len(c.cfg.Workers),
		LiveWorkers:          int(v["kset_dist_coord_live_workers"]),
		Sweeps:               u("kset_dist_coord_sweeps_total"),
		SweepsFailed:         u("kset_dist_coord_sweeps_failed_total"),
		ShardsCommitted:      u("kset_dist_coord_shards_committed_total"),
		LeasesGranted:        u("kset_dist_coord_leases_granted_total"),
		LeaseExpiries:        u("kset_dist_coord_lease_expiries_total"),
		Retries:              u("kset_dist_coord_retries_total"),
		Hedges:               u("kset_dist_coord_hedges_total"),
		HedgeWins:            u("kset_dist_coord_hedge_wins_total"),
		CorruptResponses:     u("kset_dist_coord_corrupt_responses_total"),
		DuplicateResults:     u("kset_dist_coord_duplicate_results_total"),
		CrossCheckMismatches: u("kset_dist_coord_cross_check_mismatches_total"),
		WorkerDeaths:         u("kset_dist_coord_worker_deaths_total"),
		WorkerRejoins:        u("kset_dist_coord_worker_rejoins_total"),
		JournalResumes:       u("kset_dist_coord_journal_resumes_total"),
		JournalSkips:         u("kset_dist_coord_journal_skips_total"),
		BudgetTrips:          u("kset_dist_coord_budget_trips_total"),

		VerifySelected:         u("kset_dist_coord_verify_selected_total"),
		VerifyOK:               u("kset_dist_coord_verify_ok_total"),
		VerifyMismatches:       u("kset_dist_coord_verify_mismatches_total"),
		VerifyQuorumVotes:      u("kset_dist_coord_verify_quorum_votes_total"),
		VerifyLocalArbiter:     u("kset_dist_coord_verify_local_arbiter_total"),
		VerifyOverturned:       u("kset_dist_coord_verify_overturned_total"),
		DivergenceEvents:       u("kset_dist_coord_divergence_events_total"),
		QuarantineTrips:        u("kset_dist_coord_quarantine_trips_total"),
		QuarantineProbes:       u("kset_dist_coord_quarantine_probes_total"),
		QuarantineReadmissions: u("kset_dist_coord_quarantine_readmissions_total"),
		QuarantinedWorkers:     int(v["kset_dist_coord_quarantined_workers"]),
		DegradedSweeps:         u("kset_dist_coord_degraded_sweeps_total"),
	}
}

// splitmix64 drives the deterministic retry jitter (same PRNG family the
// fault injector uses, so chaos schedules replay exactly).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the re-dispatch delay after `attempt` failed grants of
// shard: RetryBase × 2^(attempt−1), capped at RetryMax, plus a deterministic
// jitter in [0, RetryBase) so synchronized failures do not re-dispatch in
// lockstep.
func (c *Coordinator) backoff(shard, attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt-1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	j := splitmix64(c.cfg.Seed ^ uint64(shard)<<32 ^ uint64(attempt))
	return d + time.Duration(j%uint64(c.cfg.RetryBase))
}

// grant is one outstanding shard lease.
type grant struct {
	worker  string
	started time.Time
	cancel  context.CancelFunc
	hedge   bool
	verify  bool // a verification re-execution, not a placement grant
}

// shardState is the coordinator-side life of one rank shard.
type shardState struct {
	idx       int
	from, to  int64
	key       string
	committed bool
	result    []byte
	attempts  int
	grants    []*grant
	nextTry   time.Time
	lastErr   error

	// Byzantine cross-validation state.
	committedBy   string            // worker whose bytes committed ("(local)" for degraded compute)
	journaled     bool              // commit (or correction) written to the journal
	needVerify    bool              // selected for (or forced into) verification
	verified      bool              // verification settled
	arbiter       bool              // local-recompute arbiter in flight
	votes         map[string][]byte // per-worker result bytes, committer included
	verifyTried   map[string]bool   // workers already asked to verify (failures included)
	verifyNextTry time.Time         // backoff after a failed verification attempt
}

// completion is one grant's outcome, posted by its sender goroutine.
type completion struct {
	shard   int
	g       *grant
	payload []byte
	spans   []obs.SpanData // worker-side spans for the traced request
	err     error
	elapsed time.Duration
}

// errCorruptResponse marks a payload failing its checksum.
var errCorruptResponse = errors.New("dist: corrupt shard response (checksum mismatch)")

// Run executes job across the configured workers and returns the merged
// result — byte-identical to the sequential engine's output for the same
// job, whatever crashes, expiries, retries or hedges happened on the way.
// With no workers configured it falls back to the local in-process engine.
func (c *Coordinator) Run(ctx context.Context, job Job) ([]byte, error) {
	ctx, span := obs.StartSpan(ctx, "dist.sweep")
	span.SetAttr("op", job.Op)
	span.SetAttr("model", job.Model)
	defer span.End()
	out, err := c.run(ctx, job)
	if err != nil {
		c.met.sweepsFailed.Inc()
		span.SetAttr("error", err.Error())
		return nil, err
	}
	c.met.sweeps.Inc()
	return out, nil
}

func (c *Coordinator) run(ctx context.Context, job Job) ([]byte, error) {
	if len(c.cfg.Workers) == 0 {
		return RunLocal(ctx, job, c.cfg.Shards)
	}
	op, ok := opTable[job.Op]
	if !ok {
		return nil, fmt.Errorf("dist: unknown op %q", job.Op)
	}
	m, err := cli.ParseModel(job.Model)
	if err != nil {
		return nil, err
	}
	total, err := m.EnumerationSize()
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return op.Merge(nil)
	}
	shards := c.cfg.Shards
	if shards <= 0 {
		shards = 8 * len(c.cfg.Workers)
	}
	if int64(shards) > total {
		shards = int(total)
	}

	c.runMu.Lock()
	defer c.runMu.Unlock()

	var jr *Journal
	commits := map[int][]byte{}
	if c.cfg.JournalPath != "" {
		var resumed bool
		jr, commits, resumed, err = OpenJournal(c.cfg.JournalPath, jobKey(job, m, total, shards))
		if err != nil {
			return nil, err
		}
		if resumed {
			c.met.journalResumes.Inc()
			c.met.journalSkips.Add(uint64(len(commits)))
			c.log.Info("dist: resumed sweep from journal", "committed", len(commits), "shards", shards)
		}
	}
	closeJournal := true
	defer func() {
		if jr != nil && closeJournal {
			jr.Close()
		}
	}()

	budget := NewBudget(job.Budget)
	v := c.newVerifier(job, op, m, jr)
	states := make([]*shardState, shards)
	remaining := 0
	for i := 0; i < shards; i++ {
		from, to := par.ShardBounds(total, shards, i)
		st := &shardState{
			idx: i, from: from, to: to, key: "shard/" + strconv.Itoa(i),
			votes:       map[string][]byte{},
			verifyTried: map[string]bool{},
		}
		if p, ok := commits[i]; ok {
			// Journal-recovered shards were verified (or accepted) by the
			// previous incarnation; they are not re-verified.
			st.committed = true
			st.result = p
			st.journaled = true
			st.verified = true
		} else {
			remaining++
			if v.selected(i) {
				st.needVerify = true
				v.pending++
				c.met.verifySelected.Inc()
			}
		}
		states[i] = st
	}

	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	done := make(chan completion, 64)
	var samples []time.Duration // committed-grant durations, for the hedge threshold
	var noWorkerSince time.Time

	tick := c.cfg.LeaseTTL / 20
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	fail := func(err error) ([]byte, error) {
		cancelAll()
		return nil, err
	}

	for remaining > 0 || v.pending > 0 {
		now := time.Now()

		// Revoke leases held by workers the failure detector declared dead
		// or the trust layer quarantined: cancelling the grant context fails
		// the send immediately, which re-dispatches the shard (or its
		// verification) to the next ring replica.
		for _, st := range states {
			for _, g := range st.grants {
				if !c.eligible(g.worker) {
					g.cancel()
				}
			}
		}

		// Trust floor: with no live-and-trusted worker left, serve the rest
		// of the sweep from local compute instead of stalling — immediately
		// if quarantine emptied the fleet, after NoWorkerGrace if workers
		// are merely dead.
		if c.EligibleWorkers() == 0 {
			reason := ""
			if q := c.QuarantinedWorkers(); q > 0 {
				reason = fmt.Sprintf("no live trusted workers (%d quarantined)", q)
			} else if noWorkerSince.IsZero() {
				noWorkerSince = now
			} else if now.Sub(noWorkerSince) > c.cfg.NoWorkerGrace {
				reason = fmt.Sprintf("no live workers for %s", c.cfg.NoWorkerGrace)
			}
			if reason != "" {
				if c.cfg.DisableDegrade {
					return fail(fmt.Errorf("dist: %s", reason))
				}
				c.met.degraded.Inc()
				c.log.Warn("dist: degrading sweep to local compute", "reason", reason)
				cancelAll()
				if err := c.finishLocal(ctx, v, states, total, budget); err != nil {
					return nil, err
				}
				break
			}
		} else {
			noWorkerSince = time.Time{}
		}

		// Dispatch: fresh grants, backoff retries, straggler hedges.
		threshold := hedgeThreshold(samples, c.cfg)
		for _, st := range states {
			if st.committed || budget.Tripped() {
				continue
			}
			if len(st.grants) == 0 {
				if st.attempts >= c.cfg.MaxAttempts {
					return fail(fmt.Errorf("dist: shard %d failed after %d attempts: %w", st.idx, st.attempts, st.lastErr))
				}
				if now.Before(st.nextTry) {
					continue
				}
				target, ok := c.pickWorker(st.key, st.attempts)
				if !ok {
					continue
				}
				c.launch(runCtx, job, st, target, false, done)
				continue
			}
			// Straggler hedge: exactly one grant outstanding, past the
			// percentile threshold, attempts left, and a distinct replica
			// available.
			if c.cfg.DisableHedging || len(st.grants) != 1 || threshold <= 0 || st.attempts >= c.cfg.MaxAttempts {
				continue
			}
			if now.Sub(st.grants[0].started) < threshold {
				continue
			}
			target, ok := c.pickWorker(st.key, st.attempts)
			if !ok || target == st.grants[0].worker {
				continue
			}
			c.met.hedges.Inc()
			c.launch(runCtx, job, st, target, true, done)
		}

		// Verification probes for committed-but-unsettled shards, and
		// half-open re-admission probes for quarantined workers.
		v.dispatch(runCtx, states, done, now)
		c.maybeProbeQuarantined(runCtx)

		select {
		case <-runCtx.Done():
			return fail(fmt.Errorf("dist: sweep aborted: %w", context.Cause(runCtx)))
		case <-ticker.C:
		case comp := <-done:
			st := states[comp.shard]
			for i, g := range st.grants {
				if g == comp.g {
					st.grants = append(st.grants[:i], st.grants[i+1:]...)
					break
				}
			}
			if comp.g.verify {
				if err := v.onCompletion(st, comp); err != nil {
					return fail(err)
				}
				continue
			}
			if st.committed {
				// First-committed wins; a duplicate completion (hedge or
				// retry racing the winner) cross-checks — an agreeing one is
				// a free confirming vote, a disagreeing one is a recorded
				// divergence event forcing the shard into verification.
				if comp.err == nil {
					if err := v.onDuplicate(st, comp); err != nil {
						return fail(err)
					}
				}
				continue
			}
			if comp.err != nil {
				st.lastErr = fmt.Errorf("worker %s: %w", comp.g.worker, comp.err)
				if errors.Is(comp.err, errCorruptResponse) {
					c.met.corruptResponses.Inc()
				}
				if errors.Is(comp.err, context.DeadlineExceeded) || errors.Is(comp.err, context.Canceled) {
					c.met.leaseExpiries.Inc()
				}
				c.recordFailure(comp.g.worker, failureWeight(comp.err))
				c.met.retries.Inc()
				st.nextTry = now.Add(c.backoff(st.idx, st.attempts))
				continue
			}
			// Commit. The fault hook models the coordinator being killed at
			// this exact commit point: the shard is NOT journaled and the
			// sweep dies; a restart resumes from the journaled prefix.
			// Verify-selected shards journal at verification settlement
			// instead, so a warm restart never trusts unverified bytes.
			if err := faultinject.Hit(faultinject.PointDistCommit); err != nil {
				return fail(fmt.Errorf("dist: coordinator killed at commit of shard %d: %w", st.idx, err))
			}
			if jr != nil && !st.needVerify {
				if err := jr.Append(st.idx, comp.payload); err != nil {
					return fail(err)
				}
				st.journaled = true
			}
			st.committed = true
			st.committedBy = comp.g.worker
			st.result = comp.payload
			st.votes[comp.g.worker] = comp.payload
			remaining--
			c.met.shardsCommitted.Inc()
			c.recordSuccess(comp.g.worker)
			obs.ImportSpans(comp.spans)
			samples = append(samples, comp.elapsed)
			if comp.g.hedge {
				c.met.hedgeWins.Inc()
			}
			if err := budget.Charge(st.to - st.from); err != nil {
				c.met.budgetTrips.Inc()
				return fail(err)
			}
		}
	}

	parts := make([][]byte, shards)
	for i, st := range states {
		parts[i] = st.result
	}
	out, err := op.Merge(parts)
	if err != nil {
		return nil, err
	}
	if jr != nil {
		closeJournal = false
		if err := jr.Remove(); err != nil {
			c.log.Warn("dist: removing completed journal failed", "err", err)
		}
	}
	return out, nil
}

// pickWorker resolves attempt number `attempt` of a shard to an eligible
// worker: the shard's ring sequence (owner first, then the deterministic
// handoff order) filtered to live, non-quarantined members, indexed
// cyclically by attempt. Quarantined workers are skipped entirely — their
// vnodes never appear in the candidate set, so attempts are never burned
// against them.
func (c *Coordinator) pickWorker(key string, attempt int) (string, bool) {
	seq := c.ring.Sequence(key, len(c.cfg.Workers))
	c.mu.Lock()
	liveSeq := seq[:0:0]
	for _, w := range seq {
		if h := c.health[w]; c.live[w] && (h == nil || !h.quarantined) {
			liveSeq = append(liveSeq, w)
		}
	}
	c.mu.Unlock()
	if len(liveSeq) == 0 {
		return "", false
	}
	return liveSeq[attempt%len(liveSeq)], true
}

// launch grants shard st to worker: a lease-bounded exec request whose
// outcome lands on done.
func (c *Coordinator) launch(runCtx context.Context, job Job, st *shardState, worker string, hedge bool, done chan completion) {
	// The grant span parents the worker-side spans: its scope rides the
	// X-Kset-Trace header, and the worker's collected spans come back in
	// the ExecResponse, stitching one cross-process tree.
	spanCtx, span := obs.StartSpan(runCtx, "dist.grant")
	span.SetInt("shard", int64(st.idx))
	span.SetAttr("worker", worker)
	if hedge {
		span.SetAttr("hedge", "true")
	}
	gctx, cancel := context.WithTimeout(spanCtx, c.cfg.LeaseTTL)
	g := &grant{worker: worker, started: time.Now(), cancel: cancel, hedge: hedge}
	st.grants = append(st.grants, g)
	st.attempts++
	c.met.leasesGranted.Inc()
	req := ExecRequest{
		Op:      job.Op,
		Model:   job.Model,
		Shard:   st.idx,
		From:    st.from,
		To:      st.to,
		LeaseMs: c.cfg.LeaseTTL.Milliseconds(),
	}
	shard := st.idx
	go func() {
		defer cancel()
		payload, spans, err := c.exec(gctx, worker, req)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		comp := completion{shard: shard, g: g, payload: payload, spans: spans, err: err, elapsed: time.Since(g.started)}
		select {
		case done <- comp:
		case <-runCtx.Done():
		}
	}()
}

// exec performs one grant's HTTP round-trip and verifies the payload
// checksum.
func (c *Coordinator) exec(ctx context.Context, worker string, req ExecRequest) ([]byte, []obs.SpanData, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+worker+"/dist/v1/exec", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if h := obs.TraceHeader(ctx); h != "" {
		hreq.Header.Set(obs.TraceHeaderName, h)
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Normalize transport-wrapped cancellations so the event loop's
			// lease-expiry classification sees the context sentinel.
			return nil, nil, fmt.Errorf("lease: %w", ctxErr)
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(data, 200))
	}
	var er ExecResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return nil, nil, err
	}
	if crc32.ChecksumIEEE(er.Payload) != er.CRC {
		return nil, er.Spans, errCorruptResponse
	}
	return er.Payload, er.Spans, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// hedgeThreshold computes the straggler cutoff from committed-grant
// durations: HedgeFactor × the HedgeQuantile percentile, floored at
// HedgeMin; 0 (no hedging) until 3 samples exist.
func hedgeThreshold(samples []time.Duration, cfg CoordConfig) time.Duration {
	if len(samples) < 3 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := int(cfg.HedgeQuantile * float64(len(sorted)-1))
	th := time.Duration(cfg.HedgeFactor * float64(sorted[q]))
	if th < cfg.HedgeMin {
		th = cfg.HedgeMin
	}
	return th
}

// CountClosure counts m's closure by a rank sweep across the worker fleet.
// Tiny rank spaces, a dead fleet, or a failed sweep (budget trips excepted —
// those are the caller's answer) decline with handled=false, so the caller
// can count locally instead (model.GraphCountCtx).
func (c *Coordinator) CountClosure(ctx context.Context, m *model.ClosedAbove) (int64, bool, error) {
	if c == nil || len(c.cfg.Workers) == 0 {
		return 0, false, nil
	}
	size, err := m.EnumerationSize()
	if err != nil || size < c.cfg.MinRanks {
		return 0, false, nil
	}
	if c.EligibleWorkers() == 0 {
		if q := c.QuarantinedWorkers(); q > 0 {
			// Degraded serving: the fleet is up but untrusted, so the
			// caller's local engine answers.
			c.met.degraded.Inc()
			c.log.Warn("dist: no live trusted workers; serving count from the local engine", "quarantined", q)
		}
		return 0, false, nil
	}
	out, err := c.Run(ctx, Job{Op: OpCount, Model: cli.FormatModel(m)})
	if err != nil {
		if errors.Is(err, model.ErrEnumerationBudget) {
			return 0, true, err
		}
		c.log.Warn("dist: distributed count failed; falling back to local engine", "err", err)
		return 0, false, nil
	}
	count, err := DecodeCount(out)
	if err != nil {
		return 0, true, err
	}
	return count, true, nil
}

// Package faultinject is a deterministic, seeded fault-injection registry
// used by the chaos test suite and the -faults flag of cmd/ksetserved.
//
// Injection sites across the codebase call Hit(point) (or Corrupt,
// CompressDeadline) at well-known named points — e.g. "par.task" before a
// work-stealing deque task runs, "memo.snapshot.load" on the snapshot byte
// stream. With no rules armed the hooks are a single atomic load, so the
// hot paths pay nothing in production. Arming rules is test/operator-only:
// Enable installs a rule set plus a seed, and every fault fires at a
// deterministic hit ordinal per point, so a chaos run with a fixed seed and
// parallelism replays the same fault schedule.
//
// The package deliberately has no build tags: the ROADMAP calls for
// production binaries whose failure paths are exercised by the same code
// that ships.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection point names used across the repo. Points are plain strings so
// packages can add sites without touching this list, but the well-known ones
// are collected here for discoverability and for ParseRules validation hints.
const (
	PointParShard     = "par.shard"     // before a pool worker scans a shard
	PointParTask      = "par.task"      // before a deque worker runs a task
	PointSolverTask   = "solver.task"   // before a solver subtree task runs
	PointSnapshotLoad = "memo.snapshot" // snapshot byte stream on load
	PointSnapshotSync = "memo.sync"     // before a snapshot's temp file is fsynced (error = fsync failure)
	PointServeRequest = "serve.request" // before a service request is handled

	// Distributed sweep tier (internal/dist) injection sites. Worker-side
	// rules model crashed, stalled or lying workers; coordinator-side rules
	// model a coordinator killed mid-sweep and a journal rotting on disk.
	PointDistExec      = "dist.exec"      // worker: before a shard executes (error = shard failure, panic = worker crash, delay = straggler)
	PointDistResult    = "dist.result"    // worker: result payload AFTER checksumming (corrupt = transport corruption, caught by CRC)
	PointDistHeartbeat = "dist.heartbeat" // worker: heartbeat handler (error = network partition from the coordinator)
	PointDistCommit    = "dist.commit"    // coordinator: before a shard commit is journaled (error = coordinator killed at that commit point)
	PointDistJournal   = "dist.journal"   // coordinator: journal byte stream on warm-restart load

	// Byzantine lie sites in the worker: each mutates a shard result BEFORE
	// the response checksum is computed, so the wire payload is well-formed
	// and CRC-consistent but WRONG — invisible to the coordinator's
	// corruption check, catchable only by quorum cross-validation. Arm them
	// with error-action rules; the rule firing is the lie trigger (no error
	// ever escapes the worker, it just lies).
	PointDistLieCount  = "dist.lie.count"  // worker: off-by-one count payload
	PointDistLieEnum   = "dist.lie.enum"   // worker: truncated (odd hits) / rotated (even hits) enum payload
	PointDistLieReplay = "dist.lie.replay" // worker: replays its previous (stale) shard result

	// Durable-run checkpoint sites (internal/checkpoint). Write/fsync errors
	// model a full disk or a crash between write and rename; a corrupt rule
	// on the write point models a torn write that the CRCs must catch at the
	// next load; the load point models on-disk rot of an existing checkpoint.
	PointCheckpointWrite = "checkpoint.write" // before the encoded image is written (error = write failure, corrupt = torn write)
	PointCheckpointFsync = "checkpoint.fsync" // before the temp file is fsynced (error = fsync failure)
	PointCheckpointLoad  = "checkpoint.load"  // checkpoint byte stream on resume load (error = unreadable file, corrupt = rot)
)

// Action is what a rule does when it fires.
type Action int

const (
	// ActionError makes Hit return the rule's error.
	ActionError Action = iota
	// ActionPanic makes Hit panic with a descriptive value.
	ActionPanic
	// ActionDelay makes Hit sleep for the rule's Delay before returning nil.
	ActionDelay
	// ActionCorrupt makes Corrupt flip seeded bits in the payload. Hit
	// ignores corrupt rules; only Corrupt consumes them.
	ActionCorrupt
	// ActionDeadline makes CompressDeadline shrink a request deadline.
	ActionDeadline
)

func (a Action) String() string {
	switch a {
	case ActionError:
		return "error"
	case ActionPanic:
		return "panic"
	case ActionDelay:
		return "delay"
	case ActionCorrupt:
		return "corrupt"
	case ActionDeadline:
		return "deadline"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ErrInjected is the base error of every injected failure; injected errors
// match it under errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedError is the concrete error returned by an ActionError rule.
type InjectedError struct {
	Point string // injection point that fired
	Nth   uint64 // hit ordinal (1-based) at which the rule fired
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (hit %d)", e.Point, e.Nth)
}

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// InjectedPanic is the value an ActionPanic rule panics with.
type InjectedPanic struct {
	Point string
	Nth   uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Point, p.Nth)
}

// Rule arms one fault at one injection point.
type Rule struct {
	Point  string        // injection point name
	Nth    uint64        // fire at the Nth hit of the point (1-based; 0 means 1)
	Every  uint64        // if > 0, also fire at Nth+Every, Nth+2·Every, …
	Action Action        // what firing does
	Delay  time.Duration // ActionDelay sleep
	Frac   float64       // ActionDeadline: multiply remaining deadline by Frac (0 < Frac ≤ 1)
	Flips  int           // ActionCorrupt: number of bit flips (0 means 8)
}

// state is the armed configuration; swapped atomically so Hit's fast path is
// one atomic load of `armed`.
type state struct {
	seed  uint64
	rules map[string][]Rule // by point
}

var (
	armed atomic.Bool
	mu    sync.Mutex // guards cur and counters map layout
	cur   atomic.Pointer[state]

	countersMu sync.Mutex
	counters   map[string]*atomic.Uint64
)

// Enable arms the given rules with a deterministic seed, replacing any
// previously armed set and zeroing all hit counters. Enabling with no rules
// is valid (it just counts hits).
func Enable(seed uint64, rules ...Rule) {
	mu.Lock()
	defer mu.Unlock()
	st := &state{seed: seed, rules: make(map[string][]Rule)}
	for _, r := range rules {
		if r.Nth == 0 {
			r.Nth = 1
		}
		st.rules[r.Point] = append(st.rules[r.Point], r)
	}
	countersMu.Lock()
	counters = make(map[string]*atomic.Uint64)
	countersMu.Unlock()
	cur.Store(st)
	armed.Store(true)
}

// Disable disarms all rules. Hit reverts to a single atomic load.
func Disable() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	cur.Store(nil)
}

// Enabled reports whether any rule set is armed.
func Enabled() bool { return armed.Load() }

// counter returns the hit counter for point, creating it on first use.
func counter(point string) *atomic.Uint64 {
	countersMu.Lock()
	defer countersMu.Unlock()
	if counters == nil {
		counters = make(map[string]*atomic.Uint64)
	}
	c := counters[point]
	if c == nil {
		c = new(atomic.Uint64)
		counters[point] = c
	}
	return c
}

// Hits reports how many times point has been hit since Enable.
func Hits(point string) uint64 {
	if !armed.Load() {
		return 0
	}
	return counter(point).Load()
}

// fires reports whether rule r fires at hit ordinal n.
func (r Rule) fires(n uint64) bool {
	if n == r.Nth {
		return true
	}
	return r.Every > 0 && n > r.Nth && (n-r.Nth)%r.Every == 0
}

// Hit records a hit at point and applies the first armed error/panic/delay
// rule whose ordinal matches. With nothing armed it is a single atomic load.
func Hit(point string) error {
	if !armed.Load() {
		return nil
	}
	st := cur.Load()
	if st == nil {
		return nil
	}
	n := counter(point).Add(1)
	for _, r := range st.rules[point] {
		if !r.fires(n) {
			continue
		}
		switch r.Action {
		case ActionError:
			return &InjectedError{Point: point, Nth: n}
		case ActionPanic:
			panic(InjectedPanic{Point: point, Nth: n})
		case ActionDelay:
			time.Sleep(r.Delay)
			return nil
		}
	}
	return nil
}

// splitmix64 is the deterministic PRNG behind Corrupt: tiny, seedable, and
// identical across runs for the same seed and hit ordinal.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Corrupt applies any armed ActionCorrupt rule at point to data in place,
// flipping Flips seeded bits, and reports whether it corrupted anything.
// With nothing armed (or no matching rule) the payload is untouched.
//
// Corrupt counts hit ordinals in its own namespace, separate from Hit's, so
// a site that calls both (or a point with mixed rules) keeps every rule's
// @NTH predictable: error/panic/delay ordinals count Hit calls, corrupt
// ordinals count Corrupt calls.
func Corrupt(point string, data []byte) bool {
	if !armed.Load() || len(data) == 0 {
		return false
	}
	st := cur.Load()
	if st == nil {
		return false
	}
	n := counter(point + "\x00corrupt").Add(1)
	for _, r := range st.rules[point] {
		if r.Action != ActionCorrupt || !r.fires(n) {
			continue
		}
		flips := r.Flips
		if flips <= 0 {
			flips = 8
		}
		x := st.seed ^ (n * 0x9e3779b97f4a7c15)
		for i := 0; i < flips; i++ {
			x = splitmix64(x)
			pos := x % uint64(len(data)*8)
			data[pos/8] ^= 1 << (pos % 8)
		}
		return true
	}
	return false
}

// CompressDeadline applies any armed ActionDeadline rule at point to a
// request timeout, returning the (possibly shrunk) duration. Deadline
// compression models a client or LB cutting the request budget short.
//
// Like Corrupt, it counts ordinals in its own namespace: a request handler
// that calls Hit and then CompressDeadline at the same point advances each
// rule family by exactly one per request.
func CompressDeadline(point string, d time.Duration) time.Duration {
	if !armed.Load() {
		return d
	}
	st := cur.Load()
	if st == nil {
		return d
	}
	n := counter(point + "\x00deadline").Add(1)
	for _, r := range st.rules[point] {
		if r.Action != ActionDeadline || !r.fires(n) {
			continue
		}
		frac := r.Frac
		if frac <= 0 || frac > 1 {
			frac = 0.1
		}
		return time.Duration(float64(d) * frac)
	}
	return d
}

// ParseRules parses a comma-separated rule spec, e.g.
//
//	panic:par.task@3,error:solver.task@5+7,delay:serve.request@1:5ms,corrupt:memo.snapshot@1:16,deadline:serve.request@2:0.25
//
// Grammar per rule: ACTION:POINT[@NTH[+EVERY]][:ARG] where ARG is a duration
// for delay, a bit-flip count for corrupt, and a fraction for deadline.
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q: want ACTION:POINT[@NTH][:ARG]", part)
		}
		var r Rule
		switch fields[0] {
		case "error":
			r.Action = ActionError
		case "panic":
			r.Action = ActionPanic
		case "delay":
			r.Action = ActionDelay
		case "corrupt":
			r.Action = ActionCorrupt
		case "deadline":
			r.Action = ActionDeadline
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown action %q (want error|panic|delay|corrupt|deadline)", part, fields[0])
		}
		point := fields[1]
		if at := strings.IndexByte(point, '@'); at >= 0 {
			ord := point[at+1:]
			point = point[:at]
			if plus := strings.IndexByte(ord, '+'); plus >= 0 {
				every, err := strconv.ParseUint(ord[plus+1:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad EVERY %q", part, ord[plus+1:])
				}
				r.Every = every
				ord = ord[:plus]
			}
			nth, err := strconv.ParseUint(ord, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: bad NTH %q", part, ord)
			}
			r.Nth = nth
		}
		if point == "" {
			return nil, fmt.Errorf("faultinject: rule %q: empty point", part)
		}
		r.Point = point
		if len(fields) == 3 {
			arg := fields[2]
			switch r.Action {
			case ActionDelay:
				d, err := time.ParseDuration(arg)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad duration %q", part, arg)
				}
				r.Delay = d
			case ActionCorrupt:
				flips, err := strconv.Atoi(arg)
				if err != nil || flips <= 0 {
					return nil, fmt.Errorf("faultinject: rule %q: bad flip count %q", part, arg)
				}
				r.Flips = flips
			case ActionDeadline:
				frac, err := strconv.ParseFloat(arg, 64)
				if err != nil || frac <= 0 || frac > 1 {
					return nil, fmt.Errorf("faultinject: rule %q: bad fraction %q", part, arg)
				}
				r.Frac = frac
			default:
				return nil, fmt.Errorf("faultinject: rule %q: action %s takes no ARG", part, r.Action)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}

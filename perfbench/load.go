package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one operation of a measured window.
type opResult struct {
	index   int
	done    time.Duration // completion, as an offset from the window start
	latency time.Duration
	body    []byte // response, checked after the window
	err     error  // transport error or non-200 status
}

// closedLoop runs clients closed-loop clients: each sends operation i (drawn
// from one shared counter, so the input order is the same whatever the
// interleaving) only after its previous one completed. Clients stop taking
// new operations once d has elapsed, and the window ends when the last
// in-flight operation completes. Latency covers send alone, not input; an
// input error stops the run.
func closedLoop(start time.Time, clients int, d time.Duration, input func(i int) (Query, error), send func(Query) ([]byte, error)) ([]opResult, time.Duration, error) {
	var next atomic.Int64
	var inputErr error
	var once sync.Once
	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				q, err := input(i)
				if err != nil {
					once.Do(func() { inputErr = err })
					return
				}
				t0 := time.Now()
				body, err := send(q)
				per[c] = append(per[c], opResult{index: i, done: time.Since(start), latency: time.Since(t0), body: body, err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].index < all[b].index })
	return all, elapsed, inputErr
}

// statusError is a daemon's non-200 answer.
type statusError struct {
	path, status string
	code         int
	body         []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("POST %s: %s: %s", e.path, e.status, e.body)
}

// shed reports whether err is the server turning a request away under load
// (503, admission's "overloaded"): the operation failed, but the program gave
// no wrong answer. Every other failure of an operation whose in-process
// reference succeeds counts as a wrong answer.
func shed(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusServiceUnavailable
}

// post sends one JSON request and returns the body of a 200 response.
func post(client *http.Client, addr, path string, body []byte) ([]byte, error) {
	resp, err := client.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{path: path, status: resp.Status, code: resp.StatusCode, body: bytes.TrimSpace(b)}
	}
	return b, nil
}

// procPoint is one reading of the processes under test and of the machine's
// CPU ticks, at an offset from the window start.
type procPoint struct {
	at time.Duration
	procSample
	machine cpuTicks
}

// cpuTicks are the machine-wide CPU ticks of /proc/stat: all of them, and
// those the hypervisor stole (time a vCPU was ready to run but was not run).
type cpuTicks struct{ stolen, all int64 }

// readTicks reads the machine's CPU ticks; zero when /proc/stat is unreadable.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		t.all += n
		if i == 7 {
			t.stolen = n
		}
	}
	return t
}

// sampler reads the daemons under test every interval, for the half-run
// peak-RSS check and the per-sub-window CPU time.
type sampler struct {
	start  time.Time
	stop   chan struct{}
	done   chan struct{}
	points []procPoint // written by the sampling goroutine until done
}

func startSampler(interval time.Duration, read func() (procSample, bool)) *sampler {
	s := &sampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, ok := read(); ok {
					s.points = append(s.points, procPoint{time.Since(s.start), v, readTicks()})
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its readings.
func (s *sampler) finish() []procPoint {
	close(s.stop)
	<-s.done
	return s.points
}

// nearest returns the reading taken closest to offset at.
func nearest(points []procPoint, at time.Duration) procPoint {
	var best procPoint
	bestGap := time.Duration(math.MaxInt64)
	for _, p := range points {
		gap := p.at - at
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			best, bestGap = p, gap
		}
	}
	return best
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailQuantile is the highest of the workload's candidate percentiles that
// leaves at least ten samples beyond it; with fewer than eleven samples it is
// the maximum.
func tailQuantile(n int, candidates ...float64) float64 {
	for _, q := range candidates {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 1
}

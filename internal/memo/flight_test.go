package memo

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightDeduplicates(t *testing.T) {
	var f Flight[int]
	var calls atomic.Int32
	gate := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	results := make([]int, waiters)
	sharedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := f.Do("key", func() (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Wait until a leader is inside fn, then release everyone. Goroutines
	// that arrive while the leader is in flight share its result; stragglers
	// that arrive after retirement become leaders of their own (the gate is
	// closed by then, so they return immediately). The invariant is exact:
	// every caller is either a leader or shared a leader's flight.
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	leaders := calls.Load()
	if leaders < 1 || leaders > waiters {
		t.Errorf("fn ran %d times, want within [1, %d]", leaders, waiters)
	}
	if got := sharedCount.Load(); got != waiters-leaders {
		t.Errorf("%d shared results with %d leaders, want %d", got, leaders, waiters-leaders)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
	// The flight must be fully retired: a later call runs fn again.
	_, _, shared := f.Do("key", func() (int, error) { return 1, nil })
	if shared {
		t.Error("retired flight still shared")
	}
}

func TestFlightSharesErrors(t *testing.T) {
	var f Flight[int]
	sentinel := errors.New("boom")
	_, err, _ := f.Do("k", func() (int, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Errors are not cached beyond the flight.
	v, err, _ := f.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

func TestFlightLeaderPanicReleasesFollowers(t *testing.T) {
	var f Flight[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	var followerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err, _ := f.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("injected")
		})
		var pe *FlightPanicError
		if !errors.As(err, &pe) || pe.Value != "injected" || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("leader err = %v, want a *FlightPanicError carrying the panic value", err)
		}
	}()
	go func() {
		defer wg.Done()
		<-entered
		_, followerErr, _ = f.Do("k", func() (int, error) { return 9, nil })
	}()
	<-entered
	close(release)
	wg.Wait()
	// The follower either joined the panicked flight (panic-derived error)
	// or arrived after retirement and ran its own fn (9, nil) — both are
	// legal; hanging forever is not, and wg.Wait has already ruled that out.
	if followerErr != nil && !strings.Contains(followerErr.Error(), "panicked") {
		t.Errorf("follower err = %v", followerErr)
	}
}

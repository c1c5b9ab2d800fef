package memo

import (
	"fmt"
	"sync"

	"ksettop/internal/obs"
)

var (
	obsFlightLeaders = obs.DefaultRegistry().Counter("kset_flight_leaders_total",
		"singleflight calls that ran the computation")
	obsFlightShared = obs.DefaultRegistry().Counter("kset_flight_shared_total",
		"singleflight calls that joined an in-flight computation")
)

// Flight deduplicates concurrent computations of the same key: the first
// caller runs fn, later callers with the same key block and share the
// result. Unlike Cache, nothing is retained after the last caller returns —
// Flight collapses a thundering herd, Cache remembers. The bound-query
// service stacks one in front of its memo caches so that N identical
// in-flight requests cost one solve.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// FlightPanicError is the shared error of a flight whose leader's fn
// panicked: leader and followers all receive it instead of a crash.
type FlightPanicError struct {
	Value any // the recovered panic value
}

func (e *FlightPanicError) Error() string {
	return fmt.Sprintf("memo: flight leader panicked: %v", e.Value)
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn for key, unless a call for key is already in flight, in which
// case it waits for that call and returns its result. shared reports whether
// the result was produced by another caller. Errors are shared like values;
// they are never cached beyond the flight.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		obsFlightShared.Inc()
		<-c.done
		return c.val, c.err, true
	}
	obsFlightLeaders.Inc()
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	// A panicking fn must not strand the followers: the deferred cleanup
	// converts the panic into the flight's shared *FlightPanicError and
	// releases them.
	// The leader gets the same error instead of a crash — Flight callers
	// (the service request path) treat leader and follower uniformly.
	finished := false
	defer func() {
		if !finished {
			c.err = &FlightPanicError{Value: recover()}
			err = c.err
		}
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, c.err, false
}

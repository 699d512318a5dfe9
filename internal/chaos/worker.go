package chaos

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerSpec configures deterministic disruption of a worker node's HTTP
// surface, the fabric-tier counterpart of Spec's simulator faults.
// Trigger counts are 1-based request ordinals across every request the
// worker receives; zero triggers never fire.
type WorkerSpec struct {
	// KillAfter makes the worker drop connections (the client sees an
	// abrupt EOF, exactly what a kill -9 of the process produces) from the
	// Nth request onward. Unlike the simulator faults a kill is sticky:
	// once dead the worker never answers again.
	KillAfter int64 `json:"kill_after,omitempty"`
	// StallAfter delays the Nth request's response by StallMs
	// milliseconds, long enough to trip per-attempt timeouts.
	StallAfter int64 `json:"stall_after,omitempty"`
	StallMs    int   `json:"stall_ms,omitempty"`
}

// Active reports whether any trigger can fire.
func (s WorkerSpec) Active() bool { return s.KillAfter > 0 || s.StallAfter > 0 }

// Validate rejects out-of-range fields.
func (s WorkerSpec) Validate() error {
	switch {
	case s.KillAfter < 0 || s.StallAfter < 0:
		return fmt.Errorf("chaos: worker trigger ordinals must be non-negative")
	case s.StallMs < 0:
		return fmt.Errorf("chaos: worker stall_ms must be non-negative")
	case s.StallMs > MaxStallMs:
		return fmt.Errorf("chaos: worker stall_ms %d exceeds the %d ms cap", s.StallMs, MaxStallMs)
	case s.StallAfter > 0 && s.StallMs == 0:
		return fmt.Errorf("chaos: worker stall_after set without stall_ms")
	}
	return nil
}

// WorkerDisruptor wraps a worker's HTTP handler and fires a WorkerSpec's
// faults at deterministic request ordinals. Kill() flips the worker dead
// out-of-band, for tests that want to murder a worker at a point chosen
// by the test rather than by request count.
type WorkerDisruptor struct {
	spec WorkerSpec

	requests atomic.Int64

	mu    sync.Mutex
	fired []string
	// alive is canceled by Kill and renewed by Revive. Every request runs
	// under a context tied to the alive it arrived under, so a kill
	// reaches the requests in flight as well as the ones to come.
	alive context.Context
	kill  context.CancelFunc
}

// NewWorkerDisruptor builds a disruptor for spec (which should already
// have been Validated).
func NewWorkerDisruptor(spec WorkerSpec) *WorkerDisruptor {
	d := &WorkerDisruptor{spec: spec}
	d.alive, d.kill = context.WithCancel(context.Background())
	return d
}

// Wrap returns next decorated with the disruptor's faults. A dead worker
// aborts every request with http.ErrAbortHandler, which makes net/http
// sever the connection mid-response — the client observes the same
// "connection reset / unexpected EOF" failure mode as a kill -9 of the
// worker process, without taking down the test's process. A request in
// flight when the worker dies is severed too: its context is canceled,
// and its response is aborted once the handler returns.
func (d *WorkerDisruptor) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := d.requests.Add(1)
		if d.spec.KillAfter > 0 && n >= d.spec.KillAfter {
			d.Kill()
		}
		d.mu.Lock()
		alive := d.alive
		d.mu.Unlock()
		sever := func() {
			if alive.Err() != nil {
				d.record(fmt.Sprintf("kill@%s#%d", r.URL.Path, n))
				panic(http.ErrAbortHandler)
			}
		}
		sever()
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(alive, cancel)()
		if n == d.spec.StallAfter && d.spec.StallMs > 0 {
			d.record(fmt.Sprintf("stall@%s#%d", r.URL.Path, n))
			select {
			case <-time.After(time.Duration(d.spec.StallMs) * time.Millisecond):
			case <-ctx.Done():
			}
		}
		next.ServeHTTP(w, r.WithContext(ctx))
		sever()
	})
}

// Kill marks the worker dead immediately: every request in flight and
// every subsequent one is severed.
func (d *WorkerDisruptor) Kill() {
	d.mu.Lock()
	d.kill()
	d.mu.Unlock()
}

// Revive brings a killed worker back, for tests exercising recovery.
func (d *WorkerDisruptor) Revive() {
	d.mu.Lock()
	if d.alive.Err() != nil {
		d.alive, d.kill = context.WithCancel(context.Background())
	}
	d.mu.Unlock()
}

// Dead reports whether the worker is currently severing requests.
func (d *WorkerDisruptor) Dead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive.Err() != nil
}

// Requests returns how many requests the worker has received (including
// severed ones).
func (d *WorkerDisruptor) Requests() int64 { return d.requests.Load() }

func (d *WorkerDisruptor) record(what string) {
	d.mu.Lock()
	d.fired = append(d.fired, what)
	d.mu.Unlock()
}

// Fired returns a copy of the fired-action log, in firing order.
func (d *WorkerDisruptor) Fired() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.fired...)
}

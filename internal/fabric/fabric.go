// Package fabric is the coordinator side of the distributed sweep tier:
// it places content-addressed run specs onto N worker cppserved
// instances via consistent hashing and drives each run to a terminal
// outcome over plain HTTP, surviving worker loss.
//
// Fault model: a worker can die (kill -9: connections sever mid-request),
// stall (responses hang past the per-attempt timeout) or shed load
// (429/503). The coordinator answers each with bounded, jittered
// exponential-backoff retries on the next worker in ring order, health
// probes that steer placement away from dead workers, and automatic
// re-placement of in-flight runs whose worker stopped answering.
// Re-execution is safe because runs are deterministic — the simulator's
// golden-pinned determinism (internal/verify, ledger.ResultDigest) is
// what makes a retried run's result verifiable byte-for-byte against a
// control execution, which the chaos tests and the CI sweep-smoke
// exploit.
//
// The package speaks only the observatory's public HTTP surface and
// depends only on internal/backoff, internal/runstate and the standard
// library, so worker processes, in-process httptest workers (unit tests)
// and real remote nodes are interchangeable.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cppcache/internal/backoff"
	"cppcache/internal/runstate"
)

// Defaults for Config's zero fields.
const (
	DefaultReplicas       = 64
	DefaultProbeInterval  = time.Second
	DefaultCallTimeout    = 5 * time.Second
	DefaultAttemptTimeout = 2 * time.Minute
	DefaultMaxAttempts    = 4
)

// Config describes the worker tier and the coordinator's retry budget.
type Config struct {
	// Workers are the base URLs of the worker cppserved instances
	// (e.g. "http://10.0.0.7:8080"). At least one is required.
	Workers []string
	// Replicas is the virtual-node count per worker on the hash ring.
	Replicas int
	// ProbeInterval is the health-probe cadence (GET /readyz per worker).
	// Negative disables background probing (placement still marks workers
	// down on connection errors).
	ProbeInterval time.Duration
	// CallTimeout bounds each individual HTTP call. A status long-poll
	// asks the worker to answer within half of it.
	CallTimeout time.Duration
	// AttemptTimeout bounds one full placement attempt (launch + wait to
	// terminal) before the run is re-placed elsewhere.
	AttemptTimeout time.Duration
	// MaxAttempts bounds placements per run (first try included).
	MaxAttempts int
	// Backoff is the retry schedule between placement attempts.
	Backoff backoff.Policy
	// Client overrides the HTTP client (tests inject a keep-alive-free
	// one). nil uses a dedicated default client.
	Client *http.Client
	// Log receives placement and retry events. nil discards.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Outcome is the terminal result of one placed run. State is the run's
// lifecycle state (a terminal runstate.State) on the worker that
// finished it; Result is the raw result JSON, digestable with
// ledger.ResultDigest without re-parsing loss.
type Outcome struct {
	Worker   string
	RunID    int
	TraceID  string
	State    string
	Error    string
	Attempts int
	Memoized bool
	Result   json.RawMessage
}

// statusView is the slice of the worker's run-status JSON the coordinator
// needs; unknown fields are ignored so workers can evolve independently.
type statusView struct {
	ID       int             `json:"id"`
	TraceID  string          `json:"trace_id"`
	State    runstate.State  `json:"state"`
	Error    string          `json:"error"`
	Memoized bool            `json:"memoized"`
	Result   json.RawMessage `json:"result"`
}

// errPermanent wraps worker responses that retrying cannot fix (a 400
// spec rejection is the same on every worker).
type errPermanent struct{ msg string }

func (e *errPermanent) Error() string { return e.msg }

// errBusy wraps backpressure responses (429/503): retryable, but not
// evidence the worker is dead.
type errBusy struct{ msg string }

func (e *errBusy) Error() string { return e.msg }

// errConn wraps transport-level failures: retryable AND evidence the
// worker is gone, so placement marks it down.
type errConn struct{ err error }

func (e *errConn) Error() string { return e.err.Error() }
func (e *errConn) Unwrap() error { return e.err }

// worker is one tier member's runtime state.
type worker struct {
	url string
	up  atomic.Bool
}

// vnode is one virtual node on the consistent-hash ring.
type vnode struct {
	hash uint64
	idx  int // index into Coordinator.workers
}

// Coordinator places runs onto the worker tier. Safe for concurrent use;
// every Execute call is independent.
type Coordinator struct {
	cfg     Config
	workers []*worker
	ring    []vnode // sorted by hash

	stop chan struct{}
	wg   sync.WaitGroup

	placements    atomic.Int64
	retries       atomic.Int64
	probeFailures atomic.Int64
}

// New builds a coordinator over the tier and starts its health-probe
// loop. Workers start optimistically up; the first failed contact or
// probe marks them down.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fabric: at least one worker URL is required")
	}
	c := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	seen := map[string]bool{}
	for _, u := range cfg.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		w := &worker{url: u}
		w.up.Store(true)
		c.workers = append(c.workers, w)
	}
	if len(c.workers) == 0 {
		return nil, errors.New("fabric: no usable worker URLs")
	}
	for i, w := range c.workers {
		for r := 0; r < cfg.Replicas; r++ {
			c.ring = append(c.ring, vnode{hash: fnv64(fmt.Sprintf("%s#%d", w.url, r)), idx: i})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the probe loop.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

// WorkerCount returns the tier size.
func (c *Coordinator) WorkerCount() int { return len(c.workers) }

// Workers returns the tier member URLs in configuration order.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.url
	}
	return out
}

// Retries returns how many runs were re-placed after a failed attempt.
func (c *Coordinator) Retries() int64 { return c.retries.Load() }

// Placements returns how many placement attempts were made in total.
func (c *Coordinator) Placements() int64 { return c.placements.Load() }

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// candidates returns the distinct workers in ring order starting at the
// spec hash's position — the deterministic placement preference list.
func (c *Coordinator) candidates(specHash string) []int {
	h := fnv64(specHash)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	out := make([]int, 0, len(c.workers))
	seen := make([]bool, len(c.workers))
	for i := 0; i < len(c.ring) && len(out) < len(c.workers); i++ {
		v := c.ring[(start+i)%len(c.ring)]
		if !seen[v.idx] {
			seen[v.idx] = true
			out = append(out, v.idx)
		}
	}
	return out
}

// pick chooses the worker for the given attempt: the preference list with
// healthy workers first (relative ring order preserved within each
// class), indexed by attempt so consecutive retries hit distinct workers.
func (c *Coordinator) pick(candidates []int, attempt int) *worker {
	healthy := make([]int, 0, len(candidates))
	down := make([]int, 0, len(candidates))
	for _, idx := range candidates {
		if c.workers[idx].up.Load() {
			healthy = append(healthy, idx)
		} else {
			down = append(down, idx)
		}
	}
	ordered := append(healthy, down...)
	return c.workers[ordered[attempt%len(ordered)]]
}

// probeLoop keeps worker health fresh: GET /readyz per worker per tick. A
// 200 marks up (recovering workers re-enter placement automatically);
// anything else — including a drained worker's 503 — marks down.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, w := range c.workers {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/readyz", nil)
			resp, err := c.cfg.Client.Do(req)
			up := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			if !up {
				c.probeFailures.Add(1)
				if w.up.Load() {
					c.cfg.Log.Warn("fabric: worker probe failed", "worker", w.url, "err", err)
				}
			}
			w.up.Store(up)
		}
	}
}

// Execute places one spec-hash-addressed run on the tier and drives it to
// a terminal outcome. The spec JSON is POSTed verbatim to the chosen
// worker's /runs, then long-polled to completion. Worker loss mid-run
// (launch or status-call connection failures) re-places the run on the
// next worker in ring order after a jittered backoff, up to MaxAttempts
// placements; every re-placement increments the retries counter.
// Permanent rejections (400) fail immediately. Context cancellation
// cancels the remote run best-effort and returns ctx.Err().
func (c *Coordinator) Execute(ctx context.Context, specHash string, specJSON []byte) (Outcome, error) {
	candidates := c.candidates(specHash)
	bo := backoff.New(c.cfg.Backoff, int64(fnv64(specHash)))
	var lastErr error
	var out Outcome
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			select {
			case <-time.After(bo.Next()):
			case <-ctx.Done():
				out.State = string(runstate.Canceled)
				return out, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			out.State = string(runstate.Canceled)
			return out, err
		}
		w := c.pick(candidates, attempt)
		c.placements.Add(1)
		o, err := c.runOn(ctx, w, specJSON)
		o.Attempts = attempt + 1
		if err == nil {
			w.up.Store(true)
			return o, nil
		}
		out = o
		lastErr = err
		var pe *errPermanent
		if errors.As(err, &pe) {
			return o, err
		}
		if ctx.Err() != nil {
			out.State = string(runstate.Canceled)
			return out, ctx.Err()
		}
		var ce *errConn
		if errors.As(err, &ce) {
			w.up.Store(false)
			c.cfg.Log.Warn("fabric: worker lost; re-placing run", "worker", w.url,
				"attempt", attempt+1, "err", err)
		} else {
			c.cfg.Log.Info("fabric: attempt failed; retrying", "worker", w.url,
				"attempt", attempt+1, "err", err)
		}
	}
	out.State = string(runstate.Failed)
	return out, fmt.Errorf("fabric: run not placed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// runOn performs one placement attempt on one worker: launch, then
// long-poll the status to terminal within the attempt timeout. Each
// status call asks the worker to hold it until the run is terminal or
// half the call timeout has passed, so a live worker answers well inside
// the call bound and a frozen one fails the call.
func (c *Coordinator) runOn(ctx context.Context, w *worker, specJSON []byte) (Outcome, error) {
	out := Outcome{Worker: w.url}
	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()

	st, err := c.call(attemptCtx, http.MethodPost, w.url+"/runs", specJSON)
	if err != nil {
		return out, err
	}
	out.RunID, out.TraceID = st.ID, st.TraceID

	statusURL := fmt.Sprintf("%s/runs/%d?wait=%s", w.url, out.RunID, url.QueryEscape((c.cfg.CallTimeout / 2).String()))
	consecutiveFailures := 0
	for {
		if st.State.Terminal() {
			out.State, out.Error, out.Memoized, out.Result = string(st.State), st.Error, st.Memoized, st.Result
			return out, nil
		}
		if attemptCtx.Err() != nil {
			if ctx.Err() != nil {
				// The caller canceled: tell the worker to stop, best-effort.
				c.cancelRemote(w, out.RunID)
				out.State = string(runstate.Canceled)
				return out, ctx.Err()
			}
			// Attempt timeout: the worker may be wedged; re-place. The
			// abandoned run is harmless — deterministic, and the worker's own
			// supervision bounds it.
			return out, &errConn{err: fmt.Errorf("attempt timeout after %v waiting on run %d", c.cfg.AttemptTimeout, out.RunID)}
		}
		st, err = c.call(attemptCtx, http.MethodGet, statusURL, nil)
		if err != nil && attemptCtx.Err() != nil {
			continue // the call died with the attempt; the loop top says why
		}
		if err != nil {
			var ce *errConn
			if errors.As(err, &ce) {
				// Two consecutive transport failures = the worker is gone
				// (one can be a blip mid-restart of a connection).
				consecutiveFailures++
				if consecutiveFailures >= 2 {
					return out, err
				}
				continue
			}
			return out, err
		}
		consecutiveFailures = 0
	}
}

// call performs one HTTP call against a worker and maps the response:
// 2xx parses the status view, 400/422 is permanent, 429/503 is busy,
// transport failures are connection errors.
func (c *Coordinator) call(ctx context.Context, method, url string, body []byte) (statusView, error) {
	var st statusView
	callCtx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(callCtx, method, url, rd)
	if err != nil {
		return st, &errPermanent{msg: err.Error()}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return st, &errConn{err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, &errConn{err: fmt.Errorf("decode %s %s: %w", method, url, err)}
		}
		return st, nil
	case resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusUnprocessableEntity:
		return st, &errPermanent{msg: fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, readErr(resp.Body))}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return st, &errBusy{msg: fmt.Sprintf("%s %s: %s", method, url, resp.Status)}
	default:
		return st, &errBusy{msg: fmt.Sprintf("%s %s: unexpected %s", method, url, resp.Status)}
	}
}

// readErr extracts a short error string from a response body.
func readErr(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	s := strings.TrimSpace(string(b))
	if s == "" {
		return "(no body)"
	}
	return s
}

// cancelRemote best-effort cancels a run on a worker.
func (c *Coordinator) cancelRemote(w *worker, runID int) {
	if runID <= 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		fmt.Sprintf("%s/runs/%d", w.url, runID), nil)
	if err != nil {
		return
	}
	if resp, err := c.cfg.Client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// promEscape escapes a Prometheus label value (text exposition 0.0.4).
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteProm renders the coordinator's metric families in Prometheus text
// exposition format 0.0.4, matching the observatory's hand-rolled style.
func (c *Coordinator) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP cppserved_fabric_retries_total Runs re-placed on another worker after a failed attempt.\n# TYPE cppserved_fabric_retries_total counter\n")
	fmt.Fprintf(w, "cppserved_fabric_retries_total %d\n", c.retries.Load())
	fmt.Fprintf(w, "# HELP cppserved_fabric_placements_total Placement attempts (first tries included).\n# TYPE cppserved_fabric_placements_total counter\n")
	fmt.Fprintf(w, "cppserved_fabric_placements_total %d\n", c.placements.Load())
	fmt.Fprintf(w, "# HELP cppserved_fabric_probe_failures_total Worker health probes that failed.\n# TYPE cppserved_fabric_probe_failures_total counter\n")
	fmt.Fprintf(w, "cppserved_fabric_probe_failures_total %d\n", c.probeFailures.Load())
	fmt.Fprintf(w, "# HELP cppserved_fabric_worker_up Worker health as seen by the coordinator (1 up, 0 down).\n# TYPE cppserved_fabric_worker_up gauge\n")
	for _, wk := range c.workers {
		up := 0
		if wk.up.Load() {
			up = 1
		}
		fmt.Fprintf(w, "cppserved_fabric_worker_up{worker=\"%s\"} %d\n", promEscape(wk.url), up)
	}
}

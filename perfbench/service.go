package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cppcache/internal/fabric"
	"cppcache/internal/ledger"
	"cppcache/internal/serve"
	"cppcache/internal/span"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// server is one in-process cppserved: a registry behind a loopback
// listener, reached over real HTTP.
type server struct {
	reg  *serve.Registry
	http *httptest.Server
}

func startServer(cfg serve.Config) *server {
	reg := serve.NewRegistryWith(cfg, quietLog)
	return &server{reg: reg, http: httptest.NewServer(serve.NewServer(reg, quietLog))}
}

func (s *server) url() string { return s.http.URL }

func (s *server) close() error {
	s.http.Close()
	if !s.reg.Drain(30 * time.Second) {
		return errors.New("server drain timed out")
	}
	return nil
}

// httpClient is shared by every client goroutine; keep-alive connections
// are pooled per host.
var httpClient = &http.Client{Timeout: 2 * time.Minute}

// call performs one request and returns the body of a response with the
// wanted status.
func call(method, url string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return b, &statusError{method, url, resp.StatusCode, strings.TrimSpace(string(b))}
	}
	return b, nil
}

type statusError struct {
	method, url string
	code        int
	body        string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.url, e.code, e.body)
}

// awaitEvent opens an SSE stream and returns the data of its first event
// of the given name.
func awaitEvent(url, event string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{"GET", url, resp.StatusCode, ""}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var current string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			current = ""
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && current == event:
			return []byte(strings.TrimPrefix(line, "data: ")), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return nil, fmt.Errorf("GET %s: stream ended before a %q event", url, event)
}

// runView is the part of a run's status the benchmark reads.
type runView struct {
	ID       int             `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Memoized bool            `json:"memoized"`
	Result   json.RawMessage `json:"result"`
}

// stageMS returns the durations, in ms, of the lifecycle stages under the
// run's root span, read from GET /runs/{id}/trace on base.
func stageMS(base string, runID int) (map[string]float64, error) {
	b, err := call("GET", fmt.Sprintf("%s/runs/%d/trace", base, runID), nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []struct {
			Name     string `json:"name"`
			Children []struct {
				Name       string `json:"name"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("run %d trace: %w", runID, err)
	}
	out := map[string]float64{}
	for _, root := range doc.Spans {
		if root.Name != "run" {
			continue
		}
		for _, c := range root.Children {
			out[c.Name] += float64(c.DurationNS) / 1e6
		}
	}
	if _, ok := out["execute"]; !ok {
		return nil, fmt.Errorf("run %d trace has no execute stage", runID)
	}
	return out, nil
}

// stageSample is one traced request: its client-side latency and the
// server's stage split.
type stageSample struct {
	ms       float64
	memoized bool
	stages   map[string]float64
}

// serviceCatalogue is the fixed set of short scale-1 runs the service
// clients draw from: functional and full-pipeline, 1-35 ms each.
func serviceCatalogue() []runSpec {
	f := func(bench, label string, functional bool) runSpec {
		return runSpec{bench, configByLabel(label), 1, functional}
	}
	return []runSpec{
		f("olden.mst", "BC", true),
		f("olden.mst", "CPP", true),
		f("olden.health", "BCC", true),
		f("olden.health", "CPP", true),
		f("spec95.129.compress", "BCP", true),
		f("spec2000.197.parser", "CPP", true),
		f("olden.mst", "BC", false),
		f("olden.power", "CPP", false),
		f("olden.power", "HAC", false),
		f("spec95.129.compress", "BC", false),
		f("spec95.129.compress", "CPP", false),
		f("spec2000.197.parser", "BCC", false),
	}
}

func (s runSpec) serveSpec() serve.RunSpec {
	return serve.RunSpec{
		Workload:   s.bench,
		Config:     s.config.base,
		Compressor: s.config.scheme,
		Scale:      s.scale,
		Functional: s.functional,
	}
}

func distinctPrograms(specs []runSpec) []progKey {
	seen := map[progKey]bool{}
	var out []progKey
	for _, s := range specs {
		k := progKey{s.bench, s.scale}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

const (
	// serviceClients matches the two cores of the reference machine.
	serviceClients = 2
	// fleetEvery is the cadence of GET /fleet reads in each client's
	// request stream.
	fleetEvery = 16
	// memoEntries holds the whole catalogue with room to spare.
	memoEntries = 64
)

// serviceStack is cppserved as shipped, plus a memo store and a ledger
// in a temporary file.
type serviceStack struct {
	dir    string
	ledger *ledger.Writer
	srv    *server

	mu       sync.Mutex
	launched int64 // runs admitted, each of which must reach the ledger

	drainOnce sync.Once
	drainErr  error
}

func startServiceStack(outDir string) (*serviceStack, error) {
	dir, err := os.MkdirTemp(outDir, "ledger-")
	if err != nil {
		return nil, err
	}
	w, err := ledger.OpenWriter(filepath.Join(dir, "runs.ledger"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serviceStack{dir: dir, ledger: w,
		srv: startServer(serve.Config{Ledger: w, MemoEntries: memoEntries})}, nil
}

// drain stops the server, once, and checks that every admitted run
// reached the ledger exactly once. It returns the ledger's record count.
func (s *serviceStack) drain() (int64, error) {
	s.drainOnce.Do(func() {
		s.drainErr = s.srv.close()
		if n := s.ledger.Appended(); s.drainErr == nil && n != s.launched {
			s.drainErr = fmt.Errorf("ledger holds %d records for %d admitted runs", n, s.launched)
		}
	})
	return s.ledger.Appended(), s.drainErr
}

func (s *serviceStack) close() error {
	_, err := s.drain()
	if cerr := s.ledger.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(s.dir)
	return err
}

// request POSTs one run, follows its SSE stream to the end event and
// checks the result digest against the pinned direct RunProgram digest.
func (s *serviceStack) request(spec runSpec, cold bool, p pins, parent *span.Span) (runView, time.Duration, error) {
	url := s.srv.url() + "/runs"
	if cold {
		url += "?nocache=1"
	}
	t0 := time.Now()
	post := parent.StartChild("POST /runs")
	b, err := call("POST", url, spec.serveSpec(), http.StatusCreated)
	post.End()
	var v runView
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	if err != nil {
		return v, 0, err
	}
	s.mu.Lock()
	s.launched++
	s.mu.Unlock()
	wait := parent.StartChild("GET /runs/{id}/stream")
	b, err = awaitEvent(fmt.Sprintf("%s/runs/%d/stream", s.srv.url(), v.ID), "end")
	wait.End()
	dt := time.Since(t0)
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	if err != nil {
		return v, dt, err
	}
	if v.State != string(serve.StateDone) {
		return v, dt, fmt.Errorf("run %d (%s): state %s: %s", v.ID, spec.key(), v.State, v.Error)
	}
	// The ledger's digest of the raw result JSON equals that of the struct,
	// so this compares with the direct run's pinned digest.
	d, err := ledger.ResultDigest(v.Result)
	if err == nil {
		err = p.check(spec.key(), d)
	}
	return v, dt, err
}

// serviceWorkload is a closed loop of serviceClients clients against an
// in-process cppserved. Each client POSTs /runs and waits for the run's
// end event; a fixed share of requests bypasses the memo; every
// fleetEvery-th request is a GET /fleet read instead.
type serviceWorkload struct {
	seed    int64
	pins    pins
	outDir  string
	catalog []runSpec
	insts   map[progKey]int64

	stack  *serviceStack
	builds []buildSample
}

func (w *serviceWorkload) setup() (time.Duration, error) {
	progs := distinctPrograms(w.catalog)
	setup, builds, err := repeatSetup(progs,
		func() (err error) { w.stack, err = startServiceStack(w.outDir); return err },
		func() error { return w.stack.close() })
	if err != nil {
		return 0, err
	}
	w.builds = builds
	shared, err := sharedPrograms(progs)
	if err != nil {
		return 0, err
	}
	w.insts = map[progKey]int64{}
	for k, p := range shared {
		w.insts[k] = int64(p.Len())
	}
	// Warm-up: every catalogue spec once, which builds the server's
	// programs and fills the memo store before timing starts.
	for _, spec := range w.catalog {
		if _, _, err := w.stack.request(spec, false, w.pins, nil); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return setup, nil
}

// measure drives the closed loop for d. With a tracer it also reads every
// run's stage split from its trace.
func (w *serviceWorkload) measure(d time.Duration, tr *span.Tracer) (*loopStats, error) {
	stack, catalog := w.stack, w.catalog
	start := time.Now()
	deadline := start.Add(d)
	per := make([]*loopStats, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		per[c] = &loopStats{}
		wg.Add(1)
		go func(c int, st *loopStats) {
			defer wg.Done()
			n := 0
			for round := 0; time.Now().Before(deadline); round++ {
				for _, rq := range serviceRound(w.seed, c, round, len(catalog)) {
					if !time.Now().Before(deadline) {
						break
					}
					if n++; n%fleetEvery == 0 {
						st.attempted++
						sp := tr.Start("GET /fleet", nil)
						_, err := call("GET", stack.srv.url()+"/fleet", nil, http.StatusOK)
						sp.End()
						if err != nil {
							st.fail(err)
						}
						continue
					}
					spec := catalog[rq.spec]
					root := tr.Start("service.request", nil,
						span.String("run", spec.key()), span.Bool("cold", rq.cold))
					st.attempted++
					v, dt, err := stack.request(spec, rq.cold, w.pins, root)
					var stages map[string]float64
					if err == nil && tr != nil {
						sp := root.StartChild("GET /runs/{id}/trace")
						stages, err = stageMS(stack.srv.url(), v.ID)
						sp.End()
					}
					root.End()
					if err != nil {
						st.fail(err)
						continue
					}
					work := w.insts[progKey{spec.bench, spec.scale}]
					if v.Memoized {
						work = 0 // a memo hit simulates nothing
						st.hitMS = append(st.hitMS, ms(dt))
					}
					st.done(dt, work)
					if stages != nil {
						st.stages = append(st.stages, stageSample{ms(dt), v.Memoized, stages})
					}
				}
			}
		}(c, per[c])
	}
	wg.Wait()
	st := &loopStats{}
	for _, o := range per {
		st.merge(o)
	}
	st.elapsed = time.Since(start)
	return st, nil
}

func (w *serviceWorkload) probe(m metrics, tr *span.Tracer, traced *loopStats) error {
	// The service metrics come from this workload's own traced loop. Its
	// server stops first, so that nothing else allocates while the
	// simulator probes count allocations.
	records, err := w.stack.drain()
	if err != nil {
		return err
	}
	httpClient.CloseIdleConnections()
	if err := simProbes(m, tr, distinctPrograms(w.catalog), false, w.builds); err != nil {
		return err
	}
	if err := serviceMetrics(m, traced, records, w.outDir); err != nil {
		return err
	}
	return sweepProbe(m, tr, w.pins, w.seed)
}

func (w *serviceWorkload) close() error {
	if w.stack == nil {
		return nil
	}
	return w.stack.close()
}

// sweepSpec is the sweep-fabric sweep: 3 benchmarks x 4 configurations,
// functional, scale 1, 12 children.
func sweepSpec() serve.SweepSpec {
	return serve.SweepSpec{
		Workloads:  []string{"olden.mst", "olden.treeadd", "spec95.129.compress"},
		Configs:    []string{"BC", "BCC", "BCP", "CPP"},
		Scales:     []int{1},
		Functional: true,
	}
}

func sweepPrograms() []progKey {
	var out []progKey
	for _, b := range sweepSpec().Workloads {
		out = append(out, progKey{b, 1})
	}
	return out
}

// sweepStack is a sweep server: either a coordinator placing children on
// two in-process workers through the fabric at its defaults, or a
// single server running them on its local pool. No memo anywhere.
type sweepStack struct {
	coord   *server
	workers []*server
	fab     *fabric.Coordinator
}

func startSweepStack(viaFabric bool) (*sweepStack, error) {
	if !viaFabric {
		return &sweepStack{coord: startServer(serve.Config{})}, nil
	}
	st := &sweepStack{}
	var urls []string
	for i := 0; i < 2; i++ {
		w := startServer(serve.Config{Role: "worker"})
		st.workers = append(st.workers, w)
		urls = append(urls, w.url())
	}
	fab, err := fabric.New(fabric.Config{Workers: urls, Log: quietLog})
	if err != nil {
		st.close()
		return nil, err
	}
	st.fab = fab
	st.coord = startServer(serve.Config{Fabric: fab})
	return st, nil
}

func (st *sweepStack) close() error {
	var err error
	if st.coord != nil {
		err = st.coord.close()
	}
	if st.fab != nil {
		st.fab.Close()
	}
	for _, w := range st.workers {
		if werr := w.close(); err == nil {
			err = werr
		}
	}
	return err
}

// sweepChildView is the part of a sweep child's status the benchmark
// reads.
type sweepChildView struct {
	RunID  int    `json:"run_id"`
	Worker string `json:"worker"`
}

type sweepResult struct {
	dur      time.Duration
	table    []byte
	children []sweepChildView
}

// sweep POSTs the sweep, follows its SSE stream to the end event, and is
// timed until GET /sweeps/{id}/table answers 200.
func (st *sweepStack) sweep(spec serve.SweepSpec, parent *span.Span) (sweepResult, error) {
	base := st.coord.url()
	t0 := time.Now()
	sp := parent.StartChild("POST /sweeps")
	b, err := call("POST", base+"/sweeps", spec, http.StatusAccepted)
	sp.End()
	var status struct {
		ID       int              `json:"id"`
		Children []sweepChildView `json:"children"`
	}
	if err == nil {
		err = json.Unmarshal(b, &status)
	}
	if err != nil {
		return sweepResult{}, err
	}
	sp = parent.StartChild("GET /sweeps/{id}/stream")
	b, err = awaitEvent(fmt.Sprintf("%s/sweeps/%d/stream", base, status.ID), "end")
	sp.End()
	if err == nil {
		err = json.Unmarshal(b, &status)
	}
	if err != nil {
		return sweepResult{}, err
	}
	sp = parent.StartChild("GET /sweeps/{id}/table")
	defer sp.End()
	for {
		table, err := call("GET", fmt.Sprintf("%s/sweeps/%d/table", base, status.ID), nil, http.StatusOK)
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusConflict {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return sweepResult{}, err
		}
		return sweepResult{time.Since(t0), table, status.Children}, nil
	}
}

// slowestExecute returns the longest execute stage among the sweep's
// children, read from each child run's trace on the server that ran it.
func (st *sweepStack) slowestExecute(res sweepResult) (float64, error) {
	var slowest float64
	for _, ch := range res.children {
		base := ch.Worker
		if base == "" {
			base = st.coord.url()
		}
		stages, err := stageMS(base, ch.RunID)
		if err != nil {
			return 0, err
		}
		slowest = max(slowest, stages["execute"])
	}
	return slowest, nil
}

// sweepWorkload is one client sending the 12-child sweep, again and
// again, to a coordinator over a two-worker fabric.
type sweepWorkload struct {
	seed   int64
	pins   pins
	outDir string
	stack  *sweepStack
	insts  int64 // simulated (trace) instructions of one sweep
	builds []buildSample
}

func (w *sweepWorkload) setup() (time.Duration, error) {
	setup, builds, err := repeatSetup(sweepPrograms(),
		func() (err error) { w.stack, err = startSweepStack(true); return err },
		func() error { return w.stack.close() })
	if err != nil {
		return 0, err
	}
	w.builds = builds
	shared, err := sharedPrograms(sweepPrograms())
	if err != nil {
		return 0, err
	}
	for _, p := range shared {
		w.insts += int64(p.Len()) * int64(len(sweepSpec().Configs))
	}
	if _, err := w.stack.sweep(sweepSpec(), nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return setup, nil
}

func (w *sweepWorkload) measure(d time.Duration, tr *span.Tracer) (*loopStats, error) {
	st := &loopStats{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		root := tr.Start("sweep", nil)
		st.attempted++
		res, err := w.stack.sweep(seededSweep(w.seed, i), root)
		root.End()
		if err == nil {
			err = w.pins.check(sweepTableKey, tableDigest(res.table))
		}
		if err != nil {
			st.fail(err)
			continue
		}
		st.done(res.dur, w.insts)
	}
	st.elapsed = time.Since(start)
	return st, nil
}

func (w *sweepWorkload) probe(m metrics, tr *span.Tracer, _ *loopStats) error {
	// The probes start servers of their own. This one stops first, so that
	// nothing else allocates while the simulator probes count allocations.
	err := w.stack.close()
	w.stack = nil
	if err != nil {
		return err
	}
	httpClient.CloseIdleConnections()
	if err := simProbes(m, tr, sweepPrograms(), true, w.builds); err != nil {
		return err
	}
	if err := serviceProbe(m, tr, w.outDir, w.pins, w.seed); err != nil {
		return err
	}
	return sweepProbe(m, tr, w.pins, w.seed)
}

func (w *sweepWorkload) close() error {
	if w.stack == nil {
		return nil
	}
	return w.stack.close()
}

// directChildren is the sweep's children as run specs, for the fabric
// probe that places them one by one.
func directChildren() []runSpec {
	var out []runSpec
	s := sweepSpec()
	for _, b := range s.Workloads {
		for _, c := range s.Configs {
			out = append(out, runSpec{b, configByLabel(c), 1, s.Functional})
		}
	}
	return out
}
